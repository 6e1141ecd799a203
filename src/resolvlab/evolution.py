"""Per-mode generators and contour-quadrature propagation.

The evolution semigroup is realized by inverse-Laplace quadrature on a
left-opening hyperbola

    z(theta) = mu (1 - sin(delta + i theta)),   theta in [-T, T],

whose vertex mu(1 - sin delta) is the contour offset and whose asymptotic
angle is pi/2 + delta; delta must keep the contour inside the sectorial
resolvent region.  Uniform theta steps give spectral accuracy in the
node count, with (mu, step, T) balanced for the requested time.

The generator is real in the variables (eta, w_r, u_N, h) with u_r =
i w_r, and close to normal: its eigenvector matrix V is well conditioned
(cond(V) = 35.7 at the baseline, at most 2e3 over the fluids, grids and
modes tried).  So one eigendecomposition A = V diag(lambda) V^-1 per
run serves every node of every time, each resolvent becoming a division
by z_k - lambda_j.  The eigenvector method is safe when cond(V) is small
and the decomposition is accurate (Moler & Van Loan, SIAM Rev. 45,
2003): propagate_contour reports cond(V), and solves every node densely
when the decomposition's residual is above rounding.  The smallest
|z_k - lambda_j| is the contour's distance to the spectrum.  A
scaling-and-squaring Pade(13) exponential of the generator itself
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005) is the independent oracle
for the contour path; it shares no factorisation with it.  The oracle
takes every time at once and forms one approximant and one squaring
chain per distinct scaled argument t/2^s: at the baseline, t = 0.1 and
t = 0.5, 1, 2 make two chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grids import NormalGrid
from .halfspace import lame_operator, lame_stress_rows
from .regions import FluidParams, SectorSpec, in_lambda_region

EXPM_DIM_CAP = 2000


class ContourError(NumericalError, RuntimeError):
    """A contour node hit the spectrum or left the admissible region."""


class DimensionCapError(NumericalError, ValueError):
    pass


# ---------------------------------------------------------------------------
# per-mode generator with bordered boundary rows
# ---------------------------------------------------------------------------

@dataclass
class PerModeGenerator:
    """Dense reduced generator for one tangential mode.

    Physical state layout before reduction: [eta, u_r, u_N (n nodes
    each), h].  The stress rows at x=0 and the Dirichlet closure at x=X
    are eliminated by expressing the boundary velocity values through the
    interior ones (bordering), leaving a plain square matrix on
    [eta, u-interior, h].  For real xi every i in the operator couples u_r
    to (eta, u_N), so in the variables u_r = i w_r the matrix is real:
    the reduced state is [eta, w_r-interior, u_N-interior, h], and
    physical = phase * reduced.  pack_state, unpack_state and apply_full
    take and give physical (eta, u, h).

    The run reads matrix alone, and no complex (3n+1)^2 map is kept.
    The oracles form theirs on demand from the real pieces: the
    reconstruction phase R and the projection P phase* from bordering
    (_reduction), and the un-eliminated operator phase A phase* from
    operator.
    """

    matrix: np.ndarray        # reduced square generator, float64
    operator: np.ndarray      # A: un-eliminated operator in the real variables, float64
    bordering: np.ndarray     # boundary velocity values from the reduced state, (4, dim)
    phase: np.ndarray         # diagonal of S = diag(1, i on w_r, 1) on the reduced state
    ngrid: NormalGrid

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _full_phase(n: int) -> np.ndarray:
    """Diagonal of S = diag(1 on eta, i on u_r, 1 on u_N and h) on the full state."""
    phase = np.ones(3 * n + 1, dtype=complex)
    phase[n:2 * n] = 1j
    return phase


def _unknowns(n: int):
    """The boundary unknowns u_r, u_N at node 0, then at node n-1, and the rest."""
    b_idx = [n, 2 * n, 2 * n - 1, 3 * n - 1]
    return b_idx, [i for i in range(3 * n + 1) if i not in set(b_idx)]


def _reduction(n: int, bordering: np.ndarray):
    """The real reconstruction R (full x reduced) and projection P (reduced x full).

    R carries the reduced state and, on the boundary unknowns, their
    bordering rows; P selects the reduced state.
    """
    b_idx, r_idx = _unknowns(n)
    dim_red = len(r_idx)
    R = np.zeros((3 * n + 1, dim_red))
    R[r_idx, np.arange(dim_red)] = 1.0
    R[b_idx, :] = bordering
    P = np.zeros((dim_red, 3 * n + 1))
    P[np.arange(dim_red), r_idx] = 1.0
    return R, P


def build_generator(xi: float, params: FluidParams, ngrid: NormalGrid) -> PerModeGenerator:
    """Assemble the block operator for the mode xi of the density-coupled system.

    Rows: d_t eta = -gamma1 div u; gamma1 d_t u = Div(S(u) - gamma2 eta I);
    d_t h = -u_N(0), with div u = i xi u_r + u_N'.  Constraints: tangential
    stress mu(u_r' + i xi u_N) = 0 and normal stress
    2 mu u_N' + (nu-mu) div u - gamma2 eta + sigma(m+xi^2)h = 0 at x=0,
    u = 0 at x=X.

    The system is rotation invariant in xi', so this 1-D generator at
    xi = |xi'| is every shell's generator up to rotation, with the
    azimuthal velocity left out: it solves its own scalar problem.
    """
    n = ngrid.points
    D = ngrid.diff
    Ident = np.eye(n)
    mu, nu = params.mu, params.nu
    g1, g2 = params.gamma1, params.gamma2
    sg, m = params.sigma, params.m

    dim_full = 3 * n + 1
    i_eta, i_r, i_N = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    i_vel = slice(n, 3 * n)
    i_h = dim_full - 1

    # the real variables: u_r = i w_r, and the u_r rows multiplied by -i
    A = np.zeros((dim_full, dim_full))
    # density row: -gamma1 div u = -gamma1 (u_N' - xi w_r)
    A[i_eta, i_r] += g1 * xi * Ident
    A[i_eta, i_N] += -g1 * D

    # velocity rows: (mu lap u + nu grad div u)/gamma1, the Lame operator at
    # lam = 0 with its sign flipped, and -gamma2 grad eta/gamma1
    r = np.array([xi])
    A[i_vel, i_vel] -= lame_operator(0.0, mu / g1, nu / g1, r, D, ngrid.diff2)[0]
    A[i_r, i_eta] += -(g2 / g1) * xi * Ident
    A[i_N, i_eta] += -(g2 / g1) * D

    # height row: d_t h = -u_N(0)
    A[i_h, i_N.start] = -1.0

    # constraint rows C x = 0: the two stress rows, then u_r(X) = u_N(X) = 0
    C = np.zeros((4, dim_full))
    C[:2, i_vel] = lame_stress_rows(mu, nu - mu, r, D)[0]
    C[1, 0] = -g2              # -gamma2 eta(0)
    C[1, i_h] = sg * (m + xi * xi)
    C[2, 2 * n - 1] = C[3, 3 * n - 1] = 1.0

    b_idx, r_idx = _unknowns(n)
    try:
        Xel = -np.linalg.solve(C[:, b_idx], C[:, r_idx])     # u_b = Xel @ x_reduced
    except np.linalg.LinAlgError as exc:
        raise ContourError(f"singular boundary bordering: {exc}") from exc

    R, P = _reduction(n, Xel)
    return PerModeGenerator(matrix=P @ A @ R, operator=A, bordering=Xel,
                            phase=_full_phase(n)[r_idx], ngrid=ngrid)


def _full_state(eta, u, h):
    return np.concatenate([np.asarray(eta, dtype=complex).ravel(),
                           np.asarray(u, dtype=complex).T.ravel(),
                           [complex(h)]])


def _split_state(full, n):
    return full[:n], full[n:3 * n].reshape(2, n).T, full[-1]


def apply_full(gen: PerModeGenerator, eta, u, h):
    """Un-eliminated operator applied to a full state (eta, u, h)."""
    n = gen.ngrid.points
    phase = _full_phase(n)
    full_action = phase[:, None] * gen.operator * phase.conj()
    return _split_state(full_action @ _full_state(eta, u, h), n)


def pack_state(gen: PerModeGenerator, eta, u, h):
    n = gen.ngrid.points
    project = _reduction(n, gen.bordering)[1] * _full_phase(n).conj()
    return project @ _full_state(eta, u, h)


def unpack_state(gen: PerModeGenerator, reduced):
    n = gen.ngrid.points
    reconstruct = _full_phase(n)[:, None] * _reduction(n, gen.bordering)[0]
    return _split_state(reconstruct @ np.asarray(reduced, dtype=complex), n)


# ---------------------------------------------------------------------------
# hyperbolic contour quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Hyperbolic inverse-Laplace contour.

    angle is the asymptotic half-angle increment delta (contour angle
    pi/2 + delta), offset the vertex distance from the origin, nodes the
    quadrature node count.  Both must keep the contour inside the
    Lambda region: pi/2 + delta < pi - epsilon and offset >= lambda0.
    """

    angle: float = 0.7
    offset: float = 1.0
    nodes: int = 48

    def __post_init__(self):
        if not (0 < self.angle < math.pi / 2):
            raise ValueError("angle must lie in (0, pi/2)")
        if self.offset <= 0:
            raise ValueError("offset must be positive")
        if self.nodes < 8:
            raise ValueError("need at least 8 nodes")

    def nodes_weights(self, t: float):
        """Contour nodes z_k and the weights h z'(theta_k)/(2 pi i) e^{z_k t}.

        mu scales like nodes/t (larger contours for small times), the
        uniform step and truncation balance the discretization and tail
        errors of the trapezoid rule for analytic integrands.
        """
        if t <= 0:
            raise ValueError("time must be positive")
        M = self.nodes
        delta = self.angle
        mu = max(0.4 * M / t, self.offset / (1.0 - math.sin(delta)))
        # truncate where the tail factor exp(mu t (1 - sin(delta) cosh th))
        # falls 25 e-folds below the vertex contribution
        theta_max = math.acosh(max((0.4 * M + 25.0) / (mu * t * math.sin(delta)), 1.5))
        h = 2 * theta_max / (M - 1)
        theta = -theta_max + h * np.arange(M)
        # upward orientation: Im z increases with theta
        z = mu * (1.0 - np.sin(delta - 1j * theta))
        dz = 1j * mu * np.cos(delta - 1j * theta)
        w = h * dz / (2j * math.pi)
        return z, w


def propagate_contour(A, U0, times, contour: ContourSpec,
                      region: SectorSpec | None = None):
    """U(t) for every t in times, as the quadrature of e^{z t}(z - A)^{-1} U0.

    One eigendecomposition A = V diag(lambda) V^-1 serves every node of
    every time: with c = V^-1 U0,

        U(t) = V (c * sum_k w_k e^{z_k t} / (z_k - lambda)),

    and each time's sum and product use that time's nodes alone.  The
    sum is only as accurate as the decomposition, so when its residual
    |A V - V diag(lambda)|_F exceeds n eps |A|_F, every node takes a
    dense solve of (z_k - A) y = U0 instead.  That happens for a tiny
    coupling, such as a surface tension near 0, whose rounding LAPACK's
    balancing amplifies: the eigenvector sum then misses the dense path
    by up to 6e-7.
    Returns the states, one row per time, the smallest |z_k - lambda_j|
    over all nodes (the contour's distance to the spectrum of A), the
    2-norm condition number of V, the factor by which the eigenvector
    sum can amplify rounding, and the path that ran: "eigenvectors" or
    "dense".
    """
    lam, V = np.linalg.eig(A)
    z, w = [], []
    for t in times:
        zt, wt = contour.nodes_weights(t)
        if region is not None:
            ok = in_lambda_region(zt, region)
            if not np.all(ok):
                raise ContourError(f"contour node(s) outside Lambda region: {zt[~ok][:3]}")
        z.append(zt)
        w.append(wt * np.exp(zt * t))
    z = np.array(z)
    gap = z[:, None, :] - lam[:, None]   # (times, n, nodes)
    if not np.all(gap):
        raise ContourError(f"contour node(s) on the spectrum: {z[np.any(gap == 0, 1)][:3]}")
    U0 = np.asarray(U0, dtype=complex)
    n = A.shape[0]
    residual = A @ V
    residual -= V * lam
    accurate = np.linalg.norm(residual) <= n * np.finfo(float).eps * np.linalg.norm(A)
    del residual   # held through the solves and cond(V), it raised the cold peak by 0.7 MB
    if accurate:
        c = np.linalg.solve(V, U0)
        states = [V @ (c * ((1.0 / gt) @ wt)) for gt, wt in zip(gap, w)]
        path = "eigenvectors"
    else:
        eye = np.eye(n)
        states = [sum(wk * np.linalg.solve(zk * eye - A, U0) for zk, wk in zip(zt, wt))
                  for zt, wt in zip(z, w)]
        path = "dense"
    return np.array(states), float(np.abs(gap).min()), float(np.linalg.cond(V)), path


# Higham (2005): the [13/13] Pade coefficients b_0..b_13, and theta_13, the
# largest 1-norm of X whose approximant has a backward error below unit roundoff.
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0,
          670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
          960960.0, 16380.0, 182.0, 1.0)
THETA13 = 5.371920351148152


def _pade13(A, t: float, s: int):
    """r(X) = (V - U)^-1 (V + U), the [13/13] Pade approximant at X = tA / 2^s.

    U and V are formed from X^2, X^4, X^6 by in-place accumulation in the
    operand order of Higham (2005), Algorithm 2.3, the identity terms on the
    diagonal.  X is let go once U is formed and its powers once V is, so
    at most six n x n arrays are alive.
    """
    b = PADE13
    X = t * A
    X /= 2.0 ** s
    diag = np.diag_indices(X.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = b[13] * X6
    U += b[11] * X4
    U += b[9] * X2
    U = X6 @ U
    U += b[7] * X6
    U += b[5] * X4
    U += b[3] * X2
    U[diag] += b[1]
    U = X @ U
    del X
    V = b[12] * X6
    V += b[10] * X4
    V += b[8] * X2
    V = X6 @ V
    V += b[6] * X6
    V += b[4] * X4
    V += b[2] * X2
    del X2, X4, X6
    V[diag] += b[0]
    P = V + U
    V -= U
    return np.linalg.solve(V, P)


def matrix_exponential_oracle(A, U0, times):
    """e^{t A} U0 for every t in times, one row per time, by scaling and squaring in A's arithmetic.

    Each tA is scaled by 2^-s until its 1-norm is at most THETA13, and the
    [13/13] Pade approximant of X = tA / 2^s is squared s times (Higham
    2005, Algorithm 2.3 with m = 13).  Times whose scaled arguments t/2^s
    are equal, those whose ratios are powers of two, have bitwise equal X
    (barring over- and underflow): they share one approximant and one squaring chain, and each time reads
    its state off the chain after its own s squarings.
    """
    if A.shape[0] > EXPM_DIM_CAP:
        raise DimensionCapError(f"dimension {A.shape[0]} exceeds {EXPM_DIM_CAP}")
    U0 = np.asarray(U0, dtype=complex)
    chains = {}
    for i, t in enumerate(times):
        norm = np.linalg.norm(t * A, 1)
        s = math.ceil(math.log2(norm / THETA13)) if norm > THETA13 else 0
        chains.setdefault(t / 2.0 ** s, []).append((s, i))
    states = np.empty((len(times),) + U0.shape, dtype=complex)
    for links in chains.values():
        links.sort()
        s0, i0 = links[0]
        E = _pade13(A, times[i0], s0)
        squared = 0
        for s, i in links:
            for _ in range(s - squared):
                E = E @ E
            squared = s
            states[i] = E @ U0
        del E   # the next chain's approximant is formed without this one
    return states
