"""Per-mode generators and contour-quadrature propagation.

The evolution semigroup is realized by inverse-Laplace quadrature on a
left-opening hyperbola

    z(theta) = mu (1 - sin(delta + i theta)),   theta in [-T, T],

whose vertex mu(1 - sin delta) is the contour offset and whose asymptotic
angle is pi/2 + delta; delta must keep the contour inside the sectorial
resolvent region.  Uniform theta steps give spectral accuracy in the
node count, with (mu, step, T) balanced for the requested time.

The generator is real in the variables (eta, w_r, u_N, h) with u_r =
i w_r, so one real Schur factor per run, turned complex by rsf2csf,
serves every node of every time: one back-substitution sweep over the
rows of the triangular factor solves all nodes at once (Laub, IEEE TAC
26, 1981), and its diagonal gives the contour's distance to the
spectrum.  An expm-based propagator (scaling and squaring) of the real
generator itself is the independent oracle for the contour path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import NormalGrid
from .halfspace import lame_operator, lame_stress_rows
from .regions import FluidParams, SectorSpec, in_lambda_region

EXPM_DIM_CAP = 2000


class ContourError(RuntimeError):
    """A contour node hit the spectrum or left the admissible region."""


class DimensionCapError(ValueError):
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
    """

    matrix: np.ndarray        # reduced square generator, float64
    reconstruct: np.ndarray   # reduced state -> physical full state
    project: np.ndarray       # physical full state -> reduced state
    full_action: np.ndarray   # un-eliminated operator on the physical full state
    phase: np.ndarray         # diagonal of S = diag(1, i on w_r, 1) on the reduced state
    ngrid: NormalGrid

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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

    A = np.zeros((dim_full, dim_full), dtype=complex)
    # density row: -gamma1 (i xi u_r + u_N')
    A[i_eta, i_r] += -g1 * 1j * xi * Ident
    A[i_eta, i_N] += -g1 * D

    # velocity rows: (mu lap u + nu grad div u)/gamma1, the Lame operator at
    # lam = 0 with its sign flipped, and -gamma2 grad eta/gamma1
    r = np.array([xi])
    A[i_vel, i_vel] -= lame_operator(0.0, mu / g1, nu / g1, r, D, ngrid.diff2)[0]
    A[i_r, i_eta] += -(g2 / g1) * 1j * xi * Ident
    A[i_N, i_eta] += -(g2 / g1) * D

    # height row: d_t h = -u_N(0)
    A[i_h, i_N.start] = -1.0

    # constraint rows C x = 0: the two stress rows, then u_r(X) = u_N(X) = 0
    C = np.zeros((4, dim_full), dtype=complex)
    C[:2, i_vel] = lame_stress_rows(mu, nu - mu, r, D)[0]
    C[1, 0] = -g2              # -gamma2 eta(0)
    C[1, i_h] = sg * (m + xi * xi)
    C[2, 2 * n - 1] = C[3, 3 * n - 1] = 1.0

    # boundary unknowns: u_r, u_N at node 0, then at node n-1
    b_idx = [n, 2 * n, 2 * n - 1, 3 * n - 1]
    r_idx = [i for i in range(dim_full) if i not in set(b_idx)]
    try:
        Xel = -np.linalg.solve(C[:, b_idx], C[:, r_idx])     # u_b = Xel @ x_reduced
    except np.linalg.LinAlgError as exc:
        raise ContourError(f"singular boundary bordering: {exc}") from exc

    dim_red = len(r_idx)
    R = np.zeros((dim_full, dim_red), dtype=complex)
    R[r_idx, np.arange(dim_red)] = 1.0
    R[b_idx, :] = Xel
    P = np.zeros((dim_red, dim_full))
    P[np.arange(dim_red), r_idx] = 1.0

    # S^-1 (P A R) S with S = diag(phase): multiplying by 1 and +-i is exact
    phase = np.array([1j if n <= i < 2 * n else 1 for i in r_idx], dtype=complex)
    gen = phase.conj()[:, None] * (P @ A @ R) * phase
    if np.any(gen.imag):
        raise ContourError("generator not real in the variables u_r = i w_r")
    return PerModeGenerator(matrix=gen.real, reconstruct=R * phase,
                            project=P * phase.conj()[:, None], full_action=A,
                            phase=phase, ngrid=ngrid)


def apply_full(gen: PerModeGenerator, eta, u, h):
    """Un-eliminated operator applied to a full state (eta, u, h)."""
    n = gen.ngrid.points
    state = np.concatenate([np.asarray(eta, dtype=complex).ravel(),
                            np.asarray(u, dtype=complex).T.ravel(),
                            [complex(h)]])
    out = gen.full_action @ state
    return out[:n], out[n:3 * n].reshape(2, n).T, out[-1]


def pack_state(gen: PerModeGenerator, eta, u, h):
    full = np.concatenate([np.asarray(eta, dtype=complex).ravel(),
                           np.asarray(u, dtype=complex).T.ravel(),
                           [complex(h)]])
    return gen.project @ full


def unpack_state(gen: PerModeGenerator, reduced):
    full = gen.reconstruct @ np.asarray(reduced, dtype=complex)
    n = gen.ngrid.points
    return full[:n], full[n:3 * n].reshape(2, n).T, full[-1]


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

    One Schur factor A = Z T Z* (T upper triangular, Z unitary) serves
    every node of every time; it is computed in A's arithmetic (real for
    the generator) and turned complex by rsf2csf.  The resolvents
    (z_k - T) y_k = Z* U0 of all nodes of all times are one
    back-substitution sweep over the rows of T, one column per node, and
    U(t) = Z sum_k w_k e^{z_k t} y_k.
    Returns the states, one row per time, and the smallest |z_k - T_jj|
    over all nodes: the contour's distance to the spectrum of A.
    """
    # scipy only here and in the oracle: every command imports this module
    from scipy.linalg import rsf2csf, schur

    # a complex A runs complex gees here, and rsf2csf leaves its T as it is
    T, Z = rsf2csf(*schur(A, output="real"))
    z, w = [], []
    for t in times:
        zt, wt = contour.nodes_weights(t)
        if region is not None:
            ok = in_lambda_region(zt, region)
            if not np.all(ok):
                raise ContourError(f"contour node(s) outside Lambda region: {zt[~ok][:3]}")
        z.append(zt)
        w.append(wt * np.exp(zt * t))
    # (times, n, nodes): row j of every time is one batched product, whose
    # per-time arithmetic does not depend on the other times
    z = np.array(z)
    gap = z[:, None, :] - np.diag(T)[:, None]
    if not np.all(gap):
        raise ContourError(f"contour node(s) on the spectrum: {z[np.any(gap == 0, 1)][:3]}")
    b = Z.conj().T @ np.asarray(U0, dtype=complex)
    Y = np.empty(gap.shape, dtype=complex)
    for j in range(T.shape[0] - 1, -1, -1):
        Y[:, j] = (b[j] + T[j, j + 1:] @ Y[:, j + 1:]) / gap[:, j]
    states = [Z @ (Yt @ wt) for Yt, wt in zip(Y, w)]
    return np.array(states), float(np.abs(gap).min())


def matrix_exponential_oracle(A, U0, t: float):
    """e^{t A} U0 by scaling-and-squaring Pade (backward-error bounded), in A's arithmetic."""
    if A.shape[0] > EXPM_DIM_CAP:
        raise DimensionCapError(f"dimension {A.shape[0]} exceeds {EXPM_DIM_CAP}")
    from scipy.linalg import expm

    return expm(t * A) @ np.asarray(U0, dtype=complex)
