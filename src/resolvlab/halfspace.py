"""Half-space resolvent solvers.

Three runtime layers, each per tangential Fourier mode.  Each takes its
input fields in either tangential space (grids.spectral_values reads
them) and returns spectral fields:

  * solve_surface_homogeneous - the explicit boundary-symbol formulas for
    the surface-coupled homogeneous system: h's trace is (det L / N) k,
    the velocity profiles are combinations of exp(-B x) and the mollified
    exponential M weighted by the n_Jk symbols.  The solves read only the
    profile u, so they build none of its x-derivatives.
  * solve_lame_bvp - the inhomogeneous system with pure stress data, as a
    dense Chebyshev collocation solve per shell |xi'| = r (the literature
    formula the construction delegates to is replaced by this solver;
    equivalence is established through manufactured-solution and residual
    tests).  The system is rotation invariant in xi', so every mode is
    turned into the frame where xi' = (r, 0) and all modes of a shell share
    one factorisation: 135 instead of 1024 on a 32^2 grid.  In that frame
    (w_r, v_N), with v_r = i w_r, solve the 2n block of lame_operator and
    lame_stress_rows, the 1-D system at xi = r, and in 2-D v_perp solves
    the n block of azimuthal_operator: 9n^3 of LU work per shell instead
    of 27n^3.  The similarity v_r = i w_r makes every block real for real
    lam and zeta, and then the LU runs in float64, with the real and
    imaginary parts of the data as separate columns: a quarter of the
    complex LU's flops.  The blocks of LAME_BATCH_MODES shells are held
    at a time.  The evolution generator takes its velocity block and
    stress rows from the same pair, in its real variables u_r = i w_r.
  * solve_full_resolvent - density elimination, the Lame solve, the
    surface correction K - v_N, superposition u = v + w (in place in the
    Lame solution v) and density recovery.  The solution keeps eta, u
    and h only; extend_height extends h into the half space.

solve_surface_volevich is the oracle for the first layer: the same
operator in its trace-free form, as normal-direction integrals of
decaying kernels against (m - Lap')k, d_N k and grad' d_N k, evaluated by
graded Gauss-Legendre panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grids import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    TangentialGrid,
    edge_support_ratio,
    spectral_values,
)
from .regions import FluidParams
from .symbols import (
    SymbolParams,
    lopatinski_values,
    mollified_exp,
    mollified_exp_derivatives,
    njk_values,
    q_values,
)

EDGE_SUPPORT_TOL = 1e-10
LAME_BATCH_MODES = 16   # shells per batch: 4.7 MB of real 2n blocks at 96 nodes, 2-D adds 1.2 MB


class SolverError(NumericalError, RuntimeError):
    pass


class QuadratureError(SolverError):
    """Volevich quadrature failed to reach the requested tolerance."""


def smooth_cutoff(s):
    """C-infinity bump: 1 on |s| <= 1, 0 on |s| >= 2, monotone between."""
    s = np.abs(np.asarray(s, dtype=float))
    def psi(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out
    num = psi(2.0 - s)
    return num / (num + psi(s - 1.0))


# ---------------------------------------------------------------------------
# surface-coupled homogeneous system
# ---------------------------------------------------------------------------

def surface_mode_profiles(lam, tgrid: TangentialGrid, ngrid: NormalGrid,
                          p: SymbolParams, khat, order: int = 0):
    """Spectral solution profile u(x), or its analytic x-derivative, and h.

    khat holds the per-mode boundary values of the surface datum.
    Returns (u, hhat) with u of shape mode_shape + (nx, N); order 1 or 2
    gives d^order u / dx^order in place of u.
    """
    xi_sq = tgrid.xi_sq
    L = lopatinski_values(lam, xi_sq, p)
    A, B = L.A, L.B
    nt1, nt2, nN1, nN2 = njk_values(L, q_values(lam, xi_sq, p, core=(A, B))[0], tgrid.xi, p)

    x = ngrid.nodes
    Ax, Bx = A[..., None], B[..., None]
    E = np.exp(-Bx * x)
    if order:
        M = mollified_exp_derivatives(Ax, Bx, x)[order]
        E = (-Bx) ** order * E
    else:
        M = mollified_exp(Ax, Bx, x)

    mxi2 = (p.m + xi_sq)[..., None]
    kb = khat[..., None]
    c1 = nt1[..., None, :] * mxi2[..., None] * kb[..., None]
    c2 = nt2[..., None, :] * mxi2[..., None] * kb[..., None]
    cN1 = nN1[..., None] * mxi2 * kb
    cN2 = nN2[..., None] * mxi2 * kb
    u = np.empty(tgrid.mode_shape + (ngrid.points, tgrid.dims + 1), dtype=complex)
    u[..., :-1] = c1 * (Bx * M - E)[..., None]
    u[..., :-1] += c2 * E[..., None]
    u[..., -1] = cN1 * Bx * M + cN2 * E

    hhat = (L.detL / L.N) * khat
    return u, hhat


def solve_surface_homogeneous(k: BoundaryField, params: FluidParams, lam,
                              ngrid: NormalGrid, *, zeta=None):
    """Surface-driven solve: returns the spectral (u, h-trace)."""
    p = SymbolParams.from_fluid(params, zeta=zeta)
    khat = spectral_values(k)[..., 0]
    u, hhat = surface_mode_profiles(lam, k.tgrid, ngrid, p, khat)
    return (HalfSpaceField(u, k.tgrid, ngrid, "spectral"),
            BoundaryField(hhat, k.tgrid, "spectral"))


def extend_height(hhat_boundary, tgrid: TangentialGrid, ngrid: NormalGrid):
    """phi(x) * exp(-|xi| x) extension of the height trace into the half space."""
    xi_norm = np.sqrt(tgrid.xi_sq)[..., None]
    x = ngrid.nodes
    vals = smooth_cutoff(x) * np.exp(-xi_norm * x) * hhat_boundary[..., None]
    return HalfSpaceField(vals[..., None], tgrid, ngrid, "spectral")


def extend_boundary_datum(K: BoundaryField, ngrid: NormalGrid) -> HalfSpaceField:
    """exp(-x (1 - Lap')^(1/2)) damping of boundary-only surface data.

    Keeps the datum in the H^2-type class the trace-free operators
    consume, with d_N available analytically.
    """
    damp = np.sqrt(1.0 + K.tgrid.xi_sq)[..., None]
    out = np.exp(-damp * ngrid.nodes) * spectral_values(K)[..., 0][..., None]
    return HalfSpaceField(out[..., None], K.tgrid, ngrid, "spectral")


# ---------------------------------------------------------------------------
# Volevich (trace-free) form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolevichQuadrature:
    """Composite Gauss-Legendre on a geometrically graded partition of [0, X]."""

    truncation: float
    panels: int = 10
    points_per_panel: int = 16

    def nodes_weights(self, points_per_panel=None):
        ppp = points_per_panel or self.points_per_panel
        edges = [0.0] + [self.truncation * 2.0 ** (-j)
                         for j in range(self.panels - 1, -1, -1)]
        gx, gw = np.polynomial.legendre.leggauss(ppp)
        ys, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            ys.append(0.5 * (b - a) * gx + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * gw)
        return np.concatenate(ys), np.concatenate(ws)


def chebyshev_interp_matrix(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from Chebyshev-point values.

    nodes are the mapped extreme points (ascending); the barycentric
    weights are (-1)^j with halved endpoints, unchanged by affine maps.
    """
    n = nodes.size
    w = np.ones(n) * (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = targets[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff = np.where(exact, 1.0, diff)
    terms = w[None, :] / diff
    out = terms / terms.sum(axis=1, keepdims=True)
    hit_rows = exact.any(axis=1)
    out[hit_rows] = exact[hit_rows].astype(float)
    return out


def solve_surface_volevich(k_field: HalfSpaceField, params: FluidParams, lam, *,
                           zeta=None, quad: VolevichQuadrature | None = None,
                           quad_rtol: float = 1e-6):
    """Surface solve through the trace-free kernel integrals.

    The operators consume (m - Lap')k, d_N k and grad' d_N k; h keeps
    the cutoff-damped multiplier form on the boundary trace of k.  A
    refined quadrature pass estimates the achieved error and raises
    QuadratureError above quad_rtol.  Returns the spectral (u, h
    extension) and the achieved error.
    """
    p = SymbolParams.from_fluid(params, zeta=zeta)
    tg, ng = k_field.tgrid, k_field.ngrid
    khat = spectral_values(k_field)[..., 0]       # (modes..., nx)
    dkhat = khat @ ng.diff.T                      # d_N k per mode

    quad = quad or VolevichQuadrature(truncation=ng.truncation)
    uq = _volevich_velocity(khat, dkhat, tg, ng, p, lam, quad, None)
    uq2 = _volevich_velocity(khat, dkhat, tg, ng, p, lam, quad, 2 * quad.points_per_panel)
    # data-trace scale guards the zero-trace case, where u vanishes identically
    scale = max(np.max(np.abs(uq2)), np.max(np.abs(khat)), 1e-300)
    achieved = float(np.max(np.abs(uq - uq2)) / scale)
    if achieved > quad_rtol:
        raise QuadratureError(f"quadrature error {achieved:.3e} > {quad_rtol:.1e}")

    L = lopatinski_values(lam, tg.xi_sq, p)
    h_ext = extend_height((L.detL / L.N) * khat[..., 0], tg, ng)
    return HalfSpaceField(uq2, tg, ng, "spectral"), h_ext, achieved


def _volevich_velocity(khat, dkhat, tg, ng, p, lam, quad, ppp):
    xi_sq = tg.xi_sq
    L = lopatinski_values(lam, xi_sq, p, check=False)
    A, B = L.A, L.B
    nt1, nt2, nN1, nN2 = njk_values(L, q_values(lam, xi_sq, p)[0], tg.xi, p)

    yq, wq = quad.nodes_weights(ppp)
    interp = chebyshev_interp_matrix(ng.nodes, yq)   # (ny, nx_cheb)
    k_q = khat @ interp.T                             # (modes..., ny)
    dk_q = dkhat @ interp.T

    x = ng.nodes
    # kernels on x + y: (modes..., nx, ny)
    Axy = A[..., None, None]
    Bxy = B[..., None, None]
    xy = x[:, None] + yq[None, :]
    KM = Bxy**2 * mollified_exp(Axy, Bxy, xy)
    KE = Bxy * np.exp(-Bxy * xy)

    mxi2 = p.m + xi_sq
    F1 = mxi2[..., None] * k_q
    F2 = dk_q

    def integ(kernel, weight):
        return np.einsum("...xy,...y,y->...x", kernel, weight, wq)

    GM1, GE1 = integ(KM, F1), integ(KE, F1)
    GM2, GE2 = integ(KM, F2), integ(KE, F2)
    # grad' d_N k contributions carry i xi_l; summing l of (i xi_l)(i xi_l dk)
    # gives -|xi|^2 dk, collapsed here analytically
    GM3 = integ(KM, -xi_sq[..., None] * F2)
    GE3 = integ(KE, -xi_sq[..., None] * F2)

    nd = tg.dims
    u = np.empty(tg.mode_shape + (ng.points, nd + 1), dtype=complex)
    Ab = (A / B)[..., None]
    mB = (p.m / B)[..., None]
    iB = (1.0 / B)[..., None]
    for j in range(nd):
        a1 = nt1[..., j][..., None]
        a2 = nt2[..., j][..., None]
        u[..., j] = (a1 * Ab * GM1 + a2 * GE1
                     - a1 * mB * (GM2 - GE2) - a2 * mB * GE2
                     + a1 * iB * (GM3 - GE3) + a2 * iB * GE3)
    b1 = nN1[..., None]
    b2 = nN2[..., None]
    u[..., nd] = ((b1 + b2) * GE1 + b1 * Ab * GM1
                  - b1 * mB * GM2 - b2 * mB * GE2
                  + b1 * iB * GM3 + b2 * iB * GE3)
    return u


# ---------------------------------------------------------------------------
# Lame boundary value problem
# ---------------------------------------------------------------------------

def azimuthal_operator(lam, a, r, D2):
    """(lam + a r^2) I - a d_N^2 per shell radius r, as (shells, n, n) blocks.

    The operator on v_perp in the frame where xi' = (r, 0), and the
    diagonal blocks of lame_operator before its grad(div v) terms.
    """
    return (lam + a * (r * r))[:, None, None] * np.eye(D2.shape[0]) - a * D2


def lame_operator(lam, a, c, r, D, D2):
    """(lam + a r^2 - a d_N^2) v - c grad(div v) on (w_r, v_N) per shell radius r.

    In the frame where xi' = (r, 0), grad = (i r, d_N) and div v =
    i r v_r + v_N' couple v_r with v_N only.  In the variable w_r = -i v_r,
    with the v_r rows multiplied by -i, div v = v_N' - r w_r and every
    coefficient is real: the blocks have the dtype of lam, a and c.
    Returns the (shells, 2n, 2n) collocation blocks with the unknowns
    ordered w_r, then v_N.
    """
    n = D.shape[0]
    crD = (c * r)[:, None, None] * D
    out = np.empty((r.size, 2, n, 2, n), dtype=np.result_type(lam, a, c, r))
    out[:, 0, :, 0] = azimuthal_operator(lam, a, r, D2)
    out[:, 1, :, 1] = out[:, 0, :, 0] - c * D2
    out[:, 0, :, 1] = -crD
    out[:, 1, :, 0] = crD
    diag = np.arange(n)
    out[:, 0, diag, 0, diag] += (c * r * r)[:, None]
    return out.reshape(r.size, 2 * n, 2 * n)


def lame_stress_rows(a, b, r, D):
    """Stress rows at x_N = 0 per shell radius r, over the unknowns of lame_operator.

    Row 0 is -i a(v_r' + i r v_N) = a(w_r' + r v_N), row 1 is
    2a v_N' + b(i r v_r + v_N') = 2a v_N' + b(v_N' - r w_r);
    returns (shells, 2, 2n).
    """
    n = D.shape[0]
    rows = np.zeros((r.size, 2, 2, n), dtype=np.result_type(a, b, r))
    rows[:, 0, 0] = a * D[0]
    rows[:, 0, 1, 0] += a * r
    rows[:, 1, 0, 0] -= b * r
    rows[:, 1, 1] = 2 * a * D[0] + b * D[0]
    return rows.reshape(r.size, 2, 2 * n)


def _shell_frames(tg: TangentialGrid):
    """Group the modes by |xi'| and rotate each into the frame where xi' = (r, 0).

    The shell key is the integer k.k of the FFT wavenumbers, so modes on
    one circle share it exactly.  Returns the sorted keys, each mode's
    shell index and per-mode (N, N) unitary maps onto the frame (w_r,
    v_N, v_perp) of lame_operator: the rows are -i e with e = xi'/r, the
    normal and, in 2-D, e_perp = (-e_2, e_1), with e = (1, 0) at xi' = 0
    (in 1-D, the sign of xi).
    """
    k = tg.wavenumbers.reshape(-1, tg.dims)
    key = np.sum(k * k, axis=-1)
    keys, shell = np.unique(key, return_inverse=True)
    e = np.zeros(k.shape)
    e[:, 0] = 1.0
    moving = key > 0
    e[moving] = k[moving] / np.sqrt(key[moving])[:, None]
    rot = np.zeros((key.size, tg.dims + 1, tg.dims + 1), dtype=complex)
    rot[:, 0, :tg.dims] = -1j * e
    rot[:, 1, tg.dims] = 1.0
    if tg.dims == 2:
        rot[:, 2, 0], rot[:, 2, 1] = -e[:, 1], e[:, 0]
    return keys, shell, rot


def _solve_shells(mats, stress, f, at, width):
    """Solve each shell's block of mats on the frame data f (modes, n, k) of its modes.

    The stress rows replace node 0 and v = 0 closes node n-1; at puts each
    mode in a column of its shell's rhs.  Real blocks solve the real and
    imaginary parts of the rhs as real columns.  Returns the (modes, n, k)
    solution.
    """
    nm, n, k = f.shape
    mats[:, ::n] = stress
    mats[:, n - 1::n] = 0.0
    mats[:, n - 1::n, n - 1::n] = np.eye(k)
    rhs = np.zeros((mats.shape[0], k * n, width), dtype=complex)
    rhs[at] = f.transpose(0, 2, 1).reshape(nm, k * n)
    try:
        if np.isrealobj(mats):
            sol = np.linalg.solve(mats, rhs.view(float)).view(complex)
        else:
            sol = np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular collocation matrix: {exc}") from exc
    return sol[at].reshape(nm, k, n).transpose(0, 2, 1)


def solve_lame_bvp(F: HalfSpaceField, Gprime: BoundaryField, params: FluidParams,
                   lam, *, zeta=None):
    """Dense collocation solve of the stress-data system, once per shell |xi'| = r.

    Interior rows: (lam + a|xi|^2) v - a v'' - (a+b+z) grad(div v) = F.
    At x = 0: a(v_j' + i xi_j v_N) = -G'_j and
              2a v_N' + (b+z)(i xi . v' + v_N') = -G'_N.
    Decay is closed by v = 0 at the truncation end.

    The system is rotation invariant in xi', so each mode's tangential
    components of F and G' are turned into the frame where xi' = (r, 0)
    (_shell_frames).  There (w_r, v_N) solve lame_operator's 2n block and,
    in 2-D, v_perp solves azimuthal_operator's n block with the stress row
    a v_perp' = -G'_perp.  Each shell's blocks are factored once,
    LAME_BATCH_MODES shells at a time, with the shell's modes as the
    columns of one right-hand side; for real lam and zeta the blocks are
    real.  The solution is turned back.
    """
    p = SymbolParams.from_fluid(params, zeta=zeta)
    tg, ng = F.tgrid, F.ngrid

    n, nc = ng.points, tg.dims + 1
    D, D2 = ng.diff, ng.diff2
    a = p.alpha
    coef = np.array([lam, p.beta + p.zeta, p.alpha + p.beta + p.zeta])
    if not coef.imag.any():
        coef = coef.real   # real lam and zeta: real blocks
    lam, b, c = coef
    keys, shell, rot = _shell_frames(tg)
    nm = shell.size
    Fhat = spectral_values(F).reshape(nm, n, nc)
    Ghat = spectral_values(Gprime).reshape(nm, nc, 1)
    r = (np.pi / tg.half_length) * np.sqrt(keys)
    # modes sorted by shell; col is each mode's column in its shell's rhs.
    # Every rhs has the same width, so a shell's solve does not see the batching.
    order = np.argsort(shell, kind="stable")
    first = np.searchsorted(shell[order], np.arange(keys.size + 1))
    col = np.empty_like(shell)
    col[order] = np.arange(nm) - first[shell[order]]
    width = int(col.max()) + 1

    v = np.empty((nm, n, nc), dtype=complex)
    for lo in range(0, keys.size, LAME_BATCH_MODES):
        hi = min(lo + LAME_BATCH_MODES, keys.size)
        modes = order[first[lo]:first[hi]]
        R = rot[modes]
        # the data in the shell's frame; the stress data at node 0 and v = 0
        # at node n-1 replace the interior rows
        f = Fhat[modes] @ R.transpose(0, 2, 1)
        f[:, 0] = -(R @ Ghat[modes])[..., 0]
        f[:, n - 1] = 0.0
        at = (shell[modes] - lo, slice(None), col[modes])
        w = _solve_shells(lame_operator(lam, a, c, r[lo:hi], D, D2),
                          lame_stress_rows(a, b, r[lo:hi], D), f[..., :2], at, width)
        if nc == 3:
            w_perp = _solve_shells(azimuthal_operator(lam, a, r[lo:hi], D2), a * D[0],
                                   f[..., 2:], at, width)
            w = np.concatenate([w, w_perp], axis=-1)
        v[modes] = w @ R.conj()
    return HalfSpaceField(v.reshape(tg.mode_shape + (n, nc)), tg, ng, "spectral")


# ---------------------------------------------------------------------------
# full resolvent pipeline
# ---------------------------------------------------------------------------

@dataclass
class ResolventData:
    """(d, F, G, K): density, force, boundary stress and surface data."""

    d: HalfSpaceField
    F: HalfSpaceField
    G: BoundaryField
    K: BoundaryField


@dataclass
class ResolventSolution:
    """(eta, u, h): density, velocity and height, spectral."""

    eta: HalfSpaceField
    u: HalfSpaceField
    h: BoundaryField


def solve_reduced_resolvent(F: HalfSpaceField, G: BoundaryField, K: BoundaryField,
                            params: FluidParams, lam, *, zeta=None):
    """Velocity-height solve without the density row: the spectral (u, h).

    zeta is the effective (reduced) compressibility parameter; defaults
    to gamma3 zeta / gamma1 from params.  u = v + w, the Lame solution v
    plus the surface solution w, is summed in place in v.
    """
    tg, ng = F.tgrid, F.ngrid
    Gp = BoundaryField(spectral_values(G) / params.gamma1, tg, "spectral")
    u = solve_lame_bvp(F, Gp, params, lam, zeta=zeta)

    k_surf = BoundaryField(spectral_values(K)[..., 0] - u.values[..., 0, tg.dims], tg,
                           "spectral")
    w, h = solve_surface_homogeneous(k_surf, params, lam, ng, zeta=zeta)
    u.values += w.values
    return u, h


def solve_full_resolvent(data: ResolventData, params: FluidParams, lam) -> ResolventSolution:
    """The density-coupled free-surface resolvent on the flat half space.

    data are physical fields, which must be numerically supported inside
    the box.  Eliminates the density (effective zeta = gamma2/lambda, case
    C1), solves the stress system and the corrected surface system, then
    recovers eta = (d - gamma1 div u)/lambda with collocation divergence
    so the density row holds exactly by construction.
    """
    for fld in (data.d, data.F, data.G, data.K):
        if edge_support_ratio(fld) > EDGE_SUPPORT_TOL:
            raise SolverError("data not numerically supported inside the box")
    tg, ng = data.F.tgrid, data.F.ngrid
    g1, g2 = params.gamma1, params.gamma2
    zeta_eff = g2 / lam  # gamma3 * (1/lam) / gamma1, the C1 coupling
    dhat = spectral_values(data.d)[..., 0]

    # f = (F - gamma2 grad d / lam)/gamma1, with grad = (i xi', d_N); the
    # spectral F and grad d are dropped before the solves
    fvals = spectral_values(data.F) - (g2 / lam) * np.concatenate(
        [1j * tg.xi[..., None, :] * dhat[..., None], (dhat @ ng.diff.T)[..., None]],
        axis=-1)
    fvals /= g1
    # g = G + (gamma2/lam) d n0 at the boundary, n0 = (0, ..., 0, -1)
    gvals = spectral_values(data.G).copy()
    gvals[..., tg.dims] -= (g2 / lam) * dhat[..., 0]

    u, h = solve_reduced_resolvent(HalfSpaceField(fvals, tg, ng, "spectral"),
                                   BoundaryField(gvals, tg, "spectral"), data.K,
                                   params, lam, zeta=zeta_eff)

    uv = u.values
    div_u = uv[..., -1] @ ng.diff.T + np.sum(1j * tg.xi[..., None, :] * uv[..., :-1], axis=-1)
    eta = HalfSpaceField(((dhat - g1 * div_u) / lam)[..., None], tg, ng, "spectral")
    return ResolventSolution(eta=eta, u=u, h=h)
