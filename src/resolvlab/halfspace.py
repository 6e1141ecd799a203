"""Half-space resolvent solvers.

Three runtime layers, each per tangential Fourier mode.  Each takes its
input fields in either tangential space (grids.spectral_values reads
them) and returns spectral fields:

  * solve_surface_homogeneous - the explicit boundary-symbol formulas for
    the surface-coupled homogeneous system: h's trace is (det L / N) k,
    the velocity profiles are combinations of exp(-B x) and the mollified
    exponential M weighted by the n_Jk symbols.  surface_mode_profiles
    adds the profile u, PROFILE_BLOCK_MODES modes at a time, into an array
    of its caller's: zeros here, the Lame solution in the full solve.  No
    x-derivative of u is formed.
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
    complex LU's flops.  A batch holds about 0.6 MB of blocks: 2 real
    shells at 96 nodes, 8 at 48.  The solution overwrites the solve's own
    spectral data batch by batch, after each batch has gathered its data;
    a caller's spectral field is copied first.  The evolution generator
    takes its velocity block and stress rows from the same pair, in its
    real variables u_r = i w_r.
  * solve_full_resolvent - density elimination in the spectral buffer of
    F, the Lame solve over that buffer, the surface correction K - v_N,
    superposition u = v + w (surface_mode_profiles adds w into the Lame
    solution v) and density recovery.  The solution keeps eta, u and h
    only; extend_height extends h into the half space.

The first layer's oracle lives in the tests: a hypothesis property in
tests/test_halfspace.py differentiates the profiles by collocation and
holds every row of the surface system (the interior PDE rows, the stress
rows at x = 0 and the kinematic row) to 1e-8 over drawn fluids, zeta
cases and lambda in Gamma with |lambda| in [0.1, 1e4].
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
    njk_values,
    q_values,
)

EDGE_SUPPORT_TOL = 1e-10
# modes per block of the surface profiles
PROFILE_BLOCK_MODES = 16
# shells per Lame batch: as many as fit their 2n blocks in LAME_BATCH_BYTES,
# 2 real shells (0.59 MB) at 96 nodes, 8 at 48
LAME_BATCH_BYTES = 600_000


class SolverError(NumericalError, RuntimeError):
    pass


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
                          p: SymbolParams, khat, out):
    """Add the spectral solution profiles u(x) into out; return the h trace.

    khat holds the per-mode boundary values of the surface datum and out
    is the caller's (modes, nx, N) array.  The profiles are formed
    PROFILE_BLOCK_MODES flat modes at a time: E = exp(-B x), M and their
    products with the coefficients exist for one block only.  Each
    product keeps its operand order, so the values do not depend on the
    block size.
    """
    xi_sq = tgrid.xi_sq
    L = lopatinski_values(lam, xi_sq, p)
    A, B = L.A, L.B
    nt1, nt2, nN1, nN2 = njk_values(L, q_values(lam, xi_sq, p, core=(A, B))[0], tgrid.xi, p)

    # the per-mode coefficients, with the mode axes flattened
    nm, nd = khat.size, tgrid.dims
    mxi2 = (p.m + xi_sq).reshape(nm, 1)
    kb = khat.reshape(nm, 1)
    c1 = nt1.reshape(nm, 1, nd) * mxi2[..., None] * kb[..., None]
    c2 = nt2.reshape(nm, 1, nd) * mxi2[..., None] * kb[..., None]
    cN1 = nN1.reshape(nm, 1) * mxi2 * kb
    cN2 = nN2.reshape(nm, 1) * mxi2 * kb
    A, B = A.reshape(nm, 1), B.reshape(nm, 1)
    x = ngrid.nodes
    for lo in range(0, nm, PROFILE_BLOCK_MODES):
        b = slice(lo, lo + PROFILE_BLOCK_MODES)
        Bx = B[b]
        E = np.exp(-Bx * x)
        M = mollified_exp(A[b], Bx, x)
        ub = np.empty(Bx.shape[:1] + x.shape + (nd + 1,), dtype=complex)
        ub[..., :-1] = c1[b] * (Bx * M - E)[..., None]
        ub[..., :-1] += c2[b] * E[..., None]
        ub[..., -1] = cN1[b] * Bx * M + cN2[b] * E
        out[b] += ub
    return (L.detL / L.N) * khat


def solve_surface_homogeneous(k: BoundaryField, params: FluidParams, lam,
                              ngrid: NormalGrid, *, zeta=None):
    """Surface-driven solve: returns the spectral (u, h-trace)."""
    p = SymbolParams.from_fluid(params, zeta=zeta)
    khat = spectral_values(k)[..., 0]
    u = np.zeros((khat.size, ngrid.points, k.tgrid.dims + 1), dtype=complex)
    hhat = surface_mode_profiles(lam, k.tgrid, ngrid, p, khat, u)
    return (HalfSpaceField(u.reshape(khat.shape + u.shape[1:]), k.tgrid, ngrid, "spectral"),
            BoundaryField(hhat, k.tgrid, "spectral"))


def extend_height(hhat_boundary, tgrid: TangentialGrid, ngrid: NormalGrid):
    """phi(x) * exp(-|xi| x) extension of the height trace into the half space."""
    xi_norm = np.sqrt(tgrid.xi_sq)[..., None]
    x = ngrid.nodes
    vals = smooth_cutoff(x) * np.exp(-xi_norm * x) * hhat_boundary[..., None]
    return HalfSpaceField(vals[..., None], tgrid, ngrid, "spectral")


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
    a v_perp' = -G'_perp.  Each shell's blocks are factored once, in
    batches bounded by LAME_BATCH_BYTES, with the shell's modes as the
    columns of one right-hand side; for real lam and zeta the blocks are
    real.  The solution is turned back and written over the data's modes.
    F and Gprime are not changed.
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
    # v is written over the data, so the data must be the solve's own: the
    # forward transform of physical F, the reduced force of
    # solve_full_resolvent, or else a copy
    v = spectral_values(F)
    if v is F.values and not isinstance(F, _ReducedForce):
        v = v.copy()
    v = v.reshape(nm, n, nc)
    Ghat = spectral_values(Gprime).reshape(nm, nc, 1)
    r = (np.pi / tg.half_length) * np.sqrt(keys)
    # modes sorted by shell; col is each mode's column in its shell's rhs.
    # Every rhs has the same width, so a shell's solve does not see the batching.
    order = np.argsort(shell, kind="stable")
    first = np.searchsorted(shell[order], np.arange(keys.size + 1))
    col = np.empty_like(shell)
    col[order] = np.arange(nm) - first[shell[order]]
    width = int(col.max()) + 1

    batch = max(1, LAME_BATCH_BYTES // ((2 * n) ** 2 * coef.itemsize))
    for lo in range(0, keys.size, batch):
        hi = min(lo + batch, keys.size)
        modes = order[first[lo]:first[hi]]
        R = rot[modes]
        # the data in the shell's frame, gathered before the batch's solution
        # overwrites them; the stress data at node 0 and v = 0 at node n-1
        # replace the interior rows
        f = v[modes] @ R.transpose(0, 2, 1)
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


class _ReducedForce(HalfSpaceField):
    """The spectral force that solve_full_resolvent forms and no caller holds.

    solve_lame_bvp writes its solution over these values instead of a copy.
    """


def solve_reduced_resolvent(F: HalfSpaceField, G: BoundaryField, K: BoundaryField,
                            params: FluidParams, lam, *, zeta=None):
    """Velocity-height solve without the density row: the spectral (u, h).

    zeta is the effective (reduced) compressibility parameter; defaults
    to gamma3 zeta / gamma1 from params.  u = v + w, the Lame solution v
    plus the surface solution w for the datum K - v_N, which
    surface_mode_profiles adds into v.
    """
    tg, ng = F.tgrid, F.ngrid
    Gp = BoundaryField(spectral_values(G) / params.gamma1, tg, "spectral")
    u = solve_lame_bvp(F, Gp, params, lam, zeta=zeta)

    khat = spectral_values(K)[..., 0] - u.values[..., 0, tg.dims]
    hhat = surface_mode_profiles(lam, tg, ng, SymbolParams.from_fluid(params, zeta=zeta), khat,
                                 u.values.reshape(khat.size, ng.points, tg.dims + 1))
    return u, BoundaryField(hhat, tg, "spectral")


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
    nd = tg.dims
    g1, g2 = params.gamma1, params.gamma2
    zeta_eff = g2 / lam  # gamma3 * (1/lam) / gamma1, the C1 coupling
    dhat = spectral_values(data.d)[..., 0]
    ixi = 1j * tg.xi

    # f = (F - gamma2 grad d / lam)/gamma1, with grad = (i xi', d_N), formed
    # one component at a time in the spectral buffer of F: F is physical, so
    # that buffer is a new array
    fvals = spectral_values(data.F)
    for j in range(nd):
        fvals[..., j] -= (g2 / lam) * (ixi[..., j, None] * dhat)
    fvals[..., nd] -= (g2 / lam) * (dhat @ ng.diff.T)
    fvals /= g1
    # g = G + (gamma2/lam) d n0 at the boundary, n0 = (0, ..., 0, -1)
    gvals = spectral_values(data.G).copy()
    gvals[..., nd] -= (g2 / lam) * dhat[..., 0]

    u, h = solve_reduced_resolvent(_ReducedForce(fvals, tg, ng, "spectral"),
                                   BoundaryField(gvals, tg, "spectral"), data.K,
                                   params, lam, zeta=zeta_eff)

    uv = u.values
    tang = ixi[..., 0, None] * uv[..., 0]
    for j in range(1, nd):
        tang += ixi[..., j, None] * uv[..., j]
    div_u = uv[..., nd] @ ng.diff.T
    div_u += tang
    eta = HalfSpaceField(((dhat - g1 * div_u) / lam)[..., None], tg, ng, "spectral")
    return ResolventSolution(eta=eta, u=u, h=h)
