"""Bent-half-space solver: graph diffeomorphism, pullback, Neumann series.

The curved domain is the image of the flat half space (N = 2) under the
shear map

    Phi(xi) = (xi_1, xi_2 + b(xi_1)),    b(s) = a exp(-s^2 / width^2),

whose Jacobian splits as identity + compactly supported perturbation.
Fields on the curved domain are stored terrain-following, i.e. as arrays
over the flat grid sampled at Phi(grid), so composition with Phi and
Phi^-1 along the flat grid is re-indexing.  Curved-domain data are
callables, evaluated at the terrain points once per solve (sample_data).

The transformed system is the flat one plus perturbation operators that
are all weighted by the Jacobian perturbation (first fundamental form,
Christoffel term, normal tilt).  A data-space fixed point

    Z  <-  Z0 - F_lam R(lam) Z

with the flat solver inside converges geometrically once the measured
contraction ratio is below one; the solution is pushed forward and the
curved-domain residual evaluated in physical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalError
from .grids import (BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid,
                    discrete_norm, physical_values, spectral_values)
from .halfspace import solve_reduced_resolvent
from .regions import FluidParams


class GeometryError(NumericalError, ValueError):
    pass


class DivergenceError(NumericalError, RuntimeError):
    """The Neumann iteration stopped contracting."""

    def __init__(self, msg, ratio):
        super().__init__(msg)
        self.ratio = ratio


@dataclass(frozen=True)
class DiffeoSpec:
    """Gaussian-bump graph diffeomorphism of the half plane."""

    amplitude: float = 0.05
    width: float = 2.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def bump(self, s):
        return self.amplitude * np.exp(-np.asarray(s) ** 2 / self.width**2)

    def bump_d1(self, s):
        s = np.asarray(s)
        return -2.0 * s / self.width**2 * self.bump(s)

    def bump_d2(self, s):
        s = np.asarray(s)
        return (4 * s**2 / self.width**4 - 2 / self.width**2) * self.bump(s)

    def forward(self, xi1, xi2):
        return xi1, xi2 + self.bump(xi1)

    @property
    def m1(self) -> float:
        # sup |b'| at s = width/sqrt(2)
        return abs(self.amplitude) * math.sqrt(2.0 / math.e) / self.width


@dataclass
class SurfaceGeometry:
    """First fundamental form and derived quantities on the boundary curve."""

    ginv11: np.ndarray        # g^11 = 1 / (1 + b'^2)
    christoffel: np.ndarray   # Lambda^1_11
    gtilde11: np.ndarray      # g^11 - 1
    normal: np.ndarray        # outward unit normal, shape (n, 2)
    jac_norm: np.ndarray      # |A_Phi n0| = sqrt(1 + b'^2)
    bp: np.ndarray            # b' on the tangential grid


def build_geometry(spec: DiffeoSpec, tgrid: TangentialGrid) -> SurfaceGeometry:
    """Analytic geometry of the bump graph; rejects slopes with M1 >= 1."""
    if spec.m1 >= 1.0:
        raise GeometryError(f"bump too steep: sup|b'| = {spec.m1:.3f} >= 1")
    s = tgrid.x
    bp = spec.bump_d1(s)
    bpp = spec.bump_d2(s)
    g11 = 1.0 + bp**2
    ginv11 = 1.0 / g11
    jac = np.sqrt(g11)
    normal = np.stack([bp / jac, -1.0 / jac], axis=-1)
    return SurfaceGeometry(
        ginv11=ginv11, christoffel=bpp * bp * ginv11,
        gtilde11=ginv11 - 1.0, normal=normal, jac_norm=jac, bp=bp)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def sample_data(f, g, k, spec: DiffeoSpec, tgrid: TangentialGrid, ngrid: NormalGrid):
    """Callable curved-domain data at the terrain points, components last.

    f is evaluated at Phi(grid), g and k on the boundary curve (x1, b(x1)).
    """
    x1 = tgrid.x
    X1 = np.broadcast_to(x1[:, None], (tgrid.points, ngrid.points))
    T1, T2 = spec.forward(X1, np.broadcast_to(ngrid.nodes[None, :], X1.shape))
    b = spec.bump(x1)
    fv = np.asarray(f(T1, T2), dtype=complex)
    gb = np.asarray(g(x1, b), dtype=complex)
    kb = np.asarray(k(x1, b), dtype=complex)[..., None]
    return fv, gb, kb


def pullback_data(samples, geom: SurfaceGeometry, tgrid: TangentialGrid,
                  ngrid: NormalGrid):
    """(F+, G+, K+) on the flat half space from sample_data's (f, g, k)."""
    fv, gb, kb = samples
    # A_- is the identity for the shear map; only the area factor enters g
    return (HalfSpaceField(fv, tgrid, ngrid), BoundaryField(geom.jac_norm[:, None] * gb, tgrid),
            BoundaryField(kb, tgrid))


# ---------------------------------------------------------------------------
# perturbation operators
# ---------------------------------------------------------------------------

def _tangential_d(tgrid, phys):
    """d/d xi_1 of a physical-space array via the FFT."""
    spec = tgrid.forward(phys)
    shape = tgrid.xi[..., 0].shape + (1,) * (phys.ndim - tgrid.dims)
    return tgrid.inverse(1j * tgrid.xi[..., 0].reshape(shape) * spec)


def _matmul(Xm, Ym):
    return np.einsum("ik...,kj...->ij...", Xm, Ym)


def _transpose(Xm):
    return np.einsum("ij...->ji...", Xm)


def _tensor_split(wp, geom: SurfaceGeometry, params: FluidParams,
                  tg: TangentialGrid, ng: NormalGrid):
    """Jw, div w, S(w), A_Phi and F(w) = F1 + F2 of a physical-space iterate.

    Jw[i, j] = d_i w_j; every tensor is indexed (i, j, modes, nodes).
    B_- = A_Phi - I has the single entry -b' at (0, 1).
    """
    mu, nu = params.mu, params.nu
    zg3 = complex(params.zeta) * params.gamma3
    bp = geom.bp[:, None]

    J = np.empty((2, 2) + wp.shape[:-1], dtype=complex)
    for j in range(2):
        J[0, j] = _tangential_d(tg, wp[..., j])
        J[1, j] = wp[..., j] @ ng.diff.T

    divw = J[0, 0] + J[1, 1]
    trBJ = -bp * J[1, 0]          # tr(B_- Jw): only (0,1) entry of B_- is -b'

    # S(w), then F = F1 + F2 with the trace pairing for ':'
    S = np.empty_like(J)
    for i in range(2):
        for j in range(2):
            S[i, j] = mu * (J[i, j] + J[j, i])
        S[i, i] += (nu - mu) * divw

    Aphi = np.zeros_like(J)
    Aphi[0, 0] = 1.0
    Aphi[1, 1] = 1.0
    Aphi[0, 1] = -bp

    Bm = np.zeros_like(J)
    Bm[0, 1] = -bp * np.ones_like(divw)

    BJ = _matmul(Bm, J)
    JtBt = _matmul(_transpose(J), _transpose(Bm))
    F1 = _matmul(S, Bm) + mu * _matmul(BJ + JtBt, Aphi)
    for i in range(2):
        for j in range(2):
            F1[i, j] += (nu - mu) * trBJ * Aphi[i, j]
    F2 = np.zeros_like(F1)
    if zg3 != 0:
        F2 += zg3 * divw * Bm
        for i in range(2):
            for j in range(2):
                F2[i, j] += zg3 * trBJ * Aphi[i, j]
    return J, divw, S, Aphi, F1 + F2


def apply_perturbation(w: HalfSpaceField, H: BoundaryField, geom: SurfaceGeometry,
                       params: FluidParams):
    """Perturbation data triple (R1, R2, R3), physical, of the iterate (w, H).

    w and H may be in either tangential space; the operators act on their
    physical values.  R1 collects the interior terms -Div F(w)/gamma1
    (+ F0(w) Div A_Phi, which vanishes identically for the shear map since
    A_Phi's rows are divergence-free); R2 the boundary stress tilt
    F(w) n0 + G_b(H) n0; R3 the kinematic normal tilt.  gamma1, gamma3 are constant here, so
    the gamma-deviation terms of the printed operators drop.
    """
    tg, ng = w.tgrid, w.ngrid
    wp = physical_values(w)
    Hp = physical_values(H)[..., 0]
    g1 = params.gamma1
    _, _, _, _, F = _tensor_split(wp, geom, params, tg, ng)

    # R1 = -(Div F)/gamma1; the F0 Div(A_Phi) term is identically zero here
    R1 = np.empty(wp.shape, dtype=complex)
    for i in range(2):
        R1[..., i] = -(_tangential_d(tg, F[i, 0]) + F[i, 1] @ ng.diff.T) / g1

    # R2 = (F(w) + G_b(H)) n0 at the boundary; n0 = (0,-1) picks -column 2
    dH = _tangential_d(tg, Hp)
    d2H = _tangential_d(tg, dH)
    lb_full = geom.ginv11 * d2H - geom.ginv11 * geom.christoffel * dH
    calG = geom.gtilde11 * d2H - geom.ginv11 * geom.christoffel * dH
    sg, m = params.sigma, params.m
    bp0 = geom.bp
    # G_b = sg m H B_- - sg calG I - sg lb_full B_-; (M n0)_i = -M[i, 1]
    Gb_col2 = np.stack([(sg * m * Hp - sg * lb_full) * (-bp0),
                        -sg * calG], axis=-1)
    F_col2 = np.stack([F[0, 1][..., 0], F[1, 1][..., 0]], axis=-1)
    R2 = -(F_col2 + Gb_col2)

    # R3 = F3(w) . n0 = -[(1 - 1/s) w_2 - (1/s)(B_-^T w)_2] at the boundary
    s = geom.jac_norm
    w0 = wp[:, 0, :]
    R3 = -((1.0 - 1.0 / s) * w0[:, 1] - (1.0 / s) * (-bp0) * w0[:, 0])

    return (HalfSpaceField(R1, tg, ng, "physical"),
            BoundaryField(R2, tg, "physical"),
            BoundaryField(R3, tg, "physical"))


def consistency_gap(w: HalfSpaceField, spec: DiffeoSpec, params: FluidParams):
    """Max deviation of F0(w) A_Phi - S(w) - zeta g3 div w I - F(w) from zero.

    Transcription check of the printed tensor split, on the F(w) that
    apply_perturbation uses, at a physical w; exact algebra, so the gap
    only carries the differentiation roundoff.
    """
    tg, ng = w.tgrid, w.ngrid
    wp = w.values
    mu, nu = params.mu, params.nu
    zg3 = complex(params.zeta) * params.gamma3
    geom = build_geometry(spec, tg)
    J, divw, S, Aphi, F = _tensor_split(wp, geom, params, tg, ng)

    AJ = _matmul(Aphi, J)
    trAJ = AJ[0, 0] + AJ[1, 1]
    F0 = mu * (AJ + _transpose(AJ))
    for i in range(2):
        F0[i, i] += (nu - mu + zg3) * trAJ

    lhs = _matmul(F0, Aphi)
    rhs = S.copy()
    for i in range(2):
        rhs[i, i] += zg3 * divw
    gap = np.abs(lhs - rhs - F)
    scale = max(float(np.abs(lhs).max()), 1e-300)
    return float(gap.max()) / scale


# ---------------------------------------------------------------------------
# Neumann iteration
# ---------------------------------------------------------------------------

@dataclass
class PerturbationState:
    update_norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    residuals: dict = field(default_factory=dict)


def data_norm(F: HalfSpaceField, G: BoundaryField, K: BoundaryField, lam) -> float:
    """lambda-weighted data norm ||F|| + |lam|^1/2 ||G|| + ||G||_1 + ||K||_2.

    Boundary Sobolev norms act tangentially through (1 + |xi|^2)^(k/2)
    multipliers at q = 2; ||F|| and ||G|| are L^2 norms of the values.
    """
    tg = G.tgrid
    mult = np.sqrt(1.0 + tg.xi_sq)[..., None]

    def sobolev(fld, k):
        return discrete_norm(replace(fld, values=mult**k * spectral_values(fld),
                                     space="spectral"))

    return (discrete_norm(F) + math.sqrt(abs(lam)) * discrete_norm(G) + sobolev(G, 1)
            + sobolev(K, 2))


def _perturb_of_data(Z, geom, params, lam):
    """F_lam R(lam) Z: the perturbation of the flat solution of the data triple Z."""
    u, h = solve_reduced_resolvent(*Z, params, lam)
    return apply_perturbation(u, h, geom, params)


def _with_values(fields, values):
    """The fields, each on its own grids, holding the given physical values."""
    return tuple(replace(fld, values=v, space="physical") for fld, v in zip(fields, values))


def neumann_solve(f, g, k, spec: DiffeoSpec, params: FluidParams, lam,
                  tgrid: TangentialGrid, ngrid: NormalGrid, *,
                  max_iter: int = 40, tol: float = 1e-10):
    """Fixed-point solve of the curved-domain problem via the flat solver.

    Returns (v, h, state) with v, h physical and terrain-following on the
    flat grid: the composition with Phi^-1 is re-indexing, and A_- = I for
    the shear map, so the flat solution's arrays carry over unchanged.  The
    data are sampled and the geometry built once.  Stops once the update
    norm is <= tol x the data norm (zero data: at once); raises
    DivergenceError when the last three update ratios are all >= 1.
    """
    geom = build_geometry(spec, tgrid)
    samples = sample_data(f, g, k, spec, tgrid, ngrid)
    Z = Z0 = pullback_data(samples, geom, tgrid, ngrid)
    z0_norm = data_norm(*Z0, lam)
    state = PerturbationState()

    for it in range(1, max_iter + 1):
        R = _perturb_of_data(Z, geom, params, lam)
        Zn = _with_values(Z0, [z0.values - r.values for z0, r in zip(Z0, R)])
        upd = data_norm(*_with_values(Z, [n.values - z.values for n, z in zip(Zn, Z)]), lam)
        state.update_norms.append(upd)
        state.iterations = it
        if it > 1 and state.update_norms[-2] > 0:
            state.ratios.append(upd / state.update_norms[-2])
            # a NaN ratio is not >= 1, so it ends the streak
            if len(state.ratios) >= 3 and all(r >= 1.0 for r in state.ratios[-3:]):
                raise DivergenceError(f"no contraction after {it} iterations",
                                      state.ratios[-1])
        Z = Zn
        if upd <= tol * z0_norm:
            state.converged = True
            break

    sol = solve_reduced_resolvent(*Z, params, lam)
    v, h = _with_values(sol, [physical_values(fld) for fld in sol])
    state.residuals = bent_residual(v, h, samples, geom, params, lam)
    return v, h, state


def contraction_ratio(spec: DiffeoSpec, params: FluidParams, lam,
                      tgrid: TangentialGrid, ngrid: NormalGrid, *,
                      n_probes: int = 8, seed: int = 0) -> float:
    """Measured operator-norm proxy max ||F_lam R(lam) Z|| / ||Z||."""
    geom = build_geometry(spec, tgrid)
    rng = np.random.default_rng(seed)
    x = tgrid.x
    t = ngrid.nodes
    envelope = np.exp(-(x[:, None] ** 2) / 8.0) * np.exp(-t[None, :] / 4.0)
    worst = 0.0
    for _ in range(n_probes):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        Fv = np.stack([c[0] * envelope, c[1] * envelope], axis=-1)
        Gv = np.stack([c[2] * envelope[:, 0], c[3] * envelope[:, 0]], axis=-1)
        Kv = c[4] * envelope[:, 0]
        Z = (HalfSpaceField(Fv, tgrid, ngrid), BoundaryField(Gv, tgrid),
             BoundaryField(Kv, tgrid))
        num = data_norm(*_perturb_of_data(Z, geom, params, lam), lam)
        worst = max(worst, num / data_norm(*Z, lam))
    return worst


# ---------------------------------------------------------------------------
# physical-coordinate residual
# ---------------------------------------------------------------------------

def bent_residual(v: HalfSpaceField, h: BoundaryField, samples,
                  geom: SurfaceGeometry, params: FluidParams, lam) -> dict:
    """Relative residuals of the curved-domain system at Phi(grid).

    samples are sample_data's (f, g, k).  x-derivatives are assembled by the
    chain rule d_x1 = d_1 - b' d_2, d_x2 = d_2 on the terrain-following grid.
    """
    tgrid, ngrid = v.tgrid, v.ngrid
    bp = geom.bp[:, None]
    vp = v.values
    Hp = h.values[..., 0]
    mu, nu = params.mu, params.nu
    g1 = params.gamma1
    zg3 = complex(params.zeta) * params.gamma3

    def dx(q, axis):
        d2 = q @ ngrid.diff.T
        if axis == 1:
            return d2
        return _tangential_d(tgrid, q) - bp * d2

    Dv = np.empty((2, 2) + vp.shape[:-1], dtype=complex)
    for i in range(2):
        for j in range(2):
            Dv[i, j] = dx(vp[..., j], i)
    divv = Dv[0, 0] + Dv[1, 1]

    # Div_x(S(v) + zg3 div I): mu lap v_j + (nu - mu + zg3) d_j div + mu d_j div
    lap = np.empty(vp.shape, dtype=complex)
    graddiv = np.empty_like(lap)
    for j in range(2):
        lap[..., j] = dx(Dv[0, j], 0) + dx(Dv[1, j], 1)
        graddiv[..., j] = dx(divv, j)

    fv, gb, kb = samples

    r_int = (lam * vp - (mu * lap + (nu + zg3) * graddiv) / g1 - fv)

    # boundary rows at xi_2 = 0 with the true outward normal
    nrm = geom.normal
    Sb = np.empty((tgrid.points, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            Sb[:, i, j] = mu * (Dv[i, j][:, 0] + Dv[j, i][:, 0])
        Sb[:, i, i] += (nu - mu + zg3) * divv[:, 0]
    dH = _tangential_d(tgrid, Hp)
    d2H = _tangential_d(tgrid, dH)
    lb = geom.ginv11 * d2H - geom.ginv11 * geom.christoffel * dH
    surf = params.sigma * (params.m * Hp - lb)
    r_stress = np.einsum("nij,nj->ni", Sb, nrm) + surf[:, None] * nrm - gb
    r_kin = lam * Hp - np.einsum("ni,ni->n", vp[:, 0, :], nrm) - kb[..., 0]

    def rel(res, *scales):
        top = float(np.max(np.abs(res)))
        bottom = max(float(np.max(np.abs(s))) for s in scales)
        return top / bottom if bottom > 0 else 0.0

    return {
        "interior": rel(r_int, lam * vp, fv, (mu / g1) * lap),
        "stress": rel(r_stress, Sb, surf[:, None] * nrm, gb),
        "kinematic": rel(r_kin, lam * Hp, vp[:, 0, :], kb),
    }
