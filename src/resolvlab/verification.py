"""Independent residual evaluation, discrete norms and the R-bound sampler.

The residual evaluator re-applies the free-surface system to a computed
solution with its own discretization (spectral in xi', dense collocation
in x_N) and reports volume-normalized relative residuals per equation.
It is the oracle for the solver pipeline and never reuses solver
internals beyond the grids.

The R-bound estimator samples the discrete square-function quotient

    || (sum_j |T_j f_j|^2)^(1/2) ||_q  /  || (sum_j |f_j|^2)^(1/2) ||_q

over random subfamilies, Rademacher sign assignments and test vectors;
the maximum observed quotient is a lower estimate of the R-bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import HalfSpaceField
from .halfspace import ResolventData, ResolventSolution, _require_spectral
from .regions import FluidParams


# ---------------------------------------------------------------------------
# discrete norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Integrability exponents, Sobolev order and exponential time weight.

    r of the continuous theory has no grid-level analogue and is carried
    as inert metadata when present in a run configuration.
    """

    q: float = 2.0
    p: float = 2.0
    order: int = 0
    gamma: float = 0.0

    def __post_init__(self):
        if not (1 < self.q < math.inf and 1 < self.p < math.inf):
            raise ValueError("exponents must lie in (1, inf)")
        if self.order not in (0, 1, 2):
            raise ValueError("Sobolev order supported up to 2")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def _volume_lq(values, weights, q):
    """Volume-normalized L_q: (integral |v|^q / volume)^(1/q).

    values has the quadrature axes first; remaining axes are components,
    summed in quadrature (l2 over components inside the modulus).
    """
    w = weights / weights.sum()
    mag = np.abs(values)
    if mag.ndim > w.ndim:
        mag = np.sqrt(np.sum(mag**2, axis=tuple(range(w.ndim, mag.ndim))))
    return float(np.sum(w * mag**q) ** (1.0 / q))


def _field_weights(fld):
    if isinstance(fld, HalfSpaceField):
        tw = np.full(fld.tgrid.mode_shape, fld.tgrid.dx ** fld.tgrid.dims)
        return tw[..., None] * fld.ngrid.weights
    tw = np.full(fld.tgrid.mode_shape, fld.tgrid.dx ** fld.tgrid.dims)
    return tw


def _derivative_stack(fld, order):
    """Physical-space derivative arrays up to the requested total order."""
    tg = fld.tgrid
    spectral = _require_spectral(fld).values
    ng = fld.ngrid if isinstance(fld, HalfSpaceField) else None

    def tang(v, j):
        shape = tg.xi[..., j].shape + (1,) * (v.ndim - tg.dims)
        return 1j * tg.xi[..., j].reshape(shape) * v

    def norm_d(v):
        return np.einsum("ij,...jc->...ic", ng.diff, v)

    firsts = [tang(spectral, j) for j in range(tg.dims)]
    if ng is not None:
        firsts.append(norm_d(spectral))
    out = [[spectral], firsts]
    if order >= 2:
        seconds = []
        for i, fi in enumerate(firsts):
            for j in range(i, len(firsts)):
                if j < tg.dims:
                    seconds.append(tang(fi, j))
                else:
                    seconds.append(norm_d(fi))
        out.append(seconds)
    return out[: order + 1]


def discrete_norm(fld, spec: NormSpec) -> float:
    """Quadrature L_q / Sobolev norm of a field, volume-normalized."""
    weights = _field_weights(fld)
    stacks = _derivative_stack(fld, spec.order)
    total = 0.0
    for level in stacks:
        for deriv in level:
            phys = fld.tgrid.inverse(deriv)
            total += _volume_lq(phys, weights, spec.q) ** spec.q
    return total ** (1.0 / spec.q)


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    relative: dict
    absolute: dict
    scales: dict
    worst_mode: dict


def _rel(residual, *terms, weights, q=2.0):
    scale = max(_volume_lq(t, weights, q) for t in terms)
    r = _volume_lq(residual, weights, q)
    return (r / scale if scale > 0 else 0.0), r, scale


def pde_residual(sol: ResolventSolution, data: ResolventData,
                 params: FluidParams, lam) -> ResidualReport:
    """Relative residuals of the flat free-surface system.

    Equations: density row, momentum rows, tangential and normal
    boundary-stress rows, kinematic row.  Derivatives are spectral in
    xi' and collocation in x_N, independent of the solver's internal
    closed forms.
    """
    ds = data.spectral()
    tg = ds.F.tgrid
    ng = ds.F.ngrid
    D = ng.diff
    nd = tg.dims
    mu, nu = params.mu, params.nu
    g1, g2, sg, m = params.gamma1, params.gamma2, params.sigma, params.m

    u = _require_spectral(sol.u).values
    hhat = _require_spectral(sol.h).values[..., 0]
    xi = tg.xi
    xi_sq = tg.xi_sq

    du = np.einsum("ij,...jc->...ic", D, u)
    d2u = np.einsum("ij,...jc->...ic", D, du)
    div = du[..., nd].copy()
    for j in range(nd):
        div += 1j * xi[..., j][..., None] * u[..., j]
    grad_div = np.empty_like(u)
    for j in range(nd):
        grad_div[..., j] = 1j * xi[..., j][..., None] * div
    grad_div[..., nd] = np.einsum("ij,...j->...i", D, div)
    lap = d2u - xi_sq[..., None, None] * u

    wvol = _field_weights(ds.F)
    wbdy = _field_weights(ds.G)
    report = {"relative": {}, "absolute": {}, "scales": {}, "worst": {}}

    def add(name, residual, *terms, weights):
        rel, r, scale = _rel(residual, *terms, weights=weights)
        report["relative"][name] = rel
        report["absolute"][name] = r
        report["scales"][name] = scale
        flat = np.abs(residual).reshape(tg.mode_shape + (-1,)).max(axis=-1)
        report["worst"][name] = [int(v) for v in
                                 np.unravel_index(int(flat.argmax()), flat.shape)]

    if sol.eta is not None and ds.d is not None:
        eta = _require_spectral(sol.eta).values[..., 0]
        dhat = ds.d.values[..., 0]
        r_density = lam * eta + g1 * div - dhat
        add("density", r_density, lam * eta, g1 * div, dhat, weights=wvol)

        grad_eta = np.empty_like(u)
        for j in range(nd):
            grad_eta[..., j] = 1j * xi[..., j][..., None] * eta
        grad_eta[..., nd] = eta @ D.T
        r_mom = g1 * lam * u - mu * lap - nu * grad_div + g2 * grad_eta - ds.F.values
        add("momentum", r_mom, g1 * lam * u, mu * lap, nu * grad_div,
            g2 * grad_eta, ds.F.values, weights=wvol)
        eta0 = eta[..., 0]
    else:
        # reduced system: lam u - Div(S(u) + zeta gamma3 div u I)/gamma1 = F
        zg3 = params.gamma3 * params.zeta
        r_mom = lam * u - (mu * lap + nu * grad_div + zg3 * grad_div) / g1 - ds.F.values
        add("momentum", r_mom, lam * u, mu * lap / g1, nu * grad_div / g1,
            ds.F.values, weights=wvol)
        eta0 = None

    # boundary rows at x_N = 0, outward normal n0 = -e_N
    du0 = du[..., 0, :]
    u0 = u[..., 0, :]
    div0 = div[..., 0]
    r_tang = np.empty(tg.mode_shape + (nd,), dtype=complex)
    for j in range(nd):
        sjN = mu * (du0[..., j] + 1j * xi[..., j] * u0[..., nd])
        r_tang[..., j] = -sjN - ds.G.values[..., j]
    add("stress_tangential", r_tang, r_tang + ds.G.values[..., :nd],
        ds.G.values[..., :nd], weights=wbdy)

    sNN = 2 * mu * du0[..., nd] + (nu - mu) * div0
    if eta0 is not None:
        sNN = sNN - g2 * eta0
    else:
        sNN = sNN + params.gamma3 * params.zeta * div0
    surf = sg * (m + xi_sq) * hhat
    r_norm = -(sNN + surf) - ds.G.values[..., nd]
    add("stress_normal", r_norm, sNN, surf, ds.G.values[..., nd], weights=wbdy)

    r_kin = lam * hhat + u0[..., nd] - ds.K.values[..., 0]
    add("kinematic", r_kin, lam * hhat, u0[..., nd], ds.K.values[..., 0],
        weights=wbdy)

    return ResidualReport(relative=report["relative"], absolute=report["absolute"],
                          scales=report["scales"], worst_mode=report["worst"])


# ---------------------------------------------------------------------------
# R-bound estimation
# ---------------------------------------------------------------------------

@dataclass
class RBoundReport:
    family_label: str
    n_operators: int
    trials: int
    estimate: float
    max_singleton: float
    band: tuple
    q: float
    seed: int


def _lq_mean(v, q):
    return float(np.mean(np.abs(v) ** q) ** (1.0 / q))


def _square_function_quotient(ops, vecs, q):
    num = den = 0.0
    for op, f in zip(ops, vecs):
        num = num + np.abs(np.asarray(op(f))) ** 2
        den = den + np.abs(np.asarray(f)) ** 2
    dq = _lq_mean(np.sqrt(den), q)
    if dq == 0:
        return 0.0
    return _lq_mean(np.sqrt(num), q) / dq


def rbound_estimate(family, test_vectors, trials: int = 200, seed: int = 0,
                    q: float = 2.0, label: str = "") -> RBoundReport:
    """Lower estimate of the R-bound via sampled square-function quotients.

    family: list of (lam, operator) pairs; operators map a fixed input
    grid to a fixed output grid.  Per trial, each operator independently
    draws a Rademacher inclusion sign and a test vector from a substream
    keyed by (seed, trial, operator index), so restricting the family
    restricts the battery.  All singleton quotients are always included,
    which makes the estimate exact for scalar multiples of a common
    operator and >= the measured single-operator norm in general.
    """
    if not family:
        raise ValueError("family must not be empty")
    if trials < 1:
        raise ValueError("at least one trial required")
    ops = [op for _, op in family]
    vecs = [np.asarray(v, dtype=complex) for v in test_vectors]
    if not vecs:
        raise ValueError("need at least one test vector")

    singles = [_square_function_quotient([op], [v], q) for op in ops for v in vecs]
    best = max(singles)
    max_singleton = best

    trial_quotients = []
    for t in range(trials):
        chosen_ops, chosen_vecs = [], []
        for j in range(len(ops)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j]))
            include = rng.integers(0, 2) == 1
            sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
            vec = vecs[rng.integers(0, len(vecs))]
            if include:
                chosen_ops.append(ops[j])
                chosen_vecs.append(sign * vec)
        if chosen_ops:
            quot = _square_function_quotient(chosen_ops, chosen_vecs, q)
            trial_quotients.append(quot)
            best = max(best, quot)
        full_vecs = []
        for j in range(len(ops)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j, 1]))
            sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
            full_vecs.append(sign * vecs[rng.integers(0, len(vecs))])
        quot = _square_function_quotient(ops, full_vecs, q)
        trial_quotients.append(quot)
        best = max(best, quot)

    tq = np.asarray(trial_quotients)
    band = (float(np.quantile(tq, 0.05)), float(np.quantile(tq, 0.95)))
    return RBoundReport(family_label=label, n_operators=len(ops), trials=trials,
                        estimate=best, max_singleton=max_singleton, band=band,
                        q=q, seed=seed)
