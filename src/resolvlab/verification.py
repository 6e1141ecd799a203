"""Independent residual evaluation, discrete norms and the R-bound sampler.

The residual evaluator re-applies the free-surface system to a computed
solution with its own discretization (spectral in xi', dense collocation
in x_N) and reports volume-normalized relative residuals per equation.
It is the oracle for the solver pipeline and never reuses solver
internals beyond the grids.

The R-bound estimator samples the discrete square-function quotient

    || (sum_j |T_j f_j|^2)^(1/2) ||_2  /  || (sum_j |f_j|^2)^(1/2) ||_2

over random subfamilies, Rademacher sign assignments and test vectors;
the maximum observed quotient is a lower estimate of the R-bound.  The
rbound command computes the l2 R-bound exactly, as the largest per-mode
norm of its family (in a Hilbert space the R-bound is the sup of the
norms); the sampler is the oracle of that value: it never exceeds it,
and reaches it on the maximising mode's unit vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import HalfSpaceField
from .halfspace import ResolventData, ResolventSolution, _require_spectral
from .regions import FluidParams


# ---------------------------------------------------------------------------
# discrete norms
# ---------------------------------------------------------------------------

def _volume_l2(values, weights):
    """Volume-normalized L_2: (integral |v|^2 / volume)^(1/2).

    values has the quadrature axes first; remaining axes are components,
    summed in quadrature (l2 over components inside the modulus).
    """
    w = weights / weights.sum()
    mag = np.abs(values)
    if mag.ndim > w.ndim:
        mag = np.sqrt(np.sum(mag**2, axis=tuple(range(w.ndim, mag.ndim))))
    return float(np.sum(w * mag**2) ** 0.5)


def _field_weights(fld):
    tw = np.full(fld.tgrid.mode_shape, fld.tgrid.dx ** fld.tgrid.dims)
    if isinstance(fld, HalfSpaceField):
        return tw[..., None] * fld.ngrid.weights
    return tw


def discrete_norm(fld) -> float:
    """Volume-normalized quadrature L_2 norm of the field's physical values."""
    phys = fld.values if fld.space == "physical" else fld.tgrid.inverse(fld.values)
    return _volume_l2(phys, _field_weights(fld))


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    relative: dict
    worst_mode: dict


def _rel(residual, *terms, weights):
    scale = max(_volume_l2(t, weights) for t in terms)
    r = _volume_l2(residual, weights)
    return r / scale if scale > 0 else 0.0


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

    du = D @ u
    d2u = D @ du
    div = du[..., nd].copy()
    for j in range(nd):
        div += 1j * xi[..., j][..., None] * u[..., j]
    grad_div = np.empty_like(u)
    for j in range(nd):
        grad_div[..., j] = 1j * xi[..., j][..., None] * div
    grad_div[..., nd] = div @ D.T
    lap = d2u - xi_sq[..., None, None] * u

    wvol = _field_weights(ds.F)
    wbdy = _field_weights(ds.G)
    report = {"relative": {}, "worst": {}}

    def add(name, residual, *terms, weights):
        report["relative"][name] = _rel(residual, *terms, weights=weights)
        peak = np.abs(residual).reshape(tg.mode_shape + (-1,)).max(axis=-1)
        # the modes +-xi' carry equal residuals on real data, up to the last
        # bit: fold each with its mirror so that a pair reports its first
        # index in C order
        peak = np.maximum(peak, peak[np.ix_(*[-np.arange(n) % n for n in peak.shape])])
        report["worst"][name] = [int(v) for v in
                                 np.unravel_index(int(peak.argmax()), peak.shape)]

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

    sNN = 2 * mu * du0[..., nd] + (nu - mu) * div0 - g2 * eta[..., 0]
    surf = sg * (m + xi_sq) * hhat
    r_norm = -(sNN + surf) - ds.G.values[..., nd]
    add("stress_normal", r_norm, sNN, surf, ds.G.values[..., nd], weights=wbdy)

    r_kin = lam * hhat + u0[..., nd] - ds.K.values[..., 0]
    add("kinematic", r_kin, lam * hhat, u0[..., nd], ds.K.values[..., 0],
        weights=wbdy)

    return ResidualReport(relative=report["relative"], worst_mode=report["worst"])


# ---------------------------------------------------------------------------
# R-bound estimation
# ---------------------------------------------------------------------------

@dataclass
class RBoundReport:
    estimate: float
    band: tuple


def _l2_mean(v):
    return float(np.mean(np.abs(v) ** 2) ** 0.5)


class _SquaredImages:
    """|T_j v_k|^2 and |v_k|^2 of a linear family, each computed at most once.

    T_j(-v) = -T_j(v) exactly, so a signed test vector has the same
    squared image as the vector itself.
    """

    def __init__(self, ops, vecs):
        self.ops, self.vecs = ops, vecs
        self.images = {}
        self.inputs = [np.abs(np.asarray(v)) ** 2 for v in vecs]

    def __call__(self, j, k):
        if (j, k) not in self.images:
            self.images[j, k] = np.abs(np.asarray(self.ops[j](self.vecs[k]))) ** 2
        return self.images[j, k]


def _square_function_quotient(sq: _SquaredImages, terms):
    """||(sum_t |T_j v_k|^2)^1/2|| / ||(sum_t |v_k|^2)^1/2|| over terms (j, k)."""
    num = den = 0.0
    for j, k in terms:
        num = num + sq(j, k)
        den = den + sq.inputs[k]
    dq = _l2_mean(np.sqrt(den))
    if dq == 0:
        return 0.0
    return _l2_mean(np.sqrt(num)) / dq


def rbound_estimate(family, test_vectors, trials: int = 200,
                    seed: int = 0) -> RBoundReport:
    """Lower estimate of the R-bound via sampled square-function quotients.

    family: list of (lam, operator) pairs; operators map a fixed input
    grid to a fixed output grid.  Per trial, each operator independently
    draws a Rademacher inclusion sign and a test vector from a substream
    keyed by (seed, trial, operator index), so restricting the family
    restricts the battery.  All singleton quotients are always included,
    which makes the estimate exact for scalar multiples of a common
    operator and >= the measured single-operator norm in general.  The
    operators must be linear: each is applied to each test vector at most
    once, and the signs reuse those images.
    """
    if not family:
        raise ValueError("family must not be empty")
    if trials < 1:
        raise ValueError("at least one trial required")
    ops = [op for _, op in family]
    vecs = [np.asarray(v, dtype=complex) for v in test_vectors]
    if not vecs:
        raise ValueError("need at least one test vector")
    sq = _SquaredImages(ops, vecs)

    best = max(_square_function_quotient(sq, [(j, k)])
               for j in range(len(ops)) for k in range(len(vecs)))

    trial_quotients = []
    for t in range(trials):
        chosen = []
        for j in range(len(ops)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j]))
            include = rng.integers(0, 2) == 1
            rng.integers(0, 2)  # the Rademacher sign, which |T_j v_k|^2 does not see
            k = rng.integers(0, len(vecs))
            if include:
                chosen.append((j, k))
        if chosen:
            quot = _square_function_quotient(sq, chosen)
            trial_quotients.append(quot)
            best = max(best, quot)
        full = []
        for j in range(len(ops)):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j, 1]))
            rng.integers(0, 2)  # sign
            full.append((j, rng.integers(0, len(vecs))))
        quot = _square_function_quotient(sq, full)
        trial_quotients.append(quot)
        best = max(best, quot)

    tq = np.asarray(trial_quotients)
    band = (float(np.quantile(tq, 0.05)), float(np.quantile(tq, 0.95)))
    return RBoundReport(estimate=best, band=band)
