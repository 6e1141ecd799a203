"""Independent residual evaluation and the R-bound sampler.

The residual evaluator re-applies the free-surface system to a computed
solution with its own discretization (spectral in xi', dense collocation
in x_N) and reports volume-normalized relative residuals per equation.
It is the oracle for the solver pipeline and never reuses solver
internals: it imports the grids alone.  It runs over blocks of
RESIDUAL_BLOCK_MODES tangential modes, so that it holds the solution and
data fields plus one block's derivatives and terms.

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

from .grids import field_weights, spectral_values, sum_sq

RESIDUAL_BLOCK_MODES = 128   # modes per block: 0.6 MB per 3-component block field at 96 nodes


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

def _tree_sum(parts):
    """Sum by halves: on 2^k aligned blocks of one array, numpy's pairwise order."""
    while len(parts) > 1:
        parts = [sum(parts[i:i + 2]) for i in range(0, len(parts), 2)]
    return parts[0]


@dataclass
class ResidualReport:
    relative: dict
    worst_mode: dict


def pde_residual(sol, data, params, lam) -> ResidualReport:
    """Relative residuals of the flat free-surface system.

    sol is a halfspace.ResolventSolution (eta, u, h) and data its
    ResolventData (d, F, G, K), each field in either tangential space;
    params are the FluidParams.

    Equations: density row, momentum rows, tangential and normal
    boundary-stress rows, kinematic row.  Derivatives are spectral in
    xi' and collocation in x_N, independent of the solver's internal
    closed forms.

    The rows act on each tangential mode alone, so they are evaluated
    RESIDUAL_BLOCK_MODES modes at a time: the working set is the input
    fields plus one block.  Per equation, each block adds the weighted
    sums of squares of the residual and of every term, and records each
    mode's residual peak.  The norms, their ratios and the worst modes
    are formed after the last block, since a mode and its mirror may sit
    in different blocks.
    """
    tg = data.F.tgrid
    ng = data.F.ngrid
    D = ng.diff
    nd = tg.dims
    nm = data.K.values.size
    mu, nu = params.mu, params.nu
    g1, g2, sg, m = params.gamma1, params.gamma2, params.sigma, params.m

    def modes(values):
        return values.reshape((nm,) + values.shape[nd:])

    u = modes(spectral_values(sol.u))
    eta = modes(spectral_values(sol.eta))[..., 0]
    hhat = modes(spectral_values(sol.h))[..., 0]
    dhat = modes(spectral_values(data.d))[..., 0]
    F, G = modes(spectral_values(data.F)), modes(spectral_values(data.G))
    K = modes(spectral_values(data.K))[..., 0]
    xi = modes(tg.xi)
    xi_sq = modes(tg.xi_sq)
    # one mode's row of each field's normalised quadrature weights: every
    # mode has the weight dx^dims
    cell = tg.dx ** nd
    wvol = (cell * ng.weights / field_weights(data.F).sum())[None]
    wbdy = np.array([cell / field_weights(data.G).sum()])

    sums, peak = {}, {}

    def add(name, blk, weights, residual, *terms):
        if blk.start == 0:
            sums[name], peak[name] = [], np.empty(nm)
        sums[name].append([sum_sq(t, weights) for t in (residual,) + terms])
        peak[name][blk] = np.abs(residual).reshape(residual.shape[0], -1).max(axis=-1)

    for lo in range(0, nm, RESIDUAL_BLOCK_MODES):
        b = slice(lo, lo + RESIDUAL_BLOCK_MODES)
        ub, xib = u[b], xi[b]
        du = D @ ub
        d2u = D @ du
        div = du[..., nd].copy()
        for j in range(nd):
            div += 1j * xib[..., j][..., None] * ub[..., j]
        grad_div = np.empty_like(ub)
        for j in range(nd):
            grad_div[..., j] = 1j * xib[..., j][..., None] * div
        grad_div[..., nd] = div @ D.T
        lap = d2u - xi_sq[b][..., None, None] * ub

        etab = eta[b]
        r_density = lam * etab + g1 * div - dhat[b]
        add("density", b, wvol, r_density, lam * etab, g1 * div, dhat[b])

        grad_eta = np.empty_like(ub)
        for j in range(nd):
            grad_eta[..., j] = 1j * xib[..., j][..., None] * etab
        grad_eta[..., nd] = etab @ D.T
        r_mom = g1 * lam * ub - mu * lap - nu * grad_div + g2 * grad_eta - F[b]
        add("momentum", b, wvol, r_mom, g1 * lam * ub, mu * lap, nu * grad_div,
            g2 * grad_eta, F[b])

        # boundary rows at x_N = 0, outward normal n0 = -e_N
        du0 = du[..., 0, :]
        u0 = ub[..., 0, :]
        div0 = div[..., 0]
        Gb = G[b]
        r_tang = np.empty((u0.shape[0], nd), dtype=complex)
        for j in range(nd):
            sjN = mu * (du0[..., j] + 1j * xib[..., j] * u0[..., nd])
            r_tang[..., j] = -sjN - Gb[..., j]
        add("stress_tangential", b, wbdy, r_tang, r_tang + Gb[..., :nd], Gb[..., :nd])

        sNN = 2 * mu * du0[..., nd] + (nu - mu) * div0 - g2 * etab[..., 0]
        surf = sg * (m + xi_sq[b]) * hhat[b]
        r_norm = -(sNN + surf) - Gb[..., nd]
        add("stress_normal", b, wbdy, r_norm, sNN, surf, Gb[..., nd])

        r_kin = lam * hhat[b] + u0[..., nd] - K[b]
        add("kinematic", b, wbdy, r_kin, lam * hhat[b], u0[..., nd], K[b])

    relative, worst = {}, {}
    mirror = np.ix_(*[-np.arange(n) % n for n in tg.mode_shape])
    for name, blocks in sums.items():
        r, *scales = [float(_tree_sum(col) ** 0.5) for col in zip(*blocks)]
        scale = max(scales)
        relative[name] = r / scale if scale > 0 else 0.0
        # the modes +-xi' carry equal residuals on real data, up to the last
        # bit: fold each with its mirror so that a pair reports its first
        # index in C order
        p = peak[name].reshape(tg.mode_shape)
        p = np.maximum(p, p[mirror])
        worst[name] = [int(v) for v in np.unravel_index(int(p.argmax()), p.shape)]
    return ResidualReport(relative=relative, worst_mode=worst)


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
