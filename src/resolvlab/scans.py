"""Sampled verification of multiplier-class bounds and the N(A,B) lower bound.

A plan draws one row u in the unit cube [0, 1)^4 per sample, all rows from
one default_rng(seed) stream, so the first n rows of a 2n-sample plan are
the n-sample plan: the draws are nested.  Each row maps into the
admissible region Gamma(eps, lam0, zeta):

    lambda      = regions.gamma_points(u0, u1)   |lambda| log-uniform in [lam0, 1e4 lam0]
    |xi'|       = XI_LO * (XI_HI/XI_LO)**u2       log-uniform in [1e-3, 1e3]
    xi' sign    = - for u3 < 1/2 (1-D);  xi' angle = 2 pi u3 (2-D)

A scan measures

  * worst ratios  |d^k_xi (tau d_tau)^l m| / bound  per symbol, from the
    samples and a local ascent started at the worst of them (see
    multiplier_class_scan).  The symbols, the class each bound comes from
    and their projections of one shared kernel evaluation are the table
    symbols.SYMBOLS,
  * the smallest lam0 for which  |N| >= c (|lam|+|xi|)(|lam|^1/2+|xi|)^2
    holds with a positive floor, plus the certified c,
  * the decay constant c' of exp(-B x_N), for the symbols whose bound
    carries that decay.

Derivatives are central finite differences with relative step
1e-4*(|lam|^1/2+|xi|) in xi and 1e-4*|lam| in tau, Richardson-extrapolated
once and nested for higher orders; (tau d_tau) is tau times the
finite-difference d/dtau at fixed Re lambda.  Every (kappa, ell) stencil
is a weighted sum over one shared set of offsets, so a point's stencils
cost one stacked symbol evaluation.

The sampled pass is shared by all the symbols of a scan: one draw, and
per chunk of STENCIL_CHUNK_POINTS stencil points one evaluation of A, B,
L, Q/Q' and n_Jk that every symbol's values are projected from.  The
values are laid out offset-major, and the stencil sums run over the
offsets in ascending order, one slab per offset, stacked over the
symbols.  No kernel call of a scan takes more than STENCIL_CHUNK_POINTS
points, because numpy rounds some kernels differently on longer arrays
(its in-place reuse of temporaries from 256 KiB on), and the stencils
amplify those last bits to ~1e-3 in the ratios of n11 and nN1.  Below
that size a point's values do not depend on the points evaluated with
it, so the reports do not depend on how points are batched.

The N(A, B) search (nab_lower_bound_scan) also draws its unit rows once
per scan: each trial lam0 maps them into its region, evaluates L and
takes the minimum ratio STENCIL_CHUNK_POINTS rows at a time, so it holds
the rows plus one chunk's values.

The pass keeps no table of ratios.  Each chunk's ratios, for all symbols
and pairs at once, are folded into a _Summary of the n-set and one of
the rest: the running maximum (NaN-propagating, as np.max) and the
ASCENT_STARTS worst samples in the order of a stable argsort of -ratio.
A chunk changes the kept samples only of a pair where it beats the last
of them, and the fold is exact, so the maxima and the ascent starts are
bitwise those of the full table.

The ascents of a group of symbols poll in lock-step (_ascend): each poll
evaluates each symbol's new stencil points in turn, then folds every
symbol's points of a pair at once.  A poll point that is bitwise the
start's point (clipped at a cube face) or the point it last left is not
evaluated: its ratio is the start's value or one below it, so it cannot
win.  So each symbol's report is bitwise the one of its own ascents with
every poll point evaluated, which the tests keep as the reference.

With workers > 1 and the fork start method, multiplier_class_scan forks
a pool after the draw.  Each worker streams one contiguous run of whole
chunks; the parent joins the runs' summaries in row order; then each
worker ascends one group of symbols (every workers-th) and reports them.
One process ascends all the symbols as one group.  The workers run the
functions the serial path runs, so the reports do not depend on workers.
The chunks and the ascents are small array operations that hold the
interpreter lock, which is why the pool has processes, not threads.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .regions import FluidParams, SectorSpec, gamma_points
from .symbols import (N_FLOOR, SYMBOLS, SymbolParams, core_values, evaluate_symbols,
                      lopatinski_values, n_scale)

FD_REL_STEP = 1e-4
MAX_DERIV_ORDER = 2           # the scans' (kappa, ell) reach |kappa| <= 2, ell <= 1
LAM_FACTOR = 1e4              # sampled |lambda| ranges over [lam0, LAM_FACTOR * lam0]
XI_LO, XI_HI = 1e-3, 1e3      # and |xi'| over [XI_LO, XI_HI]
NAB_LAMBDA0_CAP = 2.0**16

STENCIL_CHUNK_POINTS = 4096   # symbol points per stacked call of the sampled pass
ASCENT_STARTS = 8             # ascents per (kappa, ell): the worst samples
ASCENT_STEP = 2.0**-4         # first poll step, in unit-cube coordinates
ASCENT_MIN_STEP = 2.0**-20    # an ascent stops once its step halves below this
ASCENT_MAX_POLLS = 100        # or after this many polls


class ScanError(NumericalError, RuntimeError):
    """A sampling plan or search could not be completed."""


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sample of admissible (lambda, xi') pairs."""

    n_samples: int = 10_000
    seed: int = 0
    dims: int = 1


def _unit_draw(plan: SamplingPlan):
    """The plan's rows in [0, 1)^4; row i depends only on (seed, i)."""
    return np.random.default_rng(plan.seed).random((plan.n_samples, 4))


def _region_points(u, plan: SamplingPlan, spec: SectorSpec, params: FluidParams):
    """Map unit-cube rows u (m, 4) to (lam, xi) inside Gamma(eps, lam0, zeta)."""
    lam = gamma_points(u[:, 0], u[:, 1], spec, params, LAM_FACTOR)
    xi_mag = XI_LO * (XI_HI / XI_LO) ** u[:, 2]
    if plan.dims == 1:
        xi = np.where(u[:, 3] < 0.5, -xi_mag, xi_mag)[:, None]
    else:
        ang = 2 * math.pi * u[:, 3]
        xi = xi_mag[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return lam, xi


def draw_samples(plan: SamplingPlan, spec: SectorSpec, params: FluidParams):
    """(lam, xi) arrays inside Gamma(eps, lam0, zeta); xi has shape (n, dims)."""
    return _region_points(_unit_draw(plan), plan, spec, params)


def _tangential_derivative(f, lam, xi, kappa, h):
    """Central-difference d^kappa/d xi^kappa with one Richardson pass.

    kappa is a multi-index over the tangential axes; mixed second
    derivatives nest two first-difference stencils.  This nested form is
    the reference for the stencil tables of _RatioField.
    """
    order = int(np.sum(kappa))
    if order == 0:
        return f(lam, xi)

    axis = int(np.argmax(np.asarray(kappa) > 0))

    def shift(x, d):
        y = np.array(x, copy=True)
        y[:, axis] = y[:, axis] + d
        return y

    rest = np.array(kappa, copy=True)
    rest[axis] -= 1
    inner = (lambda l, x: _tangential_derivative(f, l, x, rest, h)) \
        if order > 1 else f

    def diff(step):
        return (inner(lam, shift(xi, step)) - inner(lam, shift(xi, -step))) / (2 * step)

    d1, d2 = diff(h), diff(h / 2)
    return (4 * d2 - d1) / 3


def _tau_scaled_derivative(g, lam, h):
    """tau * dg/dtau at fixed Re lambda (tau = Im lambda), Richardson once."""
    def diff(step):
        return (g(lam + 1j * step) - g(lam - 1j * step)) / (2 * step)

    d1, d2 = diff(h), diff(h / 2)
    return lam.imag * (4 * d2 - d1) / 3


def _kappa_list(dims, max_order):
    out = []
    for total in range(max_order + 1):
        if dims == 1:
            out.append((total,))
        else:
            for i in range(total + 1):
                out.append((total - i, i))
    return out


# (4 D(h/2) - D(h)) / 3 with D(s) = (g(x+s) - g(x-s)) / 2s, as
# (offset in units of h, weight in units of 1/h)
_RICHARDSON = ((0.5, 4 / 3), (-0.5, -4 / 3), (1.0, -1 / 6), (-1.0, 1 / 6))


def _stencil(kappa, ell):
    """{offset: weight} of d^kappa_xi d^ell_tau, offsets (xi axes..., tau)."""
    terms = {(0.0,) * (len(kappa) + 1): 1.0}
    for axis, times in enumerate(tuple(kappa) + (ell,)):
        for _ in range(times):
            nxt = {}
            for off, w in terms.items():
                for step, c in _RICHARDSON:
                    key = off[:axis] + (off[axis] + step,) + off[axis + 1:]
                    nxt[key] = nxt.get(key, 0.0) + w * c
            terms = nxt
    return {off: w for off, w in terms.items() if w != 0.0}


def _bound(order, lam_xi_weight, decay_c, lam, scale, xi_norm, korder):
    """The class bound at korder = |kappa|; decay_c is c' or None (see SymbolClass)."""
    bound = scale ** (order - korder)
    if lam_xi_weight:
        bound = bound * (np.abs(lam) + xi_norm) ** lam_xi_weight
    if decay_c is not None:
        bound = bound * np.exp(-decay_c * scale)
    return bound


class _RatioField:
    """|d^kappa_xi (tau d_tau)^ell m| / bound at stacked points, per symbol and (kappa, ell).

    names lists the symbols (entries of SYMBOLS).  pairs lists the (kappa,
    ell); offsets (P, dims+1) is the union of their stencils, weights
    (P, len(pairs)) their coefficients on it and rows[col] the offsets pair
    col uses.  decay_c is the fitted c' of the exp_decay symbols.
    """

    def __init__(self, names, sp: SymbolParams, dims: int, decay_c=None):
        self.names, self.sp, self.dims = list(names), sp, dims
        # (order, lam_xi_weight, c' or None) of each symbol's bound
        self.classes = [(c.order, c.lam_xi_weight, decay_c if c.exp_decay else None)
                        for c in map(SYMBOLS.get, self.names)]
        self.pairs = [(kappa, ell) for kappa in _kappa_list(dims, MAX_DERIV_ORDER)
                      for ell in (0, 1)]
        tables = [_stencil(kappa, ell) for kappa, ell in self.pairs]
        offsets = sorted(set().union(*tables))
        self.offsets = np.array(offsets)
        self.weights = np.array([[t.get(o, 0.0) for t in tables] for o in offsets])
        self.rows = [np.flatnonzero(self.weights[:, col]) for col in range(len(self.pairs))]

    def bounds(self, lam, scale, xi_norm, korder):
        """Bounds (len(names), m) at korder = |kappa|, one evaluation per class."""
        per_class = {c: _bound(*c, lam, scale, xi_norm, korder) for c in set(self.classes)}
        return np.stack([per_class[c] for c in self.classes])

    @staticmethod
    def _steps(lam, xi):
        """|xi|, the scale |lam|^1/2 + |xi| and the steps h in xi and h_tau in tau."""
        xi_norm = np.linalg.norm(xi, axis=-1)
        scale = np.sqrt(np.abs(lam)) + xi_norm
        return xi_norm, scale, FD_REL_STEP * scale, FD_REL_STEP * np.abs(lam)

    @staticmethod
    def _points(lam, xi, h, h_tau, off):
        """The stencil points (lam + i h_tau off_tau, xi + h off_xi); off broadcasts on lam."""
        return lam + 1j * h_tau * off[..., -1], xi + h[..., None] * off[..., :-1]

    def _derivative(self, v, col, rows, lam, h, h_tau):
        """|d^kappa_xi (tau d_tau)^ell| of pair col from v[..., j, :], the values at offset rows[j].

        The stencil sum runs over the offsets in ascending order.
        """
        kappa, ell = self.pairs[col]
        w = self.weights[rows, col]
        deriv = sum(w[j] * v[..., j, :] for j in np.flatnonzero(w)) / h**sum(kappa)
        if ell:
            deriv = deriv * lam.imag / h_tau
        return np.abs(deriv)

    def ratios(self, lam, xi):
        """Ratios (len(names), len(pairs), m) of every symbol and pair at m points.

        One symbol evaluation of the m points at every offset, offset-major,
        takes len(offsets) * m points.
        """
        xi_norm, scale, h, h_tau = self._steps(lam, xi)
        lam_pts, xi_pts = self._points(lam, xi, h, h_tau, self.offsets[:, None])
        v = evaluate_symbols(self.names, lam_pts.ravel(), xi_pts.reshape(-1, self.dims),
                             self.sp).reshape(len(self.names), len(self.offsets), lam.size)
        out, bounds = np.empty((len(self.names), len(self.pairs), lam.size)), {}
        for col, (kappa, ell) in enumerate(self.pairs):
            korder = sum(kappa)
            if korder not in bounds:
                bounds[korder] = self.bounds(lam, scale, xi_norm, korder)
            out[:, col] = self._derivative(v, col, slice(None), lam, h, h_tau) / bounds[korder]
        return out

    def ratios_at(self, lam, xi, sym, pair):
        """Ratio of symbol sym[i]'s pair[i] at point i; points sorted by pair, then symbol.

        Each symbol's stencil points are made and evaluated in turn, in
        calls of at most STENCIL_CHUNK_POINTS points, and only their values
        kept.  A pair's values are laid out offset-major, so that each term
        of its stencil sum is one slab over every symbol's points.
        """
        xi_norm, scale, h, h_tau = self._steps(lam, xi)
        n_sym = len(self.names)
        cut = np.searchsorted(pair * n_sym + sym, np.arange(len(self.pairs) * n_sym + 1))
        # pair p's points are first[p] to first[p + 1], its symbol s's lo[p, s] to hi[p, s]
        first, lo, hi = cut[::n_sym], cut[:-1].reshape(-1, n_sym), cut[1:].reshape(-1, n_sym)
        values = [np.empty((rows.size, b - a), complex)
                  for rows, a, b in zip(self.rows, first, first[1:])]
        bound = np.empty(lam.size)
        for s, name in enumerate(self.names):
            spans = [(p, lo[p, s], hi[p, s]) for p in np.flatnonzero(lo[:, s] < hi[:, s])]
            if not spans:
                continue
            lam_pts, xi_pts = self._span_points(spans, lam, xi, h, h_tau)
            v = np.concatenate([
                evaluate_symbols([name], lam_pts[c:c + STENCIL_CHUNK_POINTS],
                                 xi_pts[c:c + STENCIL_CHUNK_POINTS], self.sp)[0]
                for c in range(0, lam_pts.size, STENCIL_CHUNK_POINTS)])
            for p, a, b in spans:
                n = self.rows[p].size * (b - a)
                values[p][:, a - first[p]:b - first[p]] = v[:n].reshape(-1, b - a)
                v = v[n:]
                bound[a:b] = _bound(*self.classes[s], lam[a:b], scale[a:b], xi_norm[a:b],
                                    sum(self.pairs[p][0]))
        out = np.empty(lam.size)
        for p, (a, b, v) in enumerate(zip(first, first[1:], values)):
            if a < b:
                out[a:b] = self._derivative(v, p, self.rows[p], lam[a:b], h[a:b],
                                            h_tau[a:b]) / bound[a:b]
        return out

    def _span_points(self, spans, lam, xi, h, h_tau):
        """The stencil points of pair p at points a to b, offset-major, for (p, a, b) in spans."""
        points = [self._points(lam[a:b], xi[a:b], h[a:b], h_tau[a:b],
                               self.offsets[self.rows[p], None]) for p, a, b in spans]
        return (np.concatenate([pts.ravel() for pts, _ in points]),
                np.concatenate([pts.reshape(-1, self.dims) for _, pts in points]))


def _ascend(field_, to_region, u, sym, pair, value, plan: SamplingPlan):
    """Lock-step compass search for larger ratios, inside the sampled region.

    Start i ascends the ratio of field_.names[sym[i]]'s pair[i] from the
    unit-cube point u[i] with ratio value[i].  A poll evaluates u +- step
    along each cube coordinate (not the 1-D xi sign) and along the
    parabolic scaling lam -> s^2 lam, xi -> s xi, clipped to the cube (the
    2-D xi angle wraps); the start moves to its best poll point if that
    beats its value, otherwise its step halves.  All starts of all symbols
    poll together (_RatioField.ratios_at).  A poll point that is bitwise
    the start's point (clipped at a cube face) or the point it last left
    is not evaluated: equal points give equal ratios, the start's value
    and one below it, so neither can win, and it counts as -inf.
    """
    dims = plan.dims
    # d u2 / d u0 along the scaling: half the log-range ratio
    scaling = [1.0, 0.0, 0.5 * math.log(LAM_FACTOR) / math.log(XI_HI / XI_LO), 0.0]
    dirs = np.concatenate([np.eye(4)[:3 if dims == 1 else 4], [scaling]])
    dirs = np.concatenate([dirs, -dirs])
    order = np.lexsort((sym, pair))  # as ratios_at takes the points
    u, sym, pair, value = u[order], sym[order], pair[order], value[order]
    step = np.full(len(u), ASCENT_STEP)
    left = np.full_like(u, -1.0)  # outside the cube: nothing left yet
    for _ in range(ASCENT_MAX_POLLS):
        act = np.flatnonzero(step >= ASCENT_MIN_STEP)
        if act.size == 0:
            break
        trial = u[act, None, :] + step[act, None, None] * dirs
        trial[..., :3] = np.clip(trial[..., :3], 0.0, 1.0)
        if dims == 2:
            trial[..., 3] %= 1.0
        bits = trial.view(np.int64)
        seen = (np.all(bits == u[act, None].view(np.int64), axis=-1)
                | np.all(bits == left[act, None].view(np.int64), axis=-1))
        i, k = np.nonzero(~seen)
        r = np.full(seen.shape, -np.inf)
        r[i, k] = field_.ratios_at(*to_region(trial[i, k]), sym[act[i]], pair[act[i]])
        r[np.isnan(r)] = -np.inf
        best = np.argmax(r, axis=1)
        best_r = r[np.arange(act.size), best]
        gain = best_r > value[act]
        moved = act[gain]
        left[moved] = u[moved]
        u[moved] = trial[gain, best[gain]]
        value[moved] = best_r[gain]
        step[act[~gain]] /= 2
    back = np.argsort(order)
    return u[back], value[back]


@dataclass(frozen=True)
class _Summary:
    """What a scan keeps of the ratios at a run of consecutive samples.

    Per symbol and pair: peak is the largest ratio, NaN if any is NaN (as
    np.max); vals and rows are the ratios and sample rows of the first
    ASCENT_STARTS samples in descending order of ratio, ties in row order
    and NaN last (a stable argsort of -ratio).  Shapes (symbols, pairs)
    and (symbols, pairs, <= ASCENT_STARTS); s-indexing gives symbol s's.
    """

    peak: np.ndarray
    vals: np.ndarray
    rows: np.ndarray

    def __getitem__(self, s):
        return _Summary(self.peak[s], self.vals[s], self.rows[s])


def _first(vals, rows):
    """The ASCENT_STARTS first of each last-axis run of vals, rows in _Summary order."""
    order = np.argsort(-vals, axis=-1, kind="stable")[..., :ASCENT_STARTS]
    return np.take_along_axis(vals, order, -1), np.take_along_axis(rows, order, -1)


def _join(head, tail):
    """The _Summary of head's samples followed by tail's (None: no samples).

    tail may be unreduced: all its samples in row order, every row after
    head's.  The first samples of the union are among head's and tail's
    first, and a stable sort of their concatenation breaks ties by row, so
    the join is exact.  Once head holds ASCENT_STARTS samples, only a pair
    where tail has a sample above head's last changes (head wins ties).
    """
    if tail is None:
        return head
    if head is None:
        head = _Summary(tail.peak, tail.vals[..., :0], tail.rows[..., :0])
    peak = np.maximum(head.peak, tail.peak)
    if head.vals.shape[-1] < ASCENT_STARTS:
        return _Summary(peak, *_first(np.concatenate([head.vals, tail.vals], -1),
                                      np.concatenate([head.rows, tail.rows], -1)))
    last = head.vals[..., -1:]
    moves = np.any((tail.vals > last) | (np.isnan(last) & ~np.isnan(tail.vals)), axis=-1)
    vals, rows = head.vals.copy(), head.rows.copy()
    vals[moves], rows[moves] = _first(np.concatenate([vals[moves], tail.vals[moves]], -1),
                                      np.concatenate([rows[moves], tail.rows[moves]], -1))
    return _Summary(peak, vals, rows)


def _block(r, start):
    """The unreduced _Summary of ratios r (symbols, pairs, m) at rows start, ...; None if m = 0."""
    if r.shape[-1] == 0:
        return None
    rows = np.broadcast_to(np.arange(start, start + r.shape[-1]), r.shape)
    return _Summary(np.max(r, axis=-1), r, rows)


def _reduce(blocks, n):
    """(n-set, rest) summaries of (start row, ratios (symbols, pairs, m)) blocks in row order."""
    head = tail = None
    for start, r in blocks:
        cut = min(max(n - start, 0), r.shape[-1])
        head = _join(head, _block(r[..., :cut], start))
        tail = _join(tail, _block(r[..., cut:], start + cut))
    return head, tail


def _runs(rows, chunk, workers):
    """[first, stop) of at most workers contiguous runs of whole chunks of rows."""
    chunks = -(-rows // chunk)
    cuts = [min(rows, chunk * (chunks * w // workers)) for w in range(workers + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _combine(parts):
    """(n-set, 2n-set) summaries from the (n-set, rest) ones of consecutive runs."""
    head = functools.reduce(_join, [h for h, _ in parts], None)
    return head, functools.reduce(_join, [t for _, t in parts], head)


def worker_count(threads: int, tasks: int) -> int:
    """Processes to run tasks on: threads, at most one per CPU and per task; 1 means serial."""
    return max(1, min(threads, os.cpu_count() or 1, tasks))


class _Scan:
    """One multiplier_class_scan: its draw, and its tasks summarize and report.

    The tasks run in this process or on forked workers, on the same state
    and with the same chunks, so their results are bitwise the same.
    """

    def __init__(self, symbols, region: SectorSpec, plan: SamplingPlan, params: FluidParams):
        self.symbols, self.region, self.plan, self.params = symbols, region, plan, params
        self.sp = SymbolParams.from_fluid(params)
        self.refined = replace(plan, n_samples=2 * plan.n_samples)
        self.u = _unit_draw(self.refined)  # the cube rows that draw_samples maps
        self.lam, self.xi = draw_samples(self.refined, region, params)
        exp_decay = any(SYMBOLS[name].exp_decay for name in symbols)
        self.decay_c = fit_exp_decay_constant(self.lam, self.xi, self.sp) if exp_decay else None
        self.chunk = max(1, STENCIL_CHUNK_POINTS // len(self.field(symbols).offsets))

    def field(self, names):
        return _RatioField(names, self.sp, self.plan.dims, self.decay_c)

    def to_region(self, v):
        return _region_points(v, self.refined, self.region, self.params)

    def summarize(self, span):
        """_reduce of the sampled ratios at rows span[0] to span[1] - 1, chunk by chunk.

        span[0] is a multiple of the chunk, which is STENCIL_CHUNK_POINTS
        symbol points: chunks of another size change the kernels' last
        bits, which the stencils amplify.
        """
        field_ = self.field(self.symbols)
        (first, stop), step = span, self.chunk
        lam, xi = self.lam[:stop], self.xi[:stop]
        blocks = ((i, field_.ratios(lam[i:i + step], xi[i:i + step]))
                  for i in range(first, stop, step))
        return _reduce(blocks, self.plan.n_samples)

    def report(self, job):
        """The reports of symbols job[0] from their n-set and 2n-set summaries.

        The ascents of all these symbols run in lock-step (_ascend).
        """
        group, head, whole = job
        field_ = self.field([self.symbols[s] for s in group])
        # starts: per symbol and pair, the n-set's worst samples, then the 2n-set's new ones
        new = ~np.any(whole.rows[..., :, None] == head.rows[..., None, :], axis=-1)
        keep = np.concatenate([np.ones(head.rows.shape, bool), new], axis=-1)
        sym, pair, col = np.nonzero(keep)
        starts = np.concatenate([head.rows, whole.rows], axis=-1)[keep]
        vals = np.concatenate([head.vals, whole.vals], axis=-1)[keep]
        first = col < head.rows.shape[-1]
        u_end, value = _ascend(field_, self.to_region, self.u[starts], sym, pair, vals, self.plan)
        return [self._report(field_.names[g], field_.pairs, head[g], whole[g],
                             u_end[sym == g], value[sym == g], pair[sym == g], first[sym == g])
                for g in range(len(group))]

    def _report(self, name, pairs, head, whole, u_end, value, pair, first):
        """Symbol name's report from its summaries and its ascents' end points and values."""
        per_derivative = []
        worst, refined_worst = [], []
        for p, (kappa, ell) in enumerate(pairs):
            mine = np.flatnonzero((pair == p) & first)
            i = mine[np.argmax(value[mine])]
            lam_i, xi_i = self.to_region(u_end[i:i + 1])
            # np.max keeps a NaN sample visible to the finiteness verdict
            worst.append(np.max(np.append(head.peak[p], value[mine])))
            refined_worst.append(np.max(np.append(whole.peak[p], value[pair == p])))
            per_derivative.append({
                "kappa": list(kappa),
                "ell": ell,
                "sampledWorstRatio": float(head.peak[p]),
                "worstRatio": float(worst[-1]),
                "argmaxPoint": {"lam_re": float(lam_i[0].real),
                                "lam_im": float(lam_i[0].imag),
                                "xi": [float(v) for v in xi_i[0]]},
            })
        worst_overall = float(np.max(worst))
        refined_overall = float(np.max(refined_worst))

        report = {
            "symbol": name,
            # type 1: the bound's xi-derivatives lower the order of |lam|^1/2 + |xi|
            "class": {"order": SYMBOLS[name].order, "type": 1},
            "samples": self.plan.n_samples,
            "seed": self.plan.seed,
            "perDerivative": per_derivative,
            "worstRatio": worst_overall,
            "refinedWorstRatio": refined_overall,
            "refinementGrowth": (refined_overall / worst_overall - 1.0
                                 if worst_overall > 0 else 0.0),
        }
        if SYMBOLS[name].exp_decay:
            report["decayConstant"] = float(self.decay_c)
        return report


_WORKER_SCAN = None  # a forked worker's _Scan


def _keep_heap():
    """Make glibc keep the heap's pages from one chunk of the sampled pass to the next.

    With the defaults, glibc gives the top of the heap back after each
    chunk and faults it in again for the next: about 200k page faults and
    0.3 s of CPU in the workers of the baseline scan, and 48k faults in one
    process whenever its imports leave the heap in an unlucky layout.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _adopt(scan):
    """A forked worker's set-up: its scan, and a heap that keeps its pages."""
    global _WORKER_SCAN
    _WORKER_SCAN = scan
    _keep_heap()


def _run(job):
    task, arg = job
    return getattr(_WORKER_SCAN, task)(arg)


@contextmanager
def _task_map(scan: _Scan, workers: int):
    """run(task, args): [scan.task(a) for a in args], here or on forked workers.

    With workers > 1 and the fork start method, that many processes
    inherit scan.  A worker's exception is re-raised here with its class;
    a worker that dies raises BrokenProcessPool (multiprocessing.Pool
    would wait for its task forever).  On leaving, the tasks not started
    are cancelled and the workers joined.
    """
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       _adopt, (scan,))
            try:
                yield lambda task, args: list(pool.map(_run, [(task, a) for a in args]))
            finally:
                pool.shutdown(cancel_futures=True)
            return
    _keep_heap()
    yield lambda task, args: [getattr(scan, task)(a) for a in args]


def multiplier_class_scan(symbols, region: SectorSpec, plan: SamplingPlan,
                          params: FluidParams, workers: int = 1) -> list:
    """Worst ratio against the class bound, per (kappa, ell), and its refinement.

    Returns one report per name in symbols, each an entry of
    symbols.SYMBOLS, which gives its class.  One nested draw of 2n samples
    (n = plan.n_samples) serves every symbol; the n-set is its first n
    rows.  The sampled pass evaluates the kernels once per chunk of
    stencil points, takes every symbol's ratios from that one evaluation
    and folds them into a _Summary of the n-set and one of the rest;
    sampledWorstRatio is the max over the n-set.  Then, per symbol and
    per (kappa, ell) up to MAX_DERIV_ORDER, a local ascent (_ascend)
    starts from each of the ASCENT_STARTS worst samples of the n-set;
    the ascents of a group of symbols poll in lock-step.  An ascent
    works in the sampler's unit-cube coordinates (log|lambda|,
    fraction of the admissible argument, log|xi|, and the xi angle in
    2-D), so every iterate is an admissible point of Gamma(eps, lam0, zeta)
    for C1, C2 and C3 inside the sampled ranges.  Its first step is
    ASCENT_STEP; it stops once the step halves below ASCENT_MIN_STEP or
    after ASCENT_MAX_POLLS polls.  worstRatio and argmaxPoint are the best
    ascended value and point.

    The refinement repeats this on the 2n-set, keeping the n-set ascents
    and starting new ones only from those of its ASCENT_STARTS worst
    samples that were not n-set starts; refinedWorstRatio is the best of
    all, so refinementGrowth = refinedWorstRatio / worstRatio - 1 >= 0.

    For the symbols with exp_decay, the decay constant c' of Lemma ABL(1)
    is fitted first (0.99 x the sampled minimum of Re B/(|lam|^1/2+|xi|)
    over the 2n-set) and the bound carries the extra factor
    exp(-c'(|lam|^1/2+|xi|)).  Each symbol's report is bitwise the one it
    gets when scanned alone, whatever workers is.  workers processes are
    asked for, at most one per CPU and per task (worker_count; the tasks
    are the chunks or the symbols, whichever are more).  With more than
    one, each runs a contiguous run of chunks of the sampled pass, and
    then the ascents and reports of one group of symbols.
    """
    scan = _Scan(symbols, region, plan, params)
    rows = 2 * plan.n_samples
    workers = worker_count(workers, max(-(-rows // scan.chunk), len(symbols)))
    with _task_map(scan, workers) as run:
        head, whole = _combine(run("summarize", _runs(rows, scan.chunk, workers)))
        # symbol s is the (s // workers)-th of group s % workers
        groups = [np.arange(w, len(symbols), workers) for w in range(workers)]
        reports = run("report", [(g, head[g], whole[g]) for g in groups])
    return [reports[s % workers][s // workers] for s in range(len(symbols))]


def fit_exp_decay_constant(lam, xi, sp: SymbolParams) -> float:
    """c' with |e^{-B x}| <= e^{-c'(|lam|^1/2+|xi|) x}: min of Re B over the scale."""
    _, B = core_values(lam, np.sum(np.asarray(xi) ** 2, axis=-1), sp)
    scale = np.sqrt(np.abs(lam)) + np.linalg.norm(xi, axis=-1)
    return 0.99 * float(np.min(B.real / scale))


def _nab_min_ratio(lambda0: float, u, plan: SamplingPlan, spec: SectorSpec,
                   params: FluidParams, sp: SymbolParams):
    """min of |N| / n_scale(lam, xi) over the unit rows u mapped at lambda0.

    The rows are mapped and evaluated STENCIL_CHUNK_POINTS at a time, and
    the chunks' minima are reduced NaN-propagating, as np.min is.
    """
    region = replace(spec, lambda0=lambda0)
    minima = []
    for lo in range(0, len(u), STENCIL_CHUNK_POINTS):
        lam, xi = _region_points(u[lo:lo + STENCIL_CHUNK_POINTS], plan, region, params)
        xi_norm = np.linalg.norm(xi, axis=-1)
        N = lopatinski_values(lam, xi_norm**2, sp, check=False).N
        minima.append(np.min(np.abs(N) / n_scale(lam, xi_norm)))
    return float(np.min(minima))


def nab_lower_bound_scan(params: FluidParams, spec: SectorSpec, sample_budget: int,
                         seed: int = 0) -> dict:
    """Smallest lam0 in [1, 2^16] whose sampled min of |N|/bound clears the floor.

    The plan's unit-cube rows are drawn once; each trial lam0 maps them
    into spec's region with its lambda0 replaced, chunk by chunk
    (_nab_min_ratio), so the scan holds the rows plus one chunk.
    Doubling finds a bracket, bisection shrinks it to 1% relative width;
    the certified constant is c = 0.99 x the sampled minimum at the
    returned lam0.  Each lam0 tried is sampled once.
    """
    sp = SymbolParams.from_fluid(params)
    plan = SamplingPlan(n_samples=sample_budget, seed=seed)
    u = _unit_draw(plan)
    found = None  # the sampled minimum at the last lam0 that cleared the floor

    def clears(lam0):
        nonlocal found
        min_ratio = _nab_min_ratio(lam0, u, plan, spec, params, sp)
        if min_ratio > N_FLOOR:
            found = min_ratio
        return min_ratio > N_FLOOR

    hi = 1.0
    if not clears(hi):
        lo = hi
        while True:
            hi *= 2
            if hi > NAB_LAMBDA0_CAP:
                raise ScanError(f"no lambda0 <= {NAB_LAMBDA0_CAP} clears the floor")
            if clears(hi):
                break
            lo = hi
        while hi - lo > 0.01 * hi:
            mid = 0.5 * (lo + hi)
            if clears(mid):
                hi = mid
            else:
                lo = mid

    return {
        "lambda0Found": float(hi),
        "cFound": 0.99 * found,
        "minRatio": found,
        "samples": sample_budget,
        "seed": seed,
        "epsilon": spec.epsilon,
        "zetaCase": spec.zeta_case,
    }
