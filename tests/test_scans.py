import json
import math
import multiprocessing
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from resolvlab import scans
from resolvlab.regions import (DegenerateCaseError, FluidParams, SectorSpec, check_zeta_case,
                               in_gamma_region)
from resolvlab.scans import (
    SamplingPlan,
    draw_samples,
    fit_exp_decay_constant,
    multiplier_class_scan,
    nab_lower_bound_scan,
)
from resolvlab.symbols import SYMBOLS, SingularSymbolError, SymbolParams, evaluate_symbols

BASE = FluidParams()


@st.composite
def admissible_regions(draw):
    """(SectorSpec, FluidParams) of a drawn case, with a zeta that suits it."""
    case = draw(st.sampled_from(["C1", "C2", "C3"]))
    zeta = draw(st.complex_numbers(max_magnitude=1.0))
    if case == "C3":
        zeta = complex(abs(zeta.real), zeta.imag)
    gamma1, gamma3 = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
    fluid = FluidParams(mu=draw(st.floats(0.1, 5.0)), nu=draw(st.floats(0.1, 5.0)),
                        gamma1=gamma1, gamma3=gamma3, zeta=zeta, rho1=gamma1, rho2=gamma1,
                        rho3=gamma3 * draw(st.floats(1.0, 3.0)))
    spec = SectorSpec(epsilon=draw(st.floats(0.01, math.pi / 2 - 0.01)),
                      lambda0=draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3))),
                      zeta_case=case, rho3_over_nu=fluid.rho3 / fluid.nu)
    try:
        check_zeta_case(spec, fluid)
    except DegenerateCaseError:  # C2 with Im zeta = 0 or a slope that overflows
        assume(False)
    return spec, fluid


def _region(case, lambda0=2.0, fluid=BASE):
    return SectorSpec(epsilon=math.pi / 4, lambda0=lambda0, zeta_case=case), fluid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(region=admissible_regions(), dims=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
@example(region=_region("C1"), dims=1, seed=1)
@example(region=_region("C3"), dims=1, seed=1)
@example(region=_region("C2", 1.0, FluidParams(zeta=-1 + 1j, zeta0=2.0)), dims=1, seed=2)
# a slope of 1e14: the admissible angle is below the sampler's 1e-12 margin
@example(region=_region("C2", 1.0, FluidParams(zeta=-0.5 + 5e-15j)), dims=2, seed=3)
@example(region=_region("C3", 0.0), dims=2, seed=4)
def test_draw_samples_stay_in_region(region, dims, seed):
    spec, fluid = region
    lam, xi = draw_samples(SamplingPlan(n_samples=500, seed=seed, dims=dims), spec, fluid)
    assert np.all(in_gamma_region(lam, spec, fluid))
    assert xi.shape == (500, dims)
    norms = np.linalg.norm(xi, axis=-1)
    assert np.all((norms >= 1e-3 * (1 - 1e-12)) & (norms <= 1e3 * (1 + 1e-12)))


def test_scan_draws_through_draw_samples(monkeypatch):
    # one draw of the refined plan, through the function the benchmark traces
    calls, draw = [], scans.draw_samples
    monkeypatch.setattr(scans, "draw_samples", lambda *args: calls.append(args) or draw(*args))
    multiplier_class_scan(["A"], SectorSpec(zeta_case="C3"), SamplingPlan(n_samples=50, seed=3),
                          BASE)
    assert [plan.n_samples for plan, *_ in calls] == [100]


def test_draw_samples_deterministic():
    spec = SectorSpec(zeta_case="C3")
    a = draw_samples(SamplingPlan(n_samples=64, seed=9), spec, BASE)
    b = draw_samples(SamplingPlan(n_samples=64, seed=9), spec, BASE)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_scan_B_order_one_bound():
    # |B| <= |lam|^{1/2} + |xi| at baseline alpha = 1, so the ratio at
    # kappa=0, ell=0 cannot exceed 1
    rep = multiplier_class_scan(["B"], SectorSpec(zeta_case="C3"),
                                SamplingPlan(n_samples=5000, seed=3), BASE)[0]
    entry = next(d for d in rep["perDerivative"] if d["kappa"] == [0] and d["ell"] == 0)
    assert entry["worstRatio"] <= 1 + 1e-9
    assert all(np.isfinite(d["worstRatio"]) for d in rep["perDerivative"])


def test_scan_L12_order_two_finite():
    rep = multiplier_class_scan(["L12"], SectorSpec(zeta_case="C3"),
                                SamplingPlan(n_samples=5000, seed=4), BASE)[0]
    assert all(np.isfinite(d["worstRatio"]) for d in rep["perDerivative"])
    assert rep["worstRatio"] > 0


def test_scan_tau_derivative_vanishes_on_real_axis():
    # (tau d_tau) A = 0 at tau = Im lam = 0 by the explicit tau factor
    from resolvlab.scans import _tau_scaled_derivative
    from resolvlab.symbols import core_values

    lam = np.array([2.0 + 0j, 5.0 + 0j])
    g = lambda l: core_values(l, 0.0, SymbolParams.from_fluid(BASE))[0]  # noqa: E731
    der = _tau_scaled_derivative(g, lam, 1e-4 * np.abs(lam))
    assert np.max(np.abs(der)) == 0.0


def test_scan_refinement_stability():
    # worst ratio grows by < 5% when the sample count doubles
    region = SectorSpec(zeta_case="C3")
    r1 = multiplier_class_scan(["Q"], region, SamplingPlan(n_samples=4000, seed=5), BASE)[0]
    r2 = multiplier_class_scan(["Q"], region, SamplingPlan(n_samples=8000, seed=5), BASE)[0]
    assert r2["worstRatio"] <= 1.05 * r1["worstRatio"]


def test_exp_decay_constant_positive():
    spec = SectorSpec(zeta_case="C3")
    lam, xi = draw_samples(SamplingPlan(n_samples=2000, seed=6), spec, BASE)
    c = fit_exp_decay_constant(lam, xi, SymbolParams.from_fluid(BASE))
    assert 0 < c < 1


def test_nab_scan_baseline():
    rep = nab_lower_bound_scan(BASE, SectorSpec(), sample_budget=20_000, seed=8)
    assert rep["lambda0Found"] >= 1
    assert rep["cFound"] > 1e-6
    assert rep["cFound"] == 0.99 * rep["minRatio"]


@pytest.mark.parametrize("floor", [scans.N_FLOOR, 0.47])
def test_nab_scan_samples_each_lambda0_once(monkeypatch, floor):
    # the certified constant reuses the samples of the last lambda0 that
    # cleared the floor.  The baseline clears it at 1; at 0.47 the sampled
    # minima (0.39 at 1, 0.48 at 8) make the scan double and bisect
    tried = []

    def counted(lambda0, *args):
        tried.append(lambda0)
        return nab_min_ratio(lambda0, *args)

    nab_min_ratio = scans._nab_min_ratio
    monkeypatch.setattr(scans, "_nab_min_ratio", counted)
    monkeypatch.setattr(scans, "N_FLOOR", floor)
    rep = nab_lower_bound_scan(BASE, SectorSpec(), sample_budget=2000, seed=0)
    assert len(tried) == len(set(tried)) >= (1 if floor < 0.1 else 5)
    assert rep["lambda0Found"] in tried


def test_nab_scan_draws_once_and_does_not_depend_on_the_chunk(monkeypatch):
    # one unit draw per scan, then chunks of at most STENCIL_CHUNK_POINTS
    # points.  At 5000 samples every array stays below the 256 KiB from
    # which numpy reuses temporaries, so any chunk gives the same bits.
    # The floor 0.47 makes the scan double and bisect (see above).
    monkeypatch.setattr(scans, "N_FLOOR", 0.47)
    draws = []

    def counted(plan):
        draws.append(plan)
        return unit_draw(plan)

    unit_draw = scans._unit_draw
    monkeypatch.setattr(scans, "_unit_draw", counted)
    reports = []
    for chunk in (scans.STENCIL_CHUNK_POINTS, 1_000_000, 97):
        monkeypatch.setattr(scans, "STENCIL_CHUNK_POINTS", chunk)
        reports.append(nab_lower_bound_scan(BASE, SectorSpec(), sample_budget=5000, seed=4))
    assert repr(reports[0]) == repr(reports[1]) == repr(reports[2])   # repr: every bit
    assert len(draws) == 3
    assert reports[0]["lambda0Found"] > 1


def test_nab_scan_holds_the_unit_rows_and_one_chunk():
    # the traced peak above the unit rows (4 float64 = 32 B per sample) is
    # a few chunk-sized arrays, whatever the sample count: here at most 32
    # complex arrays of STENCIL_CHUNK_POINTS points (2.1 MB)
    import tracemalloc

    bound = 32 * 16 * scans.STENCIL_CHUNK_POINTS
    nab_lower_bound_scan(BASE, SectorSpec(), sample_budget=100, seed=2)   # one-time set-up
    for n in (20_000, 200_000):
        tracemalloc.start()
        try:
            nab_lower_bound_scan(BASE, SectorSpec(), sample_budget=n, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 32 * n < bound, (n, peak)


def test_nab_scan_real_axis_value():
    # at lam = lam0 real, xi = 0 the ratio is |N| / lam0^2 with
    # N = lam0 detL + sigma L11 m, strictly positive
    from resolvlab.symbols import lopatinski_values

    lam0 = 1.0
    L = lopatinski_values(lam0 + 0j, 0.0, SymbolParams.from_fluid(BASE))
    ratio = abs(L.N) / lam0**2
    assert ratio > 0
    assert abs(L.N - (lam0 * L.detL + 1.0 * L.L11 * 1.0)) < 1e-14


def test_nab_scan_sigma_zero_degenerate():
    # outside the sigma > 0 hypothesis: N = lam detL, still positive on samples
    fp = FluidParams(sigma=0.0)
    rep = nab_lower_bound_scan(fp, SectorSpec(), sample_budget=5000, seed=10)
    assert rep["minRatio"] > 0


C2_PARAMS = FluidParams(zeta=-1 + 1j, zeta0=2.0)
CASES = (("C1", BASE), ("C2", C2_PARAMS), ("C3", BASE))


def test_draw_samples_nested():
    # the n-sample plan is the first n rows of the 2n-sample plan
    for case, fp in CASES:
        spec = SectorSpec(epsilon=math.pi / 4, lambda0=2.0, zeta_case=case)
        for dims in (1, 2):
            lam_n, xi_n = draw_samples(SamplingPlan(n_samples=300, seed=11, dims=dims), spec, fp)
            lam_2n, xi_2n = draw_samples(SamplingPlan(n_samples=600, seed=11, dims=dims),
                                         spec, fp)
            assert np.array_equal(lam_n, lam_2n[:300])
            assert np.array_equal(xi_n, xi_2n[:300])


def _point_major_ratios(field, lam, xi, cols):
    """Ratios (names, len(cols), m) of the pairs cols, from the offsets they use.

    The stencil points are laid out point-major (the scan lays them out
    offset-major) and evaluated in calls of at most STENCIL_CHUNK_POINTS
    points: the reference for _RatioField.ratios and ratios_at.
    """
    rows = np.flatnonzero(np.any(field.weights[:, cols] != 0.0, axis=1))
    off = field.offsets[rows]
    scale = np.sqrt(np.abs(lam)) + np.linalg.norm(xi, axis=-1)
    h, h_tau = scans.FD_REL_STEP * scale, scans.FD_REL_STEP * np.abs(lam)
    lam_pts = (lam[:, None] + 1j * h_tau[:, None] * off[:, -1]).ravel()
    xi_pts = (xi[:, None, :] + h[:, None, None] * off[:, :-1]).reshape(-1, field.dims)
    chunk = scans.STENCIL_CHUNK_POINTS
    v = np.concatenate([evaluate_symbols(field.names, lam_pts[c:c + chunk], xi_pts[c:c + chunk],
                                         field.sp) for c in range(0, lam_pts.size, chunk)],
                       axis=-1).reshape(len(field.names), lam.size, rows.size)
    xi_norm = np.linalg.norm(xi, axis=-1)
    r = np.empty((len(field.names), len(cols), lam.size))
    for c, col in enumerate(cols):
        kappa, ell = field.pairs[col]
        korder = sum(kappa)
        w = field.weights[rows, col]
        deriv = sum(w[j] * v[..., j] for j in np.flatnonzero(w)) / h**korder
        if ell:
            deriv = deriv * lam.imag / h_tau
        r[:, c] = np.abs(deriv) / field.bounds(lam, scale, xi_norm, korder)
    return r


def _sampled_table(field, lam, xi):
    """Ratios (names, n, pairs) of every pair at every sample, in the scan's chunks.

    The full table that the scan's streamed summaries replace.
    """
    chunk = max(1, scans.STENCIL_CHUNK_POINTS // len(field.offsets))
    blocks = [field.ratios(lam[i:i + chunk], xi[i:i + chunk]) for i in range(0, lam.size, chunk)]
    return np.concatenate(blocks, axis=-1).transpose(0, 2, 1)


def _reference_ascend(field, to_region, u, pair, value, plan):
    """The compass search of _ascend for one symbol, evaluating every poll point."""
    dims = plan.dims
    scaling = [1.0, 0.0, 0.5 * math.log(scans.LAM_FACTOR) / math.log(scans.XI_HI / scans.XI_LO),
               0.0]
    dirs = np.concatenate([np.eye(4)[:3 if dims == 1 else 4], [scaling]])
    dirs = np.concatenate([dirs, -dirs])
    step = np.full(len(u), scans.ASCENT_STEP)
    for _ in range(scans.ASCENT_MAX_POLLS):
        act = np.flatnonzero(step >= scans.ASCENT_MIN_STEP)
        if act.size == 0:
            break
        trial = u[act, None, :] + step[act, None, None] * dirs
        trial[..., :3] = np.clip(trial[..., :3], 0.0, 1.0)
        if dims == 2:
            trial[..., 3] %= 1.0
        lam, xi = to_region(trial.reshape(-1, 4))
        at = np.repeat(pair[act], len(dirs))
        r = np.empty(at.size)
        for p in np.unique(at):
            idx = np.flatnonzero(at == p)
            r[idx] = _point_major_ratios(field, lam[idx], xi[idx], [p])[0, 0]
        r = r.reshape(act.size, len(dirs))
        r[np.isnan(r)] = -np.inf
        best = np.argmax(r, axis=1)
        best_r = r[np.arange(act.size), best]
        gain = best_r > value[act]
        u[act[gain]] = trial[gain, best[gain]]
        value[act[gain]] = best_r[gain]
        step[act[~gain]] /= 2
    return u, value


def reference_reports(symbols, region, plan, params):
    """multiplier_class_scan's reports, by the per-symbol path.

    The sampled ratios come from one full point-major table, and each
    symbol's ascents run alone, one symbol evaluation per poll, with every
    poll point evaluated.
    """
    scan = scans._Scan(symbols, region, plan, params)
    field = scan.field(symbols)
    table = _point_major_ratios(field, scan.lam, scan.xi, list(range(len(field.pairs))))
    head, whole = scans._combine([scans._reduce([(0, table)], plan.n_samples)])
    reports = []
    for s, name in enumerate(symbols):
        field = scan.field([name])
        starts, vals, pair, first = [], [], [], []
        for p in range(len(field.pairs)):
            new = ~np.isin(whole.rows[s, p], head.rows[s, p])
            starts += [head.rows[s, p], whole.rows[s, p, new]]
            vals += [head.vals[s, p], whole.vals[s, p, new]]
            n_old, n_new = head.rows[s, p].size, int(new.sum())
            pair += [p] * (n_old + n_new)
            first += [True] * n_old + [False] * n_new
        starts, pair, first = np.concatenate(starts), np.array(pair), np.array(first)
        u_end, value = _reference_ascend(field, scan.to_region, scan.u[starts], pair,
                                         np.concatenate(vals), plan)
        reports.append(scan._report(name, field.pairs, head[s], whole[s], u_end, value, pair,
                                    first))
    return reports


def _nested_reference_ratios(f, field, lam, xi):
    """Ratios from the nested stencils, pair by pair."""
    from resolvlab.scans import FD_REL_STEP, _tangential_derivative, _tau_scaled_derivative

    scale = np.sqrt(np.abs(lam)) + np.linalg.norm(xi, axis=-1)
    h = FD_REL_STEP * scale
    out = []
    for kappa, ell in field.pairs:
        kappa = np.array(kappa)
        if ell == 0:
            d = _tangential_derivative(f, lam, xi, kappa, h)
        else:
            d = _tau_scaled_derivative(lambda l: _tangential_derivative(f, l, xi, kappa, h),
                                       lam, FD_REL_STEP * np.abs(lam))
        out.append(np.abs(d) / field.bounds(lam, scale, np.linalg.norm(xi, axis=-1),
                                            int(kappa.sum()))[0])
    return np.stack(out, axis=-1)


def test_stencil_tables_match_nested_reference():
    # the shared-offset tables are the nested Richardson stencils; they differ
    # only by rounding, which the third-order stencils amplify to ~1e-3
    from resolvlab.scans import _RatioField

    sp = SymbolParams.from_fluid(BASE)
    for dims in (1, 2):
        lam, xi = draw_samples(SamplingPlan(n_samples=64, seed=3, dims=dims), SectorSpec(), BASE)
        for sym in ("B", "n11"):
            f = lambda l, x: evaluate_symbols([sym], l, x, sp)[0]  # noqa: E731
            field = _RatioField([sym], sp, dims)
            field.classes = [(1.0, 0.0, None)]  # the order-1 bound, for both symbols
            got = _sampled_table(field, lam, xi)[0]
            ref = _nested_reference_ratios(f, field, lam, xi)
            assert np.allclose(got, ref, rtol=1e-3, atol=2e-3)
            assert np.allclose(got[:, 0], ref[:, 0], rtol=1e-12, atol=0)


def test_scan_sampled_ratio_is_max_over_the_n_set():
    # the scan's n-set is draw_samples at n; its 2n-set contains it
    from resolvlab.scans import _RatioField

    region = SectorSpec(zeta_case="C3")
    plan = SamplingPlan(n_samples=200, seed=12)
    rep = multiplier_class_scan(["Q"], region, plan, BASE)[0]
    field = _RatioField(["Q"], SymbolParams.from_fluid(BASE), 1)
    ratio = _sampled_table(field, *draw_samples(plan, region, BASE))[0]
    for p, entry in enumerate(rep["perDerivative"]):
        assert [tuple(entry["kappa"]), entry["ell"]] == list(field.pairs[p])
        assert entry["sampledWorstRatio"] == pytest.approx(np.max(ratio[:, p]), rel=1e-12)


@pytest.mark.parametrize("case,fp", CASES)
@pytest.mark.parametrize("dims", [1, 2])
def test_scan_ascent_stays_in_region_and_only_grows(case, fp, dims):
    region = SectorSpec(epsilon=math.pi / 4, lambda0=2.0, zeta_case=case)
    rep = multiplier_class_scan(["L12"], region, SamplingPlan(n_samples=150, seed=13, dims=dims),
                                fp)[0]
    assert len(rep["perDerivative"]) == (6 if dims == 1 else 12)
    for entry in rep["perDerivative"]:
        assert entry["worstRatio"] >= entry["sampledWorstRatio"]
        pt = entry["argmaxPoint"]
        assert len(pt["xi"]) == dims
        assert in_gamma_region(complex(pt["lam_re"], pt["lam_im"]), region, fp)
    assert rep["worstRatio"] == max(d["worstRatio"] for d in rep["perDerivative"])
    assert rep["refinedWorstRatio"] >= rep["worstRatio"]
    assert rep["refinementGrowth"] >= 0.0


def test_scan_ascent_converges_from_few_samples():
    # the n11 sup sits on a thin band near Re lam = lam0 that sampling alone
    # misses; the ascended estimate agrees across seeds and sample counts
    region = SectorSpec(zeta_case="C3")
    reps = [multiplier_class_scan(["n11"], region, SamplingPlan(n_samples=n, seed=s), BASE)[0]
            for n, s in ((300, 21), (600, 22))]
    assert reps[0]["perDerivative"][-1]["sampledWorstRatio"] < 0.9 * reps[0]["worstRatio"]
    assert reps[1]["worstRatio"] == pytest.approx(reps[0]["worstRatio"], rel=1e-3)
    for rep in reps:
        assert rep["refinementGrowth"] < 1e-3


SYMBOL_NAMES = list(SYMBOLS)


@settings(max_examples=10, deadline=None, derandomize=True)
@example(names=SYMBOL_NAMES[::-1], dims=1, n=60, seed=0)
@example(names=SYMBOL_NAMES[5:] + SYMBOL_NAMES[:5], dims=2, n=25, seed=1)
@given(names=st.lists(st.sampled_from(SYMBOL_NAMES), min_size=1, unique=True),
       dims=st.sampled_from([1, 2]), n=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_shared_scan_reports_each_symbols_own_scan(names, dims, n, seed):
    # one sampled pass for a subset, in any order, gives each symbol bitwise
    # the report of its scan alone; short ascents keep the property cheap
    region = SectorSpec(epsilon=math.pi / 4, lambda0=2.0, zeta_case="C3")
    plan = SamplingPlan(n_samples=n, seed=seed, dims=dims)
    with mock.patch.object(scans, "ASCENT_MAX_POLLS", 3):
        shared = multiplier_class_scan(names, region, plan, BASE)
        for name, rep in zip(names, shared):
            alone = multiplier_class_scan([name], region, plan, BASE)[0]
            assert json.dumps(rep) == json.dumps(alone), name


@settings(max_examples=12, deadline=None, derandomize=True)
@example(names=SYMBOL_NAMES, case=CASES[1], dims=2, n=30, seed=2)
@example(names=SYMBOL_NAMES[::-1], case=CASES[0], dims=1, n=60, seed=3)
@given(names=st.lists(st.sampled_from(SYMBOL_NAMES), min_size=1, unique=True),
       case=st.sampled_from(CASES), dims=st.sampled_from([1, 2]), n=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_lock_step_reports_equal_the_per_symbol_reference(names, case, dims, n, seed):
    # the ascents of all symbols in lock-step, with offset-major stencils,
    # skipped poll points and capped kernel calls, give bitwise the reports
    # of each symbol's own ascents; short ascents keep the property cheap
    zeta_case, fp = case
    region = SectorSpec(epsilon=math.pi / 4, lambda0=2.0, zeta_case=zeta_case)
    plan = SamplingPlan(n_samples=n, seed=seed, dims=dims)
    with mock.patch.object(scans, "ASCENT_MAX_POLLS", 6):
        got = multiplier_class_scan(names, region, plan, fp)
        ref = reference_reports(names, region, plan, fp)
    assert json.dumps(got) == json.dumps(ref)


@pytest.mark.parametrize("dims", [1, 2])
def test_offset_major_ratios_equal_the_point_major_reference(dims):
    # every symbol and pair at every sample, bitwise
    field = scans._RatioField(SYMBOL_NAMES, SymbolParams.from_fluid(BASE), dims, decay_c=0.5)
    lam, xi = draw_samples(SamplingPlan(n_samples=200, seed=17, dims=dims), SectorSpec(), BASE)
    ref = _point_major_ratios(field, lam, xi, list(range(len(field.pairs))))
    assert _sampled_table(field, lam, xi).tobytes() == ref.transpose(0, 2, 1).tobytes()


@pytest.mark.parametrize("dims", [1, 2])
def test_no_kernel_call_takes_more_than_a_chunk(dims, monkeypatch):
    # from 256 KiB of complex points on, numpy reuses temporaries in place and
    # rounds some kernels differently: no call of the scan gets that far
    sizes = []

    def recorded(names, lam, xi, sp):
        sizes.append(lam.size)
        return evaluate_symbols(names, lam, xi, sp)

    monkeypatch.setattr(scans, "evaluate_symbols", recorded)
    monkeypatch.setattr(scans, "ASCENT_MAX_POLLS", 2)
    multiplier_class_scan(SYMBOL_NAMES, SectorSpec(zeta_case="C3"),
                          SamplingPlan(n_samples=40, seed=18, dims=dims), BASE)
    # a symbol's first poll has more points than a chunk
    assert max(sizes) == scans.STENCIL_CHUNK_POINTS


def test_a_start_on_a_cube_face_rates_none_of_its_clipped_polls():
    # at u0 = u2 = 1 the polls +u0, +u2 and +scaling clip back onto the start;
    # the ratio rises with u1, so the start climbs u1 to its face, and no
    # point is rated twice: not the start, nor a point it left
    rated = []

    class RisingInU1:
        def ratios_at(self, lam, xi, sym, pair):
            rated.append(lam.copy())
            return lam[:, 1]

    start = np.array([1.0, 0.25, 1.0, 0.75])
    u_end, value = scans._ascend(RisingInU1(), lambda v: (v, v), start[None].copy(),
                                 np.array([0]), np.array([0]), np.array([0.25]),
                                 SamplingPlan(dims=1))
    assert len(rated[0]) == 8 - 3
    rows = np.concatenate(rated)
    assert not np.any(np.all(rows == start, axis=1))
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert u_end.tolist() == [[1.0, 1.0, 1.0, 0.75]] and value.tolist() == [1.0]


def _top(ratio, k):
    """Indices of the k largest ratios, ties in index order, NaN last."""
    return np.argsort(-ratio, kind="stable")[:k]


# ratios are |.| / bound >= 0 or NaN; -inf and the repeated values test the order
RATIOS = st.sampled_from([0.0, 0.5, 1.0, 3.0, np.inf, -np.inf, np.nan]) | st.floats(0.0, 4.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       n=st.integers(1, 40), chunk=st.integers(1, 17), workers=st.integers(1, 3))
def test_streamed_summaries_equal_the_full_table(data, shape, n, chunk, workers):
    # each worker's run of chunks streams into summaries; joined, they give
    # bitwise the n-set and 2n-set maxima and ascent starts of the full table
    table = data.draw(arrays(np.float64, shape + (2 * n,), elements=RATIOS))
    runs = scans._runs(2 * n, chunk, workers)
    assert runs[0][0] == 0 and runs[-1][1] == 2 * n and len(runs) <= workers
    parts = [scans._reduce(((i, table[..., i:min(i + chunk, b)]) for i in range(a, b, chunk)), n)
             for a, b in runs]
    head, whole = scans._combine(parts)
    for got, ratio in ((head, table[..., :n]), (whole, table)):
        assert got.peak.tobytes() == np.max(ratio, axis=-1).tobytes()
        for s in range(shape[0]):
            for p in range(shape[1]):
                top = _top(ratio[s, p], scans.ASCENT_STARTS)
                assert np.array_equal(got.rows[s, p], top)
                assert got.vals[s, p].tobytes() == ratio[s, p, top].tobytes()


def test_worker_count_is_capped_by_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    assert scans.worker_count(10_000, 15) == 2
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 64)
    assert scans.worker_count(10_000, 15) == 15
    assert scans.worker_count(3, 15) == 3
    assert scans.worker_count(0, 15) == scans.worker_count(-4, 15) == 1
    monkeypatch.setattr(scans.os, "cpu_count", lambda: None)
    assert scans.worker_count(10_000, 15) == 1

    # the scan asks for no more: 2 CPUs, 2 symbols and 3 chunks of samples
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    asked = []
    serial = scans._task_map
    monkeypatch.setattr(scans, "_task_map",
                        lambda scan, workers: asked.append(workers) or serial(scan, 1))
    multiplier_class_scan(["A", "B"], SectorSpec(zeta_case="C3"),
                          SamplingPlan(n_samples=100, seed=16), BASE, workers=10_000)
    assert asked == [2]


@pytest.mark.parametrize("dims", [1, 2])
def test_forked_scan_equals_the_serial_scan(dims, monkeypatch):
    # every symbol, every case: the sampled pass in two runs of chunks and
    # the ascents on two forked workers give the serial reports, bitwise
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(scans, "ASCENT_MAX_POLLS", 3)
    plan = SamplingPlan(n_samples=100 if dims == 1 else 30, seed=14, dims=dims)
    field = scans._RatioField(["A"], SymbolParams.from_fluid(BASE), dims)
    chunk = scans.STENCIL_CHUNK_POINTS // len(field.offsets)
    assert len(scans._runs(2 * plan.n_samples, chunk, 2)) == 2
    for case, fp in CASES:
        region = SectorSpec(epsilon=math.pi / 4, lambda0=2.0, zeta_case=case)
        serial = multiplier_class_scan(SYMBOL_NAMES, region, plan, fp)
        forked = multiplier_class_scan(SYMBOL_NAMES, region, plan, fp, workers=2)
        assert json.dumps(forked) == json.dumps(serial), case
        assert multiprocessing.active_children() == []


def test_forked_scan_reraises_a_worker_error(monkeypatch):
    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)

    def singular_in_workers(*args):
        if multiprocessing.parent_process() is not None:
            raise SingularSymbolError("N fell below its floor")
        return evaluate_symbols(*args)

    monkeypatch.setattr(scans, "evaluate_symbols", singular_in_workers)
    with pytest.raises(SingularSymbolError, match="below its floor"):
        multiplier_class_scan(["A", "B"], SectorSpec(zeta_case="C3"),
                              SamplingPlan(n_samples=100, seed=15), BASE, workers=2)
    assert multiprocessing.active_children() == []


def test_forked_scan_fails_at_once_when_a_worker_dies():
    # a worker killed by a signal fails the scan instead of leaving it
    # waiting for the lost task; run apart, so that a hang fails the test
    code = """if True:
        import multiprocessing, os, signal
        from resolvlab import scans
        from resolvlab.regions import FluidParams, SectorSpec

        evaluate = scans.evaluate_symbols

        def killed_in_workers(*args):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return evaluate(*args)

        scans.evaluate_symbols = killed_in_workers
        scans.os.cpu_count = lambda: 2
        try:
            scans.multiplier_class_scan(["A"], SectorSpec(zeta_case="C3"),
                                        scans.SamplingPlan(n_samples=100), FluidParams(),
                                        workers=2)
        except Exception as exc:
            print(type(exc).__name__, len(multiprocessing.active_children()))
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(scans.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.split() == ["BrokenProcessPool", "0"]
