import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvlab import halfspace, verification
from resolvlab.cli import cmd_rbound
from resolvlab.config import RunConfig
from resolvlab.grids import (BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid,
                            discrete_norm, field_weights, spectral_values)
from resolvlab.halfspace import (ResolventData, ResolventSolution, solve_full_resolvent,
                                 solve_surface_homogeneous)
from resolvlab.regions import FluidParams
from resolvlab.verification import ResidualReport, pde_residual, rbound_estimate

BASE = FluidParams()
TG = TangentialGrid(points=64, half_length=8.0)
NG = NormalGrid(points=96, truncation=20.0)


def make_data(seed=0):
    from tests.test_halfspace import gaussian_data
    return gaussian_data(TG, NG, seed=seed)


# -- discrete norms ---------------------------------------------------------

def test_norm_of_constant_is_one():
    f = BoundaryField(np.ones(64, dtype=complex), TG)
    assert discrete_norm(f) == pytest.approx(1.0, rel=1e-12)
    g = HalfSpaceField(np.ones((64, 96, 1), dtype=complex), TG, NG)
    assert discrete_norm(g) == pytest.approx(1.0, rel=1e-10)


def test_norm_of_sine():
    # f = sin(pi x / L) is a full period on the box: its norm is the
    # square root of the 1/2 mean of sin^2
    f = BoundaryField(np.sin(np.pi * TG.x / TG.half_length).astype(complex), TG)
    assert discrete_norm(f) == pytest.approx(1 / math.sqrt(2), rel=1e-8)


def test_norm_axioms_on_random_fields():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((64, 96, 2)) + 1j * rng.standard_normal((64, 96, 2))
        b = rng.standard_normal((64, 96, 2)) + 1j * rng.standard_normal((64, 96, 2))
        fa = HalfSpaceField(a, TG, NG)
        fb = HalfSpaceField(b, TG, NG)
        fab = HalfSpaceField(a + b, TG, NG)
        na, nb, nab = (discrete_norm(f) for f in (fa, fb, fab))
        assert nab <= na + nb + 1e-12
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert discrete_norm(HalfSpaceField(c * a, TG, NG)) == \
            pytest.approx(abs(c) * na, rel=1e-12)


# -- residuals --------------------------------------------------------------

def test_residual_zero_on_solution():
    data = make_data()
    lam = 4.0
    sol = solve_full_resolvent(data, BASE, lam)
    rep = pde_residual(sol, data, BASE, lam)
    for name in ("density", "momentum", "stress_tangential", "stress_normal",
                 "kinematic"):
        assert rep.relative[name] <= 1e-8, (name, rep.relative)
    assert rep.relative["density"] <= 1e-13  # exact by construction


def test_residual_detects_perturbation():
    data = make_data()
    lam = 4.0
    sol = solve_full_resolvent(data, BASE, lam)
    rng = np.random.default_rng(11)
    noise = 1e-3 * (rng.standard_normal(sol.u.values.shape)
                    + 1j * rng.standard_normal(sol.u.values.shape))
    sol.u.values = sol.u.values + noise * np.abs(sol.u.values).max()
    rep = pde_residual(sol, data, BASE, lam)
    assert rep.relative["momentum"] >= 1e-4


def test_residual_zero_solution_equals_data_norm():
    data = make_data()
    lam = 4.0
    zero_sol = solve_full_resolvent(data, BASE, lam)
    zero_sol.u.values[...] = 0.0
    zero_sol.eta.values[...] = 0.0
    zero_sol.h.values[...] = 0.0
    rep = pde_residual(zero_sol, data, BASE, lam)
    # operator of zero is zero: residual reduces to the data term exactly
    assert rep.relative["momentum"] == pytest.approx(1.0, rel=1e-12)
    assert rep.relative["kinematic"] == pytest.approx(1.0, rel=1e-12)


def test_residual_verdicts():
    # the solve command's residual.<row> verdicts compare these values with
    # tolerances.residual (default 1e-6)
    data = make_data()
    sol = solve_full_resolvent(data, BASE, 4.0)
    rep = pde_residual(sol, data, BASE, 4.0)
    assert set(rep.relative) == {"density", "momentum", "stress_tangential",
                                 "stress_normal", "kinematic"}
    assert all(v <= 1e-6 for v in rep.relative.values())



def mirror_pair_case(dims, mode, bigger_first):
    """A zero solution whose kinematic residual -K peaks on the modes +-xi'.

    The two peaks differ in the last bit only.  Returns (sol, data, mirror).
    """
    tg = TangentialGrid(dims=dims, points=8, half_length=4.0)
    ng = NormalGrid(points=8, truncation=10.0)
    mirror = tuple(-i % tg.points for i in mode)
    K = np.zeros(tg.mode_shape + (1,), dtype=complex)
    big, small = np.nextafter(1.0, 2.0), 1.0
    K[mode], K[mirror] = (big, small) if bigger_first else (small, big)
    zeros = np.zeros(tg.mode_shape + (ng.points, dims + 1), dtype=complex)
    density = HalfSpaceField(zeros[..., :1], tg, ng, "spectral")
    sol = ResolventSolution(
        eta=density, u=HalfSpaceField(zeros, tg, ng, "spectral"),
        h=BoundaryField(np.zeros(tg.mode_shape + (1,), dtype=complex), tg, "spectral"))
    data = ResolventData(
        d=density, F=HalfSpaceField(zeros, tg, ng, "spectral"),
        G=BoundaryField(zeros[..., 0, :], tg, "spectral"),
        K=BoundaryField(K, tg, "spectral"))
    return sol, data, mirror


@pytest.mark.parametrize("dims, mode", [(1, (5,)), (2, (1, 6))])
@pytest.mark.parametrize("bigger_first", [True, False])
def test_worst_mode_reports_first_of_a_mirror_pair(dims, mode, bigger_first):
    sol, data, mirror = mirror_pair_case(dims, mode, bigger_first)
    rep = pde_residual(sol, data, BASE, 4.0)
    assert rep.worst_mode["kinematic"] == list(min(mode, mirror))


# -- the blocked residual against the whole-array oracle ---------------------

def _reference_volume_l2(values, weights):
    w = weights / weights.sum()
    mag = np.abs(values)
    if mag.ndim > w.ndim:
        mag = np.sqrt(np.sum(mag**2, axis=tuple(range(w.ndim, mag.ndim))))
    return float(np.sum(w * mag**2) ** 0.5)


def _reference_rel(residual, *terms, weights):
    scale = max(_reference_volume_l2(t, weights) for t in terms)
    r = _reference_volume_l2(residual, weights)
    return r / scale if scale > 0 else 0.0


def reference_pde_residual(sol, data, params, lam):
    """pde_residual over all modes at once: the oracle of its blocked evaluation.

    Builds every derivative and every term of the whole field, and takes
    each norm in one sum.
    """
    tg = data.F.tgrid
    ng = data.F.ngrid
    D = ng.diff
    nd = tg.dims
    mu, nu = params.mu, params.nu
    g1, g2, sg, m = params.gamma1, params.gamma2, params.sigma, params.m

    u = spectral_values(sol.u)
    hhat = spectral_values(sol.h)[..., 0]
    Fhat, Ghat, Khat = (spectral_values(fld) for fld in (data.F, data.G, data.K))
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

    wvol = field_weights(data.F)
    wbdy = field_weights(data.G)
    report = {"relative": {}, "worst": {}}

    def add(name, residual, *terms, weights):
        report["relative"][name] = _reference_rel(residual, *terms, weights=weights)
        peak = np.abs(residual).reshape(tg.mode_shape + (-1,)).max(axis=-1)
        peak = np.maximum(peak, peak[np.ix_(*[-np.arange(n) % n for n in peak.shape])])
        report["worst"][name] = [int(v) for v in
                                 np.unravel_index(int(peak.argmax()), peak.shape)]

    eta = spectral_values(sol.eta)[..., 0]
    dhat = spectral_values(data.d)[..., 0]
    r_density = lam * eta + g1 * div - dhat
    add("density", r_density, lam * eta, g1 * div, dhat, weights=wvol)

    grad_eta = np.empty_like(u)
    for j in range(nd):
        grad_eta[..., j] = 1j * xi[..., j][..., None] * eta
    grad_eta[..., nd] = eta @ D.T
    r_mom = g1 * lam * u - mu * lap - nu * grad_div + g2 * grad_eta - Fhat
    add("momentum", r_mom, g1 * lam * u, mu * lap, nu * grad_div,
        g2 * grad_eta, Fhat, weights=wvol)

    du0 = du[..., 0, :]
    u0 = u[..., 0, :]
    div0 = div[..., 0]
    r_tang = np.empty(tg.mode_shape + (nd,), dtype=complex)
    for j in range(nd):
        sjN = mu * (du0[..., j] + 1j * xi[..., j] * u0[..., nd])
        r_tang[..., j] = -sjN - Ghat[..., j]
    add("stress_tangential", r_tang, r_tang + Ghat[..., :nd],
        Ghat[..., :nd], weights=wbdy)

    sNN = 2 * mu * du0[..., nd] + (nu - mu) * div0 - g2 * eta[..., 0]
    surf = sg * (m + xi_sq) * hhat
    r_norm = -(sNN + surf) - Ghat[..., nd]
    add("stress_normal", r_norm, sNN, surf, Ghat[..., nd], weights=wbdy)

    r_kin = lam * hhat + u0[..., nd] - Khat[..., 0]
    add("kinematic", r_kin, lam * hhat, u0[..., nd], Khat[..., 0],
        weights=wbdy)

    return ResidualReport(relative=report["relative"], worst_mode=report["worst"])


def gaussian_data_2d(tg, ng):
    """Gaussian data on a 2-D grid, below 1e-10 of its peak at the box edge."""
    X, Y = np.meshgrid(tg.x, tg.x, indexing="ij")
    t = ng.nodes

    def bump(x0, y0, width_t):
        return (np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / 2)[..., None]
                * np.exp(-(t**2) / (2 * width_t**2)))

    d = HalfSpaceField((0.5 * bump(0.5, 0.0, 2.0))[..., None].astype(complex), tg, ng)
    F = HalfSpaceField(np.stack([bump(-0.4, 0.2, 1.5), -0.5 * bump(0.0, -0.3, 2.0),
                                 0.7 * bump(0.4, 0.1, 2.5)], axis=-1).astype(complex), tg, ng)
    gb = bump(0.0, 0.0, 1.0)[..., 0]
    G = BoundaryField(np.stack([0.3 * gb, 0.2 * gb, -0.6 * gb], axis=-1).astype(complex), tg)
    K = BoundaryField((0.8 * bump(0.3, -0.2, 1.0)[..., 0]).astype(complex), tg)
    return ResolventData(d=d, F=F, G=G, K=K)


def _assert_same_report(rep, ref):
    assert list(rep.relative) == list(ref.relative)
    for name, value in ref.relative.items():
        assert rep.relative[name] == pytest.approx(value, rel=1e-14, abs=0), name
    assert rep.worst_mode == ref.worst_mode


@pytest.mark.parametrize("noise", [0.0, 1e-6])
@pytest.mark.parametrize("dims, points, nodes, block", [(1, 64, 96, 5), (2, 16, 24, 7)])
def test_blocked_residual_equals_the_whole_array_reference(monkeypatch, dims, points,
                                                           nodes, block, noise):
    # 64 and 256 modes: neither is a multiple of the block; the noise moves
    # every row off its rounding level
    tg = TangentialGrid(dims=dims, points=points, half_length=8.0)
    ng = NormalGrid(points=nodes, truncation=20.0)
    data = make_data() if dims == 1 else gaussian_data_2d(tg, ng)
    lam = 4.0 + 0.5j
    sol = solve_full_resolvent(data, BASE, lam)
    rng = np.random.default_rng(dims)
    for fld in (sol.u, sol.eta, sol.h):
        scale = noise * np.abs(fld.values).max()
        fld.values = fld.values + scale * (rng.standard_normal(fld.values.shape)
                                           + 1j * rng.standard_normal(fld.values.shape))
    ref = reference_pde_residual(sol, data, BASE, lam)
    monkeypatch.setattr(verification, "RESIDUAL_BLOCK_MODES", block)
    _assert_same_report(pde_residual(sol, data, BASE, lam), ref)


@pytest.mark.parametrize("dims, mode, block", [(1, (3,), 4), (2, (1, 6), 15)])
@pytest.mark.parametrize("bigger_first", [True, False])
def test_blocked_residual_folds_a_mirror_pair_across_blocks(monkeypatch, dims, mode,
                                                            block, bigger_first):
    # 1-D: the modes 3 and 5 sit on either side of the boundary at 4;
    # 2-D: the flat indices 14 and 58 sit in the first and fourth block
    sol, data, mirror = mirror_pair_case(dims, mode, bigger_first)
    flat = [np.ravel_multi_index(k, (8,) * dims) // block for k in (mode, mirror)]
    assert flat[0] != flat[1]
    ref = reference_pde_residual(sol, data, BASE, 4.0)
    monkeypatch.setattr(verification, "RESIDUAL_BLOCK_MODES", block)
    rep = pde_residual(sol, data, BASE, 4.0)
    _assert_same_report(rep, ref)
    assert rep.worst_mode["kinematic"] == list(min(mode, mirror))


def test_residual_report_is_bitwise_the_same_for_power_of_two_blocks(monkeypatch):
    # 256 modes x 24 nodes: a volume block of 2^k modes is a subtree of
    # numpy's pairwise sum over the whole array, and the boundary rows,
    # one value per mode, are summed over all modes at once
    tg = TangentialGrid(dims=2, points=16, half_length=8.0)
    ng = NormalGrid(points=24, truncation=20.0)
    data = gaussian_data_2d(tg, ng)
    sol = solve_full_resolvent(data, BASE, 4.0 + 0.5j)
    reports = []
    for block in (32, 64, 128, 256):
        monkeypatch.setattr(verification, "RESIDUAL_BLOCK_MODES", block)
        reports.append(pde_residual(sol, data, BASE, 4.0 + 0.5j))
    for rep in reports[1:]:
        assert rep.relative == reports[0].relative
        assert rep.worst_mode == reports[0].worst_mode


def test_2d_solve_and_residual_working_set(monkeypatch):
    # The traced peak of the 2-D solve and its residual oracle, with the
    # data allocated before tracing, in copies of one 3-component field
    # (16^2 modes x 24 nodes, 0.29 MB, 1/8 of a 32^2 x 48 field).  The
    # residual block is 32 modes, 1/8 of the modes, as 128 was of the 32^2
    # grid's, and the Lame batch budget is 1/8 of LAME_BATCH_BYTES: 4 real
    # shells.  The whole-array oracle, with a solution that kept v = u - w
    # and w and a surface solve that built du and d2u, peaked at 17.8
    # fields; blocked, 6.4 fields, in the solve.  With one-array
    # transforms, the Lame solution written over the reduced force and w
    # added into it block by block, the solve peaks at 2.8 fields and the
    # oracle sets the peak at 4.4.  The unscaled budget, 32 shells at 24
    # nodes, takes the solve to 7.7 fields.
    monkeypatch.setattr(verification, "RESIDUAL_BLOCK_MODES", 32)
    monkeypatch.setattr(halfspace, "LAME_BATCH_BYTES", halfspace.LAME_BATCH_BYTES // 8)
    tg = TangentialGrid(dims=2, points=16, half_length=8.0)
    ng = NormalGrid(points=24, truncation=20.0)
    data = gaussian_data_2d(tg, ng)
    field = data.F.values.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sol = solve_full_resolvent(data, BASE, 4.0)
        solve_peak = tracemalloc.get_traced_memory()[1]
        pde_residual(sol, data, BASE, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak <= 4.2 * field, solve_peak / field
    assert peak <= 5.5 * field, peak / field


# -- R-bound estimator ------------------------------------------------------

def _vectors(n=64, count=6, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(count)]


def test_rbound_singleton_equals_norm():
    c = 0.37 - 1.2j
    fam = [(1.0, lambda f: c * f)]
    rep = rbound_estimate(fam, _vectors(), trials=100, seed=1)
    assert rep.estimate == pytest.approx(abs(c), abs=1e-12)


def test_rbound_scalar_family_bounded_by_lam0_inverse():
    lam0 = 2.0
    lams = lam0 * np.array([1.0, 1.5, 2.0, 8.0, 30.0])
    fam = [(l, (lambda ll: (lambda f: f / ll))(l)) for l in lams]
    rep = rbound_estimate(fam, _vectors(), trials=200, seed=2)
    assert rep.estimate <= (1 / lam0) * (1 + 1e-9)
    assert rep.estimate >= (1 / lam0) - 1e-12  # singleton at lam = lam0


def test_rbound_monotone_under_inclusion():
    rng = np.random.default_rng(7)
    cs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    ops = [(i + 1.0, (lambda c: (lambda f: c * f))(c)) for i, c in enumerate(cs)]
    vecs = _vectors()
    r1 = rbound_estimate(ops[:3], vecs, trials=150, seed=5)
    r2 = rbound_estimate(ops, vecs, trials=150, seed=5)
    # scalar multiples of the identity: estimate = max |c_j|, monotone
    assert r1.estimate <= r2.estimate + 1e-12
    assert r1.estimate == pytest.approx(max(abs(c) for c in cs[:3]), abs=1e-12)


def test_rbound_requires_family_and_vectors():
    with pytest.raises(ValueError):
        rbound_estimate([], _vectors())
    with pytest.raises(ValueError):
        rbound_estimate([(1.0, lambda f: f)], [])


def test_rbound_deterministic_under_seed():
    fam = [(j + 1.0, (lambda a: (lambda f: a * f))(1.0 / (j + 1))) for j in range(4)]
    r1 = rbound_estimate(fam, _vectors(), trials=50, seed=9)
    r2 = rbound_estimate(fam, _vectors(), trials=50, seed=9)
    assert r1.estimate == r2.estimate and r1.band == r2.band


def test_square_function_quotient_applies_each_operator_once():
    # one application per term of the square function, no sizing probe
    from resolvlab.verification import _SquaredImages, _square_function_quotient

    applied = []

    def op(c):
        def apply(f):
            applied.append(c)
            return c * f
        return apply

    cs = [0.5, -2.0, 1.0 + 1j]
    vecs = _vectors(count=3)
    quot = _square_function_quotient(_SquaredImages([op(c) for c in cs], vecs),
                                     [(0, 0), (1, 1), (2, 2)])
    assert applied == cs
    num = np.sqrt(sum(np.abs(c * v) ** 2 for c, v in zip(cs, vecs)))
    den = np.sqrt(sum(np.abs(v) ** 2 for v in vecs))
    assert quot == pytest.approx(np.sqrt(np.mean(num**2)) / np.sqrt(np.mean(den**2)),
                                 rel=1e-14)


def _signed_rbound_reference(ops, vecs, trials, seed):
    """rbound_estimate with the Rademacher signs applied, one application per term."""
    def quotient(terms):
        num = den = 0.0
        for op, f in terms:
            num = num + np.abs(op(f)) ** 2
            den = den + np.abs(f) ** 2
        return np.mean(np.sqrt(num) ** 2) ** 0.5 / np.mean(np.sqrt(den) ** 2) ** 0.5

    best = max(quotient([(op, v)]) for op in ops for v in vecs)
    for t in range(trials):
        chosen, full = [], []
        for j, op in enumerate(ops):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j]))
            include = rng.integers(0, 2) == 1
            sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
            vec = vecs[rng.integers(0, len(vecs))]
            if include:
                chosen.append((op, sign * vec))
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, j, 1]))
            sign = 1.0 if rng.integers(0, 2) == 1 else -1.0
            full.append((op, sign * vecs[rng.integers(0, len(vecs))]))
        best = max([best, quotient(full)] + ([quotient(chosen)] if chosen else []))
    return best


def test_rbound_applies_each_operator_to_each_vector_once():
    # a linear family: the signed test vectors reuse the images of the
    # unsigned ones, and the estimate is bitwise the signed one
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            for _ in range(5)]
    applied = []

    def op(j):
        def apply(f):
            applied.append(j)
            return mats[j] @ f
        return apply

    vecs = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(4)]
    rep = rbound_estimate([(j + 1.0, op(j)) for j in range(5)], vecs, trials=60, seed=4)
    assert len(applied) <= 5 * 4
    ref = _signed_rbound_reference([lambda f, m=m: m @ f for m in mats], vecs, 60, 4)
    assert rep.estimate == ref


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mu=st.floats(0.3, 3.0), nu=st.floats(0.3, 3.0), sigma=st.floats(0.0, 3.0),
       m=st.floats(0.3, 3.0), gamma1=st.floats(0.5, 2.0), gamma3=st.floats(0.5, 2.0),
       zeta_abs=st.floats(0.0, 1.0), zeta_arg=st.floats(-2.2, 2.2),
       factors=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
def test_rbound_estimate_is_bounded_by_and_reaches_the_exact_bound(
        mu, nu, sigma, m, gamma1, gamma3, zeta_abs, zeta_arg, factors, seed):
    # admissible fluids, zeta in case C2 or C3, real lambda >= lambda0 = 1:
    # the sampled estimate of the family lam^(1/2) A(lam), applied through
    # the surface solve, never exceeds rbound's exact value and equals it
    # on the unit vector of the mode where rbound finds it
    zeta = zeta_abs * complex(math.cos(zeta_arg), math.sin(zeta_arg))
    text = (f"[fluid]\nmu = {mu!r}\nnu = {nu!r}\nsigma = {sigma!r}\nm = {m!r}\n"
            f"gamma1 = {gamma1!r}\ngamma3 = {gamma3!r}\nrho1 = {gamma1!r}\n"
            f"rho2 = {gamma1!r}\nrho3 = {gamma3!r}\n"
            f"zeta_re = {zeta.real!r}\nzeta_im = {zeta.imag!r}\n"
            f'[sector]\nlambda0 = 1.0\nzeta_case = "{"C2" if zeta.real < 0 else "C3"}"\n'
            "[grid]\ntangential_points = 16\nnormal_points = 24\n"
            f"[rbound]\nlambda_factors = [{', '.join(map(repr, factors))}]\n")
    cfg = RunConfig.load(text, "rbound")
    with tempfile.TemporaryDirectory() as out:
        verdicts, res, _ = cmd_rbound(cfg, out, 1)
    assert verdicts[0]["passed"]
    tg, ng = cfg.grids()

    def op(lam):
        def apply(khat):
            k = BoundaryField(khat, tg, "spectral")
            return lam ** 0.5 * solve_surface_homogeneous(k, cfg.fluid, lam, ng)[0].values
        return apply

    family = [(lam, op(lam)) for lam in factors]
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(3)]
    sampled = rbound_estimate(family, vecs, trials=20, seed=seed).estimate
    assert sampled <= res["bound"] * (1 + 1e-12)
    unit = (tg.wavenumbers[:, 0] == res["wavenumber"][0]).astype(complex)
    reached = rbound_estimate(family, [unit], trials=20, seed=seed).estimate
    assert reached == pytest.approx(res["bound"], rel=1e-14, abs=0)
