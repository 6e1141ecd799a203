import math

import numpy as np
import pytest

from resolvlab.bent import (
    DiffeoSpec,
    DivergenceError,
    GeometryError,
    apply_perturbation,
    bent_residual,
    build_geometry,
    consistency_gap,
    contraction_ratio,
    data_norm,
    neumann_solve,
    pullback_data,
    sample_data,
)
from resolvlab.grids import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid
from resolvlab.halfspace import solve_reduced_resolvent
from resolvlab.regions import FluidParams

BASE = FluidParams()
TG = TangentialGrid(points=64, half_length=8.0)
NG = NormalGrid(points=64, truncation=20.0)


def vector_data(scale=1.0):
    def f(x1, x2):
        env = np.exp(-(x1**2) / 2 - (x2**2) / 4)
        return np.stack([scale * env, 0.5 * scale * env], axis=-1)

    def g(x1, x2):
        env = np.exp(-(x1**2) / 2)
        return np.stack([0.3 * scale * env, -0.8 * scale * env], axis=-1)

    def k(x1, x2):
        return 0.9 * scale * np.exp(-((x1 - 0.2) ** 2) / 2)

    return f, g, k


# -- geometry ---------------------------------------------------------------

def test_geometry_flat_limit():
    geom = build_geometry(DiffeoSpec(amplitude=0.0), TG)
    assert np.allclose(geom.ginv11, 1.0)
    assert np.allclose(geom.christoffel, 0.0)
    assert np.allclose(geom.normal, np.tile([0.0, -1.0], (64, 1)))


def test_geometry_first_fundamental_form():
    spec = DiffeoSpec(amplitude=0.3, width=2.0)
    geom = build_geometry(spec, TG)
    bp = spec.bump_d1(TG.x)
    assert np.max(np.abs(geom.jac_norm**2 - (1 + bp**2))) <= 1e-12
    assert np.max(np.abs((1 + bp**2) * geom.ginv11 - 1)) <= 1e-12


def test_geometry_normal_matches_graph_formula():
    spec = DiffeoSpec(amplitude=0.2, width=1.5)
    geom = build_geometry(spec, TG)
    bp = spec.bump_d1(TG.x)
    graph_normal = np.stack([bp, -np.ones_like(bp)], axis=-1)
    graph_normal /= np.sqrt(1 + bp**2)[:, None]
    assert np.max(np.abs(geom.normal - graph_normal)) <= 1e-12
    # normalization against the Jacobian column form
    assert np.max(np.abs(geom.jac_norm - np.sqrt(1 + bp**2))) <= 1e-12


def test_geometry_rejects_steep_bump():
    with pytest.raises(GeometryError):
        build_geometry(DiffeoSpec(amplitude=5.0, width=1.0), TG)


def test_bump_derivative_bounds():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    s = np.linspace(-8, 8, 4001)
    assert spec.m1 == pytest.approx(np.max(np.abs(spec.bump_d1(s))), rel=1e-4)
    assert spec.m1 < 1


def test_tensor_split_consistency():
    # F0(w) A_Phi = S(w) + zeta g3 div w I + F(w) on a random smooth field
    rng = np.random.default_rng(0)
    env = np.exp(-(TG.x[:, None] ** 2) / 4) * np.exp(-NG.nodes[None, :] / 3)
    vals = np.stack([env * rng.standard_normal(), env * (1 + 1j)], axis=-1)
    w = HalfSpaceField(vals, TG, NG, "physical")
    spec = DiffeoSpec(amplitude=0.1, width=2.0)
    gap = consistency_gap(w, spec, BASE)
    assert gap <= 1e-12
    gap = consistency_gap(w, spec, FluidParams(zeta=0.3, zeta0=1.0))
    assert gap <= 1e-12


# -- pullback ---------------------------------------------------------------

def test_pullback_identity_map():
    spec = DiffeoSpec(amplitude=0.0)
    geom = build_geometry(spec, TG)
    f, g, k = vector_data()
    Fp, Gp, Kp = pullback_data(sample_data(f, g, k, spec, TG, NG), geom, TG, NG)
    X1 = TG.x[:, None]
    X2 = NG.nodes[None, :]
    assert np.max(np.abs(Fp.values - f(X1, X2))) <= 1e-14
    assert np.max(np.abs(Gp.values - g(TG.x, 0 * TG.x))) <= 1e-14
    assert np.max(np.abs(Kp.values[..., 0] - k(TG.x, 0 * TG.x))) <= 1e-14


def test_pullback_constant_field():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    geom = build_geometry(spec, TG)

    def f(x1, x2):
        return np.stack([np.ones_like(x1), 2.0 * np.ones_like(x1)], axis=-1)

    samples = sample_data(f, f, lambda a, b: np.ones_like(a), spec, TG, NG)
    Fp, _, _ = pullback_data(samples, geom, TG, NG)
    assert np.max(np.abs(Fp.values[..., 0] - 1.0)) <= 1e-14
    assert np.max(np.abs(Fp.values[..., 1] - 2.0)) <= 1e-14


def test_pullback_norm_equivalence():
    from resolvlab.grids import discrete_norm

    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    geom = build_geometry(spec, TG)
    f_exact, g, k = vector_data()
    Fp, Gp, Kp = pullback_data(sample_data(f_exact, g, k, spec, TG, NG), geom, TG, NG)
    X1 = TG.x[:, None]
    T2 = NG.nodes[None, :] + spec.bump(X1)
    assert np.max(np.abs(Fp.values - f_exact(X1, T2))) <= 1e-14
    # measured pullback-norm equivalence constant stays order one
    C = discrete_norm(Fp) / discrete_norm(
        HalfSpaceField(f_exact(X1, NG.nodes[None, :] * np.ones_like(X1)), TG, NG))
    assert 0.5 <= C <= 2.0


# -- perturbation operators -------------------------------------------------

def smooth_iterate(seed=1):
    rng = np.random.default_rng(seed)
    env = np.exp(-(TG.x[:, None] ** 2) / 4) * np.exp(-NG.nodes[None, :] / 3)
    w = HalfSpaceField(np.stack([rng.standard_normal() * env,
                                 rng.standard_normal() * env], axis=-1),
                       TG, NG, "physical")
    H = BoundaryField((rng.standard_normal()
                       * np.exp(-(TG.x**2) / 4)).astype(complex), TG, "physical")
    return w, H


def test_perturbation_identity_diffeo_is_zero():
    spec = DiffeoSpec(amplitude=0.0)
    geom = build_geometry(spec, TG)
    w, H = smooth_iterate()
    R1, R2, R3 = apply_perturbation(w, H, geom, BASE)
    assert np.max(np.abs(R1.values)) == 0.0
    assert np.max(np.abs(R2.values)) == 0.0
    assert np.max(np.abs(R3.values)) == 0.0


def test_perturbation_height_part_linear_in_H():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    geom = build_geometry(spec, TG)
    w, H = smooth_iterate()
    zero_w = HalfSpaceField(np.zeros_like(w.values), TG, NG, "physical")
    zero_H = BoundaryField(np.zeros_like(H.values), TG, "physical")
    _, R2_H, _ = apply_perturbation(zero_w, H, geom, BASE)
    _, R2_0, _ = apply_perturbation(zero_w, zero_H, geom, BASE)
    assert np.max(np.abs(R2_0.values)) == 0.0
    assert np.max(np.abs(R2_H.values)) > 0.0


def test_perturbation_linearity():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    geom = build_geometry(spec, TG)
    w, H = smooth_iterate()
    R1a, R2a, R3a = apply_perturbation(w, H, geom, BASE)
    w2 = HalfSpaceField(2.0 * w.values, TG, NG, "physical")
    H2 = BoundaryField(2.0 * H.values, TG, "physical")
    R1b, R2b, R3b = apply_perturbation(w2, H2, geom, BASE)
    for a, b in ((R1a, R1b), (R2a, R2b), (R3a, R3b)):
        assert np.max(np.abs(b.values - 2 * a.values)) <= 1e-12 * max(
            1e-30, np.max(np.abs(b.values)))


# -- Neumann solve ----------------------------------------------------------

def test_neumann_identity_diffeo_matches_flat():
    spec = DiffeoSpec(amplitude=0.0)
    f, g, k = vector_data()
    v, h, state = neumann_solve(f, g, k, spec, BASE, 16.0, TG, NG)
    assert state.converged
    assert state.iterations <= 1

    geom = build_geometry(spec, TG)
    Fp, Gp, Kp = pullback_data(sample_data(f, g, k, spec, TG, NG), geom, TG, NG)
    from resolvlab.grids import physical_values
    flat_v, flat_h = map(physical_values,
                         solve_reduced_resolvent(Fp, Gp, Kp, BASE, 16.0, zeta=0.0))
    assert v.space == h.space == "physical"
    scale = np.abs(flat_v).max()
    assert np.max(np.abs(v.values - flat_v)) <= 1e-12 * scale
    assert np.max(np.abs(h.values - flat_h)) <= 1e-12 * np.abs(flat_h).max()


def test_neumann_bump_converges_and_residual():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    f, g, k = vector_data()
    v, h, state = neumann_solve(f, g, k, spec, BASE, 16.0, TG, NG, tol=1e-9)
    assert state.converged
    assert all(r < 0.5 for r in state.ratios)
    assert state.residuals["interior"] <= 1e-6
    assert state.residuals["stress"] <= 1e-6
    assert state.residuals["kinematic"] <= 1e-6


@pytest.mark.parametrize("params", [
    FluidParams(zeta=0.3),
    FluidParams(zeta=0.3, gamma1=2.0, gamma3=1.5, rho2=2.0, rho3=1.5),
])
def test_neumann_solves_the_configured_zeta(params):
    # the fixed point and its residual check both read params.zeta, so the
    # zeta = 0.3 solution differs from the zeta = 0 one and still passes
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    f, g, k = vector_data()
    flat_params = FluidParams(**{**params.__dict__, "zeta": 0.0})
    v0, _, _ = neumann_solve(f, g, k, spec, flat_params, 16.0, TG, NG, tol=1e-9)
    v, _, state = neumann_solve(f, g, k, spec, params, 16.0, TG, NG, tol=1e-9)
    assert state.converged
    assert np.max(np.abs(v.values - v0.values)) >= 1e-3 * np.abs(v0.values).max()
    assert max(state.residuals.values()) <= 1e-9, state.residuals


def test_neumann_builds_the_geometry_and_samples_the_data_once(monkeypatch):
    # the pullback and the residual share one geometry and one sampling
    import resolvlab.bent as bent

    calls = dict.fromkeys(("geometry", "f", "g", "k"), 0)
    build = bent.build_geometry

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(bent, "build_geometry", counted("geometry", build))
    f, g, k = (counted(name, fn) for name, fn in zip("fgk", vector_data()))
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    v, h, state = neumann_solve(f, g, k, spec, BASE, 16.0, TG, NG, tol=1e-9)
    assert calls == {"geometry": 1, "f": 1, "g": 1, "k": 1}
    samples = sample_data(*vector_data(), spec, TG, NG)
    assert bent_residual(v, h, samples, build(spec, TG), BASE, 16.0) == state.residuals


def test_neumann_zero_data_converge_at_once():
    # update and data norm are both 0: the first update already meets tol
    def zero(x1, x2):
        return np.zeros(np.shape(x1) + (2,))

    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    v, h, state = neumann_solve(zero, zero, lambda x1, x2: np.zeros_like(x1),
                                spec, BASE, 16.0, TG, NG)
    assert state.converged
    assert state.iterations == 1
    assert state.residuals == {"interior": 0.0, "stress": 0.0, "kinematic": 0.0}
    assert not np.any(v.values) and not np.any(h.values)


def test_neumann_divergence_needs_three_ratios_in_a_row(monkeypatch):
    # scripted update norms: the NaN ratio at iteration 4 ends the first
    # streak, and the NaN norm gives iteration 5 no ratio; the second
    # streak of ratios >= 1 ends the solve at iteration 8
    import resolvlab.bent as bent

    norms = iter([1.0, 1.0, 2.0, 4.0, math.nan, 8.0, 16.0, 32.0, 64.0])
    monkeypatch.setattr(bent, "data_norm", lambda *fields: next(norms))
    monkeypatch.setattr(bent, "_perturb_of_data", lambda Z, *args: Z)
    with pytest.raises(DivergenceError, match="after 8 iterations") as err:
        neumann_solve(*vector_data(), DiffeoSpec(), BASE, 16.0, TG, NG)
    assert err.value.ratio == 2.0


def test_contraction_ratio_monotone_in_amplitude():
    ratios = []
    for a in (0.01, 0.02, 0.04):
        spec = DiffeoSpec(amplitude=a, width=2.0)
        ratios.append(contraction_ratio(spec, BASE, 16.0, TG, NG, n_probes=4))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] < 0.5


def test_neumann_geometric_decay_matches_proxy():
    spec = DiffeoSpec(amplitude=0.05, width=2.0)
    f, g, k = vector_data()
    _, _, state = neumann_solve(f, g, k, spec, BASE, 16.0, TG, NG, tol=1e-11)
    proxy = contraction_ratio(spec, BASE, 16.0, TG, NG, n_probes=8)
    tail = [r for r in state.ratios[1:] if r > 0]
    assert tail, "expected at least two contraction steps"
    # iterate-update decay tracks the operator-norm proxy within ~its size
    assert max(tail) <= 2.0 * proxy
