import math

import numpy as np
import pytest

from resolvlab.regions import (
    DegenerateCaseError,
    FluidParams,
    RegionError,
    SectorSpec,
    check_zeta_case,
    in_gamma_region,
    in_lambda_region,
    in_sigma,
)
from resolvlab.symbols import SymbolParams


def test_in_sigma_basic_points():
    assert in_sigma(1 + 0j, math.pi / 4, 1.0)
    assert not in_sigma(-1 + 0j, math.pi / 4, 0.0)
    assert in_sigma(1j, math.pi / 4, 1.0)
    assert not in_sigma(0j, math.pi / 4, 0.0)


def test_in_sigma_boundary_counts_inside():
    eps = math.pi / 4
    lam = cmathexp = complex(math.cos(math.pi - eps), math.sin(math.pi - eps))
    assert in_sigma(cmathexp, eps, 1.0)  # exactly on the ray, |lam| = lam0
    assert in_sigma(lam * (1 - 1e-13), eps, 1.0)  # within tolerance of |lam| = 1


def test_in_sigma_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        in_sigma(1.0, 0.0)
    with pytest.raises(ValueError):
        in_sigma(1.0, math.pi / 2)


def test_in_sigma_monotone_in_eps_and_lam0():
    rng = np.random.default_rng(7)
    lam = rng.normal(size=200) + 1j * rng.normal(size=200)
    lam = lam[lam != 0]
    for _ in range(50):
        e1 = rng.uniform(0.01, math.pi / 2 - 0.01)
        e2 = rng.uniform(0.01, e1)  # shrink epsilon: sector grows
        l1 = rng.uniform(0, 3)
        l2 = rng.uniform(0, l1)  # shrink lambda0: region grows
        m1 = in_sigma(lam, e1, l1)
        m2 = in_sigma(lam, e2, l2)
        assert np.all(m2 | ~m1)


def test_in_lambda_region_examples():
    spec = SectorSpec(epsilon=math.pi / 4, lambda0=1.0, rho3_over_nu=1.0)
    assert in_lambda_region(1 + 0j, spec)
    # the disk center has arg = pi and sits inside the excluded disk
    assert not in_lambda_region(-(1.0 + math.pi / 4) + 0j, spec)
    assert in_lambda_region(1j, spec)  # (r)^2 + 1 >= r^2


def test_in_gamma_region_cases():
    fp = FluidParams()
    c3 = SectorSpec(lambda0=1.0, zeta_case="C3")
    assert in_gamma_region(2 + 5j, c3, fp)
    assert not in_gamma_region(0.5 + 0j, c3, fp)
    # lambda = 0 is rejected in every case, also where lambda0 = 0
    for case, fluid in (("C1", fp), ("C2", FluidParams(zeta=-1 + 1j, zeta0=2.0)), ("C3", fp)):
        assert not in_gamma_region(0.0, SectorSpec(lambda0=0.0, zeta_case=case), fluid)
        assert in_gamma_region(1e-3, SectorSpec(lambda0=0.0, zeta_case=case), fluid)

    # C2 with zeta = -1 + i: slope |Re/Im| = 1, so need Re >= |Im| and Re >= 1
    fp2 = FluidParams(zeta=-1 + 1j, zeta0=2.0)
    c2 = SectorSpec(lambda0=1.0, zeta_case="C2")
    assert in_gamma_region(2 + 1j, c2, fp2)
    assert not in_gamma_region(2 + 3j, c2, fp2)

    fp_deg = FluidParams(zeta=-0.5, zeta0=1.0)
    with pytest.raises(DegenerateCaseError):
        in_gamma_region(2.0, c2, fp_deg)


def test_gamma_c1_equals_lambda_region():
    fp = FluidParams()
    spec = SectorSpec(lambda0=1.0, zeta_case="C1", rho3_over_nu=1.0)
    rng = np.random.default_rng(11)
    lam = rng.normal(scale=3, size=500) + 1j * rng.normal(scale=3, size=500)
    assert np.array_equal(in_gamma_region(lam, spec, fp),
                          in_lambda_region(lam, spec))


def test_check_zeta_case_returns_the_slope():
    # Re lam >= slope |Im lam|: C3's half-plane is C2's with slope 0
    c2 = SectorSpec(zeta_case="C2")
    assert check_zeta_case(c2, FluidParams(zeta=-1 + 0.5j, zeta0=2.0)) == 2.0
    for case in ("C1", "C3"):
        assert check_zeta_case(SectorSpec(zeta_case=case), FluidParams(zeta=0.5j)) == 0.0
    # a slope that overflows is as degenerate as Im zeta = 0
    with pytest.raises(DegenerateCaseError):
        check_zeta_case(c2, FluidParams(zeta=complex(-0.5, 1e-310)))


def test_gamma_c3_rejects_negative_re_zeta():
    fp = FluidParams(zeta=-0.2 + 1j, zeta0=2.0)
    with pytest.raises(RegionError):
        in_gamma_region(2.0, SectorSpec(zeta_case="C3"), fp)


def test_reduce_params_examples():
    red = SymbolParams.from_fluid(FluidParams())
    assert red.alpha == 1 and red.beta == 0 and red.zeta == 0 and red.sigma == 1

    red = SymbolParams.from_fluid(FluidParams(mu=1, nu=2, gamma1=2, rho1=1, rho2=2))
    assert red.alpha == 0.5 and red.beta == 0.5

    red = SymbolParams.from_fluid(FluidParams(gamma3=3, zeta=1j, rho3=3))
    assert red.zeta == 3j


def test_reduce_params_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        mu = rng.uniform(0.1, 5)
        nu = mu + rng.uniform(0.0, 5)
        g1 = rng.uniform(0.2, 4)
        g3 = rng.uniform(0.1, 3)
        sg = rng.uniform(0, 2)
        z = rng.normal() * 0.3 + 1j * rng.normal() * 0.3
        fp = FluidParams(mu=mu, nu=nu, sigma=sg, gamma1=g1, gamma3=g3, zeta=z,
                         zeta0=5.0, rho1=g1, rho2=g1, rho3=g3)
        red = SymbolParams.from_fluid(fp)
        assert abs(red.alpha * g1 - mu) <= 1e-15 * mu
        assert abs((red.alpha + red.beta) * g1 - nu) <= 1e-15 * nu
        assert abs(red.zeta * g1 / g3 - z) <= 1e-15 * abs(z)
        assert abs(red.sigma * g1 - sg) <= 1e-15 * max(sg, 1)


def test_sector_inequality_bulk_samples():
    # Lemma-level claim: no violations over a large admissible sample
    rng = np.random.default_rng(2024)
    n = 100_000
    eps = rng.uniform(0.05, math.pi / 2 - 0.05, size=n)
    theta = rng.uniform(-1, 1, size=n) * (math.pi - eps)
    r = 10.0 ** rng.uniform(-3, 3, size=n)
    lam = r * np.exp(1j * theta)
    a = 10.0 ** rng.uniform(-2, 2, size=n)
    xi_sq = (10.0 ** rng.uniform(-3, 3, size=n)) ** 2
    lhs = np.abs(a * lam + xi_sq)
    rhs = np.sin(eps / 2) * (a * np.abs(lam) + xi_sq)
    bad = lhs < rhs - 1e-12
    assert int(bad.sum()) == 0


def test_fluid_params_validation():
    with pytest.raises(ValueError):
        FluidParams(mu=0.0)
    with pytest.raises(ValueError):
        FluidParams(zeta=2.0, zeta0=1.0)
    with pytest.raises(ValueError):
        FluidParams(gamma1=3.0, rho2=2.0)
