import math

import mpmath
import numpy as np
import pytest

from resolvlab.symbols import (
    NearSingularError,
    SymbolParams,
    core_values,
    lopatinski_values,
    mollified_exp,
    mollified_exp_derivatives,
    njk_values,
    q_values,
)

SQ2 = math.sqrt(2.0)
BASELINE = SymbolParams(alpha=1.0, beta=0.0, zeta=0.0, sigma=1.0, m=1.0)


def factored_form(lam, xi_sq, p: SymbolParams, L):
    """The P-factored printed form of the boundary matrix: the oracle for L.

    P = lambda / (AB - xi2) in its rationalized form, and with
    slope = A/(A+B) - ((b+z)/(2a+b+z)) B/(A+B):

        L = [[A P, xi2 (2a - P)], [slope P, B P]],   det L = P D,
        D = AB P - xi2 (2a - P) slope,   N = P Ntilde,
        Ntilde = lambda D + sigma A (m + xi2),
        N = L11 E - lambda L12 L21 with E = lambda L22 + sigma (m + xi2).

    form_rel_diff is the worst relative gap between the entries of this
    form and those of L, the direct form lopatinski_values returns.
    """
    lam = np.asarray(lam, dtype=complex)
    A, B = core_values(lam, xi_sq, p)
    a, bz, s2 = p.alpha, p.beta + p.zeta, p.two_ab_z
    s3 = 3 * a + p.beta + p.zeta
    P = a * s2 * (A * B + xi_sq) / (lam + s3 * xi_sq)
    slope = A / (A + B) - (bz / s2) * B / (A + B)
    D = A * B * P - xi_sq * (2 * a - P) * slope
    mxi2 = p.m + xi_sq

    def gap(u, v):
        s = np.abs(u) + np.abs(v)
        return float(np.max(np.abs(u - v) / np.where(s > 0, s, 1.0)))

    form_rel_diff = max(gap(L.L11, A * P), gap(L.L12, xi_sq * (2 * a - P)),
                        gap(L.L21, slope * P), gap(L.L22, B * P),
                        gap(L.detL, P * D))
    return {"P": P, "D": D, "Ntilde": lam * D + p.sigma * A * mxi2,
            "E": lam * L.L22 + p.sigma * mxi2, "form_rel_diff": form_rel_diff}


def njk_at(lam, xi, p):
    """njk_values at (lam, xi), with L and Q evaluated there."""
    xi = np.asarray(xi, dtype=float)
    xi_sq = np.sum(xi**2, axis=-1)
    return njk_values(lopatinski_values(lam, xi_sq, p), q_values(lam, xi_sq, p)[0], xi, p)


def sample_region_points(n, seed, lam0=1.0, lam_hi=1e4, xi_lo=1e-3, xi_hi=1e3):
    """Re lam >= lam0 points (case C3 region at baseline zeta = 0)."""
    rng = np.random.default_rng(seed)
    re = 10.0 ** rng.uniform(np.log10(lam0), np.log10(lam_hi), size=n)
    im = rng.standard_normal(n) * re
    lam = re + 1j * im
    xi = 10.0 ** rng.uniform(np.log10(xi_lo), np.log10(xi_hi), size=n)
    xi *= rng.choice([-1.0, 1.0], size=n)
    return lam, xi


def test_core_baseline():
    A, B = core_values(1.0, 0.0, BASELINE)
    assert complex(A) == pytest.approx(1 / SQ2, abs=1e-15)
    assert complex(B) == pytest.approx(1.0, abs=1e-15)
    assert BASELINE.eta_coef == 1.0


def test_core_principal_branch():
    _, B = core_values(1j, 1.0, BASELINE)
    assert complex(B) == pytest.approx(complex(mpmath.sqrt(1 + 1j)), abs=1e-15)
    assert B.real > 0


def test_branch_consistency_bulk():
    lam, xi = sample_region_points(10_000, seed=5)
    A, B = core_values(lam, xi**2, BASELINE)
    assert np.max(np.abs(A**2 - (lam / 2 + xi**2)) / np.abs(A**2)) < 1e-14
    assert np.max(np.abs(B**2 - (lam + xi**2)) / np.abs(B**2)) < 1e-14
    assert np.all(A.real > 0) and np.all(B.real > 0)


def test_M_at_zero_and_equal_roots():
    A, B = core_values(1.0, 0.0, BASELINE)
    assert mollified_exp(A, B, 0.0) == 0.0
    # removable singularity: M -> -x e^{-Ax} as B -> A
    m = mollified_exp(1.0, 1.0, 1.0)
    assert m == pytest.approx(-math.exp(-1.0), rel=1e-12)


def test_M_baseline_against_mpmath():
    A, B = core_values(1.0, 0.0, BASELINE)
    with mpmath.workdps(40):
        a = mpmath.mpf(1) / mpmath.sqrt(2)
        exact = (mpmath.e**-1 - mpmath.e**-a) / (1 - a)
    assert mollified_exp(A, B, 1.0) == pytest.approx(float(exact), rel=1e-14)
    assert mollified_exp(A, B, 1.0) == pytest.approx(-0.4274228359774083, rel=1e-12)


def test_M_taylor_branch_matches_direct():
    # acceptance 7: at |B-A| = 1e-8 (|A|+|B|) the two branches agree
    rng = np.random.default_rng(42)
    for _ in range(200):
        A = complex(rng.uniform(0.3, 3), rng.uniform(-2, 2))
        d = 1e-8 * 2 * abs(A)
        B = A + d * complex(rng.normal(), rng.normal()) / SQ2
        x = rng.uniform(0.0, 5.0)
        direct = (np.exp(-B * x) - np.exp(-A * x)) / (B - A)
        via_code = mollified_exp(A, B, x)  # takes the Taylor branch here
        assert abs(via_code - direct) <= 1e-6 * max(abs(direct), 1e-300)


def test_M_derivative_identity():
    # central differences are the oracle for M' and M''
    lam, xi = sample_region_points(100, seed=9, lam_hi=10.0, xi_hi=3.0)
    A, B = core_values(lam, xi**2, BASELINE)
    x = np.linspace(0.5, 3.0, 6)[None, :]
    h = 1e-5
    M, M1, M2 = mollified_exp_derivatives(A[:, None], B[:, None], x)
    Mp = mollified_exp(A[:, None], B[:, None], x + h)
    Mm = mollified_exp(A[:, None], B[:, None], x - h)
    assert np.max(np.abs(M1 - (Mp - Mm) / (2 * h))) < 1e-8
    assert np.max(np.abs(M2 - (Mp - 2 * M + Mm) / h**2)) < 1e-4


def test_lopatinski_baseline_values():
    L = lopatinski_values(1.0, 0.0, BASELINE)
    F = factored_form(1.0, 0.0, BASELINE, L)
    L11, L12, L21, L22 = (complex(v) for v in (L.L11, L.L12, L.L21, L.L22))
    detL, N = complex(L.detL), complex(L.N)
    P, D, Ntilde, E = (complex(F[k]) for k in ("P", "D", "Ntilde", "E"))
    assert L11 == pytest.approx(1.0, abs=1e-14)
    assert L12 == 0.0
    assert L21 == pytest.approx(2 * (1 - 1 / SQ2), abs=1e-14)
    assert L22 == pytest.approx(SQ2, abs=1e-14)
    assert detL == pytest.approx(SQ2, abs=1e-14)
    assert P == pytest.approx(SQ2, abs=1e-14)
    assert D == pytest.approx(1.0, abs=1e-14)
    assert N == pytest.approx(SQ2 + 1, abs=1e-14)
    assert Ntilde == pytest.approx(1 + 1 / SQ2, abs=1e-14)
    assert detL == pytest.approx(P * D, rel=1e-12)
    assert N == pytest.approx(P * Ntilde, rel=1e-12)
    assert N == pytest.approx(L11 * E - P * 0, rel=1e-12)  # L12 = 0 here
    assert F["form_rel_diff"] < 1e-13


@pytest.mark.parametrize("params", [
    BASELINE,
    SymbolParams(alpha=0.7, beta=0.9, zeta=0.2 + 0.1j, sigma=2.0, m=3.0),
    SymbolParams(alpha=2.0, beta=-0.5, zeta=0.0, sigma=0.5, m=1.0),
])
def test_lopatinski_factorizations_bulk(params):
    lam, xi = sample_region_points(10_000, seed=17)
    L = lopatinski_values(lam, xi**2, params)
    F = factored_form(lam, xi**2, params, L)
    assert F["form_rel_diff"] < 1e-12
    scale = np.abs(L.N)
    assert np.max(np.abs(L.N - F["P"] * F["Ntilde"]) / scale) < 1e-12
    assert np.max(np.abs(L.N - (L.L11 * F["E"] - lam * L.L12 * L.L21)) / scale) < 1e-12
    assert np.max(np.abs(L.detL - F["P"] * F["D"]) / np.abs(L.detL)) < 1e-12


def test_lopatinski_near_singular_guard():
    # AB = |xi|^2 happens only off the region; force it through lambda -> 0
    with pytest.raises(NearSingularError):
        lopatinski_values(1e-300, 1.0, BASELINE)


def test_lopatinski_n_floor_guard(monkeypatch):
    # |N| = 1 + sqrt 2 at lam = 1, xi = 0; a floor above it trips the guard
    from resolvlab import symbols

    monkeypatch.setattr(symbols, "N_FLOOR", 10.0)
    with pytest.raises(symbols.SingularSymbolError):
        lopatinski_values(1.0, 0.0, BASELINE)
    assert complex(lopatinski_values(1.0, 0.0, BASELINE, check=False).N) == \
        pytest.approx(SQ2 + 1, abs=1e-14)


def test_q_values_baseline():
    Q, Qp = q_values(1.0, 0.0, BASELINE)
    assert complex(Q) == pytest.approx(-1 / SQ2, abs=1e-14)
    assert complex(Qp) == pytest.approx(SQ2, abs=1e-14)


def test_q_limits_along_xi_ray():
    # |xi| -> infinity with lambda fixed: xi^2 - A^2 stays at -lambda/(2a+b+z),
    # so Q tends to the finite constant -2a/(3a+b+z) (order 0, as its
    # multiplier class asserts) while Q' decays like |xi|^-2.
    lam = 2.0 + 1.0j
    xis = 10.0 ** np.linspace(0, 3, 8)
    Q = np.array([q_values(lam, x**2, BASELINE)[0] for x in xis])
    Qp = np.array([q_values(lam, x**2, BASELINE)[1] for x in xis])
    assert abs(Q[-1] - (-2.0 / 3.0)) < 1e-5
    assert np.all(np.abs(Q) < 1.0)
    assert np.all(np.abs(Qp[1:]) < np.abs(Qp[:-1]))
    assert abs(Qp[-1]) < 2e-6


def test_njk_baseline():
    n_t1, n_t2, n_N1, n_N2 = njk_at(1.0, [0.0], BASELINE)
    assert n_t1.shape == n_t2.shape == (1,)
    assert n_t1[0] == 0 and n_t2[0] == 0  # i xi_j factor at xi = 0
    assert complex(n_N2) == pytest.approx(1 / (1 + SQ2), abs=1e-14)
    # at xi = 0, Q = -A/B so n_N1 = -sigma A^2 / ((A+B) N)
    expect = -0.5 / ((1 / SQ2 + 1) * (SQ2 + 1))
    assert complex(n_N1) == pytest.approx(expect, abs=1e-14)
    assert complex(n_N1) == pytest.approx(-0.12132034355964258, rel=1e-12)


def test_njk_vectorized_matches_pointwise():
    lam, xi = sample_region_points(50, seed=23)
    nt1, nt2, nN1, nN2 = njk_at(lam, xi[:, None], BASELINE)
    for i in range(0, 50, 7):
        st1, _, sN1, sN2 = njk_at(lam[i], [xi[i]], BASELINE)
        assert complex(st1[0]) == pytest.approx(nt1[i, 0], rel=1e-14)
        assert complex(sN1) == pytest.approx(nN1[i], rel=1e-14)
        assert complex(sN2) == pytest.approx(nN2[i], rel=1e-14)


def test_core_region_rejection_happens_at_solver_level():
    # symbol evaluation itself is pure algebra; |lambda| < lambda0 is fine here
    _, B = core_values(1e-4, 0.0, BASELINE)
    assert B.real > 0


def _count_kernels(monkeypatch):
    """Count the calls of the four kernels through every resolvlab alias."""
    import sys

    from resolvlab import symbols

    calls = dict.fromkeys(("core_values", "lopatinski_values", "q_values", "njk_values"), 0)
    for name in calls:
        orig = getattr(symbols, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("resolvlab") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_shared_evaluation_computes_each_kernel_once(monkeypatch):
    # every table symbol projects one evaluation: each kernel runs once,
    # and each symbol's values are bitwise those of its own evaluation
    from resolvlab.symbols import SYMBOLS, evaluate_symbols

    lam, xi = sample_region_points(40, seed=5)
    names = list(SYMBOLS)
    alone = [evaluate_symbols([name], lam, xi[:, None], BASELINE)[0] for name in names]
    calls = _count_kernels(monkeypatch)
    shared = evaluate_symbols(names, lam, xi[:, None], BASELINE)
    assert calls == dict.fromkeys(calls, 1)
    for name, values, own in zip(names, shared, alone):
        assert np.array_equal(values, own, equal_nan=True), name


@pytest.mark.parametrize("name,kernels", [
    ("A", {"core_values": 1}),
    ("Qprime", {"core_values": 1, "q_values": 1}),
    ("L21", {"core_values": 1, "lopatinski_values": 1}),
    ("nN1", {"core_values": 1, "lopatinski_values": 1, "q_values": 1, "njk_values": 1}),
])
def test_one_symbol_evaluates_only_its_kernels(monkeypatch, name, kernels):
    from resolvlab.symbols import evaluate_symbols

    lam, xi = sample_region_points(10, seed=6)
    calls = _count_kernels(monkeypatch)
    evaluate_symbols([name], lam, xi[:, None], BASELINE)
    assert {k: v for k, v in calls.items() if v} == kernels
