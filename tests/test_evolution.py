import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvlab.evolution import (
    ContourError,
    ContourSpec,
    PADE13,
    THETA13,
    DimensionCapError,
    PerModeGenerator,
    apply_full,
    build_generator,
    matrix_exponential_oracle,
    pack_state,
    propagate_contour,
    unpack_state,
)
from resolvlab.grids import NormalGrid
from resolvlab.regions import FluidParams, SectorSpec
from tests.test_halfspace import physical_lame_operator, physical_lame_stress_rows

BASE = FluidParams()
NON_UNIT = FluidParams(mu=0.7, nu=1.9, sigma=1.3, m=0.8, gamma1=1.4, gamma3=2.1,
                       rho2=1.4, rho3=2.1)
NG = NormalGrid(points=48, truncation=20.0)


def shifted_stable_matrix(n, seed, margin=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)
    return A, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def reference_propagate_contour(A, U0, t, contour):
    """The dense contour path: one LU of z_k - A per node."""
    z, w = contour.nodes_weights(t)
    eye = np.eye(A.shape[0])
    out = np.zeros_like(U0)
    for zk, wk in zip(z, w):
        out = out + wk * cmath.exp(zk * t) * np.linalg.solve(zk * eye - A, U0)
    return out


def reference_build_generator(xi, params, ngrid):
    """The complex reduced generator in the physical variables (eta, u_r, u_N, h)."""
    n = ngrid.points
    D = ngrid.diff
    Ident = np.eye(n)
    mu, nu = params.mu, params.nu
    g1, g2 = params.gamma1, params.gamma2
    sg, m = params.sigma, params.m

    dim_full = 3 * n + 1
    i_eta, i_r, i_N = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    i_vel = slice(n, 3 * n)
    i_h = dim_full - 1

    A = np.zeros((dim_full, dim_full), dtype=complex)
    A[i_eta, i_r] += -g1 * 1j * xi * Ident
    A[i_eta, i_N] += -g1 * D
    r = np.array([xi])
    A[i_vel, i_vel] -= physical_lame_operator(0.0, mu / g1, nu / g1, r, D, ngrid.diff2)[0]
    A[i_r, i_eta] += -(g2 / g1) * 1j * xi * Ident
    A[i_N, i_eta] += -(g2 / g1) * D
    A[i_h, i_N.start] = -1.0

    C = np.zeros((4, dim_full), dtype=complex)
    C[:2, i_vel] = physical_lame_stress_rows(mu, nu - mu, r, D)[0]
    C[1, 0] = -g2
    C[1, i_h] = sg * (m + xi * xi)
    C[2, 2 * n - 1] = C[3, 3 * n - 1] = 1.0

    b_idx = [n, 2 * n, 2 * n - 1, 3 * n - 1]
    r_idx = [i for i in range(dim_full) if i not in set(b_idx)]
    Xel = -np.linalg.solve(C[:, b_idx], C[:, r_idx])
    dim_red = len(r_idx)
    R = np.zeros((dim_full, dim_red), dtype=complex)
    R[r_idx, np.arange(dim_red)] = 1.0
    R[b_idx, :] = Xel
    P = np.zeros((dim_red, dim_full))
    P[np.arange(dim_red), r_idx] = 1.0
    return P @ A @ R


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def propagate_one(A, U0, t, contour):
    return propagate_contour(A, U0, [t], contour)[0][0]


fluids = st.builds(
    lambda mu, nu, sigma, m, gamma1, gamma3, zeta: FluidParams(
        mu=mu, nu=nu, sigma=sigma, m=m, gamma1=gamma1, gamma3=gamma3, zeta=zeta,
        rho1=gamma1, rho2=gamma1, rho3=gamma3),
    st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.0, 3.0), st.floats(0.1, 3.0),
    st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.complex_numbers(max_magnitude=1.0))


# -- oracle -----------------------------------------------------------------

def test_oracle_identity_and_diagonal():
    U0 = np.array([1.0, 2.0], dtype=complex)
    # t A = 0 takes no scaling and gives the identity to rounding
    for A, t in ((np.zeros((2, 2)), 3.0), (np.eye(2), 0.0)):
        assert np.allclose(matrix_exponential_oracle(A, U0, [t])[0], U0, rtol=1e-15, atol=0)
    gen = np.diag([-1.0, -2.0])
    out = matrix_exponential_oracle(gen, np.array([1.0, 1.0]), [1.0])[0]
    assert out[0] == pytest.approx(math.exp(-1), rel=1e-14)
    assert out[1] == pytest.approx(math.exp(-2), rel=1e-14)


def test_oracle_nilpotent():
    gen = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = matrix_exponential_oracle(gen, np.array([0.0, 1.0]), [1.0])[0]
    assert np.allclose(out, [1.0, 1.0], atol=1e-15)
    # e^{tN} = I + tN + t^2 N^2 / 2 for the 3 x 3 shift, also when tN is scaled
    shift = np.diag([1.0, 1.0], k=1)
    for t in (0.5, 40.0):
        exact = np.eye(3) + t * shift + t * t / 2 * shift @ shift
        assert np.allclose(matrix_exponential_oracle(shift, np.eye(3), [t])[0], exact,
                           rtol=1e-14, atol=1e-14 * t * t)


@pytest.mark.parametrize("omega, t", [(1.0, 0.3), (2.5, 1.0), (7.0, 20.0)])
def test_oracle_rotation(omega, t):
    # e^{t [[0, -w], [w, 0]]} is the rotation by w t, scaled or not
    gen = np.array([[0.0, -omega], [omega, 0.0]])
    c, s = math.cos(omega * t), math.sin(omega * t)
    out = matrix_exponential_oracle(gen, np.eye(2), [t])[0]
    assert np.allclose(out, [[c, -s], [s, c]], rtol=0, atol=1e-13)


def test_oracle_matches_scipy_on_the_baseline_generator():
    from scipy.linalg import expm

    A = build_generator(0.5, BASE, NormalGrid(96, 20.0)).matrix
    eye = np.eye(A.shape[0])
    for t in (0.1, 0.5, 1.0, 2.0):
        assert _rel(matrix_exponential_oracle(A, eye, [t])[0], expm(t * A)) <= 1e-10, t


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("norm", [1e-3, 0.8, 10.0])
def test_oracle_matches_scipy_on_random_matrices(seed, norm):
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    n = 2 + 7 * seed
    A = rng.standard_normal((n, n))
    if seed % 2:
        A = A + 1j * rng.standard_normal((n, n))
    A = A * (norm / np.linalg.norm(A, 1))
    assert _rel(matrix_exponential_oracle(A, np.eye(n), [1.0])[0], expm(A)) <= 1e-13


def test_oracle_dimension_cap():
    with pytest.raises(DimensionCapError):
        matrix_exponential_oracle(np.eye(2001), np.zeros(2001), [1.0])


def reference_oracle(A, U0, t):
    """e^{t A} U0 for one t: its own scaling, Pade(13) approximant and squarings."""
    X = t * A
    norm = np.linalg.norm(X, 1)
    s = math.ceil(math.log2(norm / THETA13)) if norm > THETA13 else 0
    X = X / 2.0 ** s
    b = PADE13
    ident = np.eye(X.shape[0])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E @ np.asarray(U0, dtype=complex)


def _baseline_generator_and_state():
    A = build_generator(0.5, BASE, NormalGrid(96, 20.0)).matrix
    rng = np.random.default_rng(7)
    return A, rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])


@pytest.mark.parametrize("times", [[0.1, 0.5, 1.0, 2.0], [2.0, 0.1, 1.0, 0.5], [1.0, 1.0],
                                   [0.3, 0.7], [5e-5]])
def test_oracle_shared_chains_are_the_per_time_oracle(times):
    # times whose ratios are powers of two share one approximant and one
    # squaring chain, and each reads its state off it bit for bit
    A, U0 = _baseline_generator_and_state()
    assert np.linalg.norm(A, 1) == pytest.approx(8.70e4, rel=1e-3)
    if times == [5e-5]:
        assert np.linalg.norm(5e-5 * A, 1) <= THETA13   # s = 0: no squaring
    states = matrix_exponential_oracle(A, U0, times)
    assert states.shape == (len(times), A.shape[0])
    for t, state in zip(times, states):
        assert np.array_equal(state, reference_oracle(A, U0, t)), t


def test_oracle_shared_chains_on_a_complex_matrix():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    times = [0.25, 3.0, 0.5, 1.0, 0.7]
    states = matrix_exponential_oracle(A, np.eye(30), times)
    for t, state in zip(times, states):
        assert np.array_equal(state, reference_oracle(A, np.eye(30), t)), t


@pytest.mark.parametrize("times, chains", [([0.1, 0.5, 1.0, 2.0], 2),
                                           ([0.1, 0.2, 0.3, 0.6, 1.2, 2.0], 3),
                                           ([0.3, 0.7], 2)])
def test_oracle_solves_once_per_chain(monkeypatch, times, chains):
    # at the baseline, s = 11, 13, 14, 15 for t = 0.1, 0.5, 1, 2: t = 0.1
    # makes one chain and t = 0.5, 1, 2 the other
    A, U0 = _baseline_generator_and_state()
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    matrix_exponential_oracle(A, U0, times)
    assert solves == [A.shape] * chains


def test_oracle_working_set():
    # The traced peak of the oracle at the baseline times, in float64 n x n
    # arrays (n = 285).  One approximant and squaring chain per time, with
    # out-of-place sums, peaked at 10.0; the in-place approximant peaks at
    # 6.0, with X, X^2, X^4, X^6 and two partial sums of U alive.
    import tracemalloc

    A, U0 = _baseline_generator_and_state()
    unit = A.nbytes
    tracemalloc.start()
    try:
        matrix_exponential_oracle(A, U0, [0.1, 0.5, 1.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * unit, peak / unit


# -- contour ----------------------------------------------------------------

def test_contour_scalar_benchmark():
    gen = np.array([[-1.0 + 0j]])
    spec = ContourSpec(nodes=32)
    out = propagate_one(gen, np.array([1.0 + 0j]), 1.0, spec)
    assert abs(out[0] - math.exp(-1)) <= 1e-8


def test_contour_vs_oracle_random_40():
    A, U0 = shifted_stable_matrix(40, seed=0)
    spec = ContourSpec(nodes=48)
    for t in (0.1, 0.5, 1.0, 2.0):
        exact = matrix_exponential_oracle(A, U0, [t])[0]
        approx = propagate_one(A, U0, t, spec)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel <= 1e-6, (t, rel)


@pytest.mark.parametrize("case", ["generator_96", "random_40"])
def test_contour_schur_matches_dense_reference(case):
    if case == "generator_96":
        A = build_generator(0.5, BASE, NormalGrid(96, 20.0)).matrix
        rng = np.random.default_rng(7)
        U0 = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    else:
        A, U0 = shifted_stable_matrix(40, 0)
    spec = ContourSpec(nodes=48)
    times = (0.1, 0.5, 1.0, 2.0)
    states, margin, _, _ = propagate_contour(A, U0, times, spec)
    # the margin is the nodes' distance to the eigenvalues
    nodes = np.concatenate([spec.nodes_weights(t)[0] for t in times])
    assert margin == pytest.approx(np.abs(nodes[:, None] - np.linalg.eigvals(A)).min(), rel=1e-8)
    for t, approx in zip(times, states):
        # the nodes come in ascending Im z, the order the dense path summed them in
        assert np.all(np.diff(spec.nodes_weights(t)[0].imag) > 0)
        # one call for all times gives each time's state bit for bit
        assert np.array_equal(approx, propagate_one(A, U0, t, spec))
        assert _rel(approx, reference_propagate_contour(A, U0, t, spec)) <= 1e-11, t
        assert _rel(approx, matrix_exponential_oracle(A, U0, [t])[0]) <= 1e-10, t


def test_contour_real_schur_matches_dense_reference():
    # a real matrix has eigenvalues in conjugate pairs, and complex
    # eigenvectors for them
    A, U0 = shifted_stable_matrix(40, seed=8)
    A = A.real - (np.max(np.linalg.eigvals(A.real).real) + 1.0) * np.eye(40)
    assert np.any(np.linalg.eigvals(A).imag != 0)
    spec = ContourSpec(nodes=48)
    times = (0.1, 0.5, 1.0, 2.0)
    states, margin, _, _ = propagate_contour(A, U0, times, spec)
    nodes = np.concatenate([spec.nodes_weights(t)[0] for t in times])
    assert margin == pytest.approx(np.abs(nodes[:, None] - np.linalg.eigvals(A)).min(), rel=1e-8)
    for t, approx in zip(times, states):
        assert _rel(approx, reference_propagate_contour(A, U0, t, spec)) <= 1e-11, t


@settings(max_examples=20, deadline=None, derandomize=True)
@given(params=fluids, xi=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
       n=st.sampled_from([16, 24, 48]))
def test_contour_eig_path_matches_dense_reference(params, xi, n):
    # the eigenvector method is exact arithmetic's dense path; its rounding
    # stays small while the generator's eigenvectors are well conditioned
    A = build_generator(xi, params, NormalGrid(points=n, truncation=20.0)).matrix
    rng = np.random.default_rng(n)
    U0 = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    spec = ContourSpec(nodes=48)
    times = (0.1, 0.5, 1.0, 2.0)
    states, _, condition, _ = propagate_contour(A, U0, times, spec)
    assert condition == pytest.approx(np.linalg.cond(np.linalg.eig(A)[1]), rel=1e-12)
    for t, approx in zip(times, states):
        assert _rel(approx, reference_propagate_contour(A, U0, t, spec)) <= 1e-10, (t, condition)


def test_contour_falls_back_to_dense_solves_on_an_inaccurate_decomposition():
    # a surface tension near 0 is a tiny coupling that LAPACK's balancing
    # amplifies: the decomposition's residual is far above rounding, and
    # its eigenvector sum misses the dense path, so every node is solved
    A = build_generator(0.1, FluidParams(sigma=1e-20), NormalGrid(48, 20.0)).matrix
    lam, V = np.linalg.eig(A)
    assert np.linalg.norm(A @ V - V * lam) > 1e3 * np.finfo(float).eps * np.linalg.norm(A)
    U0 = np.random.default_rng(3).standard_normal(A.shape[0]) + 0j
    spec = ContourSpec(nodes=48)
    times = (0.1, 2.0)
    states, _, _, path = propagate_contour(A, U0, times, spec)
    assert path == "dense"
    for t, approx in zip(times, states):
        reference = reference_propagate_contour(A, U0, t, spec)
        assert _rel(approx, reference) <= 1e-12, t
        z, w = spec.nodes_weights(t)
        eig_sum = V @ (np.linalg.solve(V, U0) * ((1.0 / (z - lam[:, None])) @ (w * np.exp(z * t))))
        assert _rel(eig_sum, reference) > 1e-9, t


def test_contour_strong_continuity_at_zero():
    # drift at small t is t ||A U0|| to leading order; normalize the
    # generator so the intrinsic drift sits at the 1e-4 scale
    A, U0 = shifted_stable_matrix(20, seed=1)
    A = 0.05 * A / np.linalg.norm(A, 2)
    spec = ContourSpec(nodes=64)
    out = propagate_one(A, U0, 1e-3, spec)
    drift = np.linalg.norm(out - U0) / np.linalg.norm(U0)
    assert drift <= 1e-4
    exact = matrix_exponential_oracle(A, U0, [1e-3])[0]
    assert np.linalg.norm(out - exact) / np.linalg.norm(exact) <= 1e-8


def test_contour_node_refinement():
    A, U0 = shifted_stable_matrix(24, seed=2)
    exact = matrix_exponential_oracle(A, U0, [0.7])[0]
    errs = []
    for M in (12, 24, 48):
        approx = propagate_one(A, U0, 0.7, ContourSpec(nodes=M))
        errs.append(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse / 10 or fine <= 1e-10


def test_contour_nodes_inside_lambda_region():
    A, U0 = shifted_stable_matrix(8, seed=4)
    region = SectorSpec(epsilon=math.pi / 4, lambda0=1.0, rho3_over_nu=1.0)
    propagate_contour(A, U0, [0.1, 1.0, 2.0], ContourSpec(nodes=48, offset=1.0),
                      region=region)  # raises on failure
    with pytest.raises(ContourError, match="outside Lambda region"):
        propagate_contour(A, U0, [0.1, 1.0], ContourSpec(angle=1.2, offset=0.2),
                          region=region)


def test_contour_semigroup_property():
    A, U0 = shifted_stable_matrix(20, seed=3)
    spec = ContourSpec(nodes=48)
    one = propagate_one(A, U0, 1.5, spec)
    two = propagate_one(A, propagate_one(A, U0, 0.9, spec), 0.6, spec)
    assert np.linalg.norm(one - two) / np.linalg.norm(one) <= 1e-6


def test_contour_rejects_node_on_spectrum():
    # an eigenvalue sitting exactly on a quadrature node makes the
    # resolvent solve singular
    spec = ContourSpec(nodes=32, offset=1.0)
    nodes, _ = spec.nodes_weights(1.0)
    gen = np.array([[nodes[5]]])
    with pytest.raises(ContourError):
        propagate_one(gen, np.array([1.0 + 0j]), 1.0, spec)


# -- per-mode generator -----------------------------------------------------

def test_generator_zero_state():
    gen = build_generator(0.5, BASE, NG)
    out = gen.matrix @ np.zeros(gen.dim)
    assert np.all(out == 0)


def test_generator_constant_velocity_density_row():
    # constant u with xi = 0: div u = 0, so the density row vanishes
    gen = build_generator(0.0, BASE, NG)
    n = NG.points
    eta = np.zeros(n)
    u = np.ones((n, 2), dtype=complex)
    deta, du, dh = apply_full(gen, eta, u, 0.0)
    assert np.max(np.abs(deta)) <= 1e-10


def test_generator_matches_analytic_operator():
    # smooth state satisfying the boundary rows; the reduced matrix must
    # reproduce the analytic operator action.  X = 40 keeps the profile
    # below the far-end Dirichlet closure at the comparison tolerance.
    # The non-unit case tells mu/gamma1 from nu/gamma1 and mu from nu - mu.
    xi = 0.5
    ng = NormalGrid(points=48, truncation=40.0)
    t = ng.nodes
    for params in (BASE, NON_UNIT):
        gen = build_generator(xi, params, ng)
        mu, nu, g1, g2 = params.mu, params.nu, params.gamma1, params.gamma2
        sg, m = params.sigma, params.m

        # u_t = c_t e^{-t}(t + a_t), u_N = c_N e^{-t}(t^2 + b_N t + c0), eta, h
        # chosen to satisfy the three boundary constraints at x=0 and decay
        eta = np.exp(-2 * t)

        # pick u_N with u_N(0)=1, free slope; u_t slope fixed by tangential row
        uN = np.exp(-t) * (1.0 + 0.3 * t)
        duN0 = -1.0 + 0.3
        # tangential stress: mu(u_t' + i xi u_N) = 0 at 0 -> u_t'(0) = -i xi
        ut = np.exp(-t) * (0.7 + (-1j * xi + 0.7) * t)
        # normal stress fixes h: 2 mu u_N' + (nu-mu) div - g2 eta + sg(m+xi^2) h = 0
        div0 = 1j * xi * ut[0] + duN0
        h = (g2 * eta[0] - 2 * mu * duN0 - (nu - mu) * div0) / (sg * (m + xi**2))

        u = np.stack([ut, uN], axis=-1)
        red = pack_state(gen, eta, u, h)
        out = gen.matrix @ red

        dut = np.exp(-t) * ((-1j * xi + 0.7) - (0.7 + (-1j * xi + 0.7) * t))
        d2ut = np.exp(-t) * ((0.7 + (-1j * xi + 0.7) * t) - 2 * (-1j * xi + 0.7))
        duN = np.exp(-t) * (0.3 - (1.0 + 0.3 * t))
        d2uN = np.exp(-t) * ((1.0 + 0.3 * t) - 0.6)
        deta_exact = -g1 * (1j * xi * ut + duN)
        div = 1j * xi * ut + duN
        ddiv = 1j * xi * dut + d2uN
        grad_eta = (1j * xi * eta, -2 * np.exp(-2 * t))
        dut_exact = (mu * (d2ut - xi**2 * ut) + nu * 1j * xi * div
                     - g2 * grad_eta[0]) / g1
        duN_exact = (mu * (d2uN - xi**2 * uN) + nu * ddiv - g2 * grad_eta[1]) / g1
        dh_exact = -uN[0]

        exact_red = pack_state(gen, deta_exact, np.stack([dut_exact, duN_exact], axis=-1),
                               dh_exact)
        scale = np.abs(exact_red).max()
        assert np.max(np.abs(out - exact_red)) <= 1e-6 * scale


@settings(max_examples=25, deadline=None, derandomize=True)
@given(params=fluids, xi=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       n=st.sampled_from([16, 24, 48]))
def test_generator_is_the_real_form_of_the_complex_assembly(params, xi, n):
    # S^-1 A_c S with S = diag(1 on eta, i on u_r, 1 on u_N and h) is real.
    # build_generator borders and multiplies in float64, the reference in
    # complex128, so the two round apart: by at most 0.93 eps max|A| over
    # 200 random fluids, grids and modes
    ng = NormalGrid(points=n, truncation=20.0)
    gen = build_generator(xi, params, ng)
    assert gen.matrix.dtype == np.float64
    phase = np.concatenate([np.ones(n), np.full(n - 2, 1j), np.ones(n - 1)])
    real_form = phase.conj()[:, None] * reference_build_generator(xi, params, ng) * phase
    assert np.all(real_form.imag == 0)
    scale = np.abs(real_form).max()
    assert np.abs(gen.matrix - real_form.real).max() <= 4 * np.finfo(float).eps * scale
    assert np.array_equal(gen.phase, phase)


def test_generator_roundtrip_pack_unpack():
    gen = build_generator(0.7, BASE, NG)
    rng = np.random.default_rng(5)
    red = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    eta, u, h = unpack_state(gen, red)
    red2 = pack_state(gen, eta, u, h)
    assert np.allclose(red, red2, atol=1e-12)


def test_generator_forms_no_complex_full_matrix():
    # build_generator keeps the real operator and the reduced matrix; the
    # oracles form the complex maps on demand.  In units of one float64
    # (3n+1)^2 array, the build peaks at 5.1 with the operator, R, P,
    # P @ A and the matrix alive, and holds 2.0 after it.  A complex
    # (3n+1)^2 array is 2 units more on either.
    import tracemalloc

    ng = NormalGrid(points=96, truncation=20.0)
    ng.diff, ng.diff2   # the grid's cached matrices are not the generator's
    unit = (3 * ng.points + 1) ** 2 * 8
    tracemalloc.start()
    try:
        gen = build_generator(0.5, NON_UNIT, ng)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2.5 * unit and peak < 5.5 * unit, (held / unit, peak / unit)
    assert all(np.isrealobj(a) for a in (gen.matrix, gen.operator, gen.bordering))


def test_generator_evolution_vs_oracle():
    gen = build_generator(0.5, BASE, NormalGrid(points=24, truncation=20.0))
    assert gen.dim <= 200
    rng = np.random.default_rng(6)
    U0 = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    spec = ContourSpec(nodes=48)
    for t in (0.1, 1.0, 2.0):
        exact = matrix_exponential_oracle(gen.matrix, U0, [t])[0]
        approx = propagate_one(gen.matrix, U0, t, spec)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel <= 1e-6, (t, rel)

