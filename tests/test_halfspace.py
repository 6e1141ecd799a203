import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resolvlab.grids import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    TangentialGrid,
    spectral_values,
)
from resolvlab.halfspace import (
    QuadratureError,
    ResolventData,
    VolevichQuadrature,
    azimuthal_operator,
    chebyshev_interp_matrix,
    extend_boundary_datum,
    lame_operator,
    lame_stress_rows,
    smooth_cutoff,
    solve_full_resolvent,
    solve_lame_bvp,
    solve_surface_homogeneous,
    solve_surface_volevich,
    surface_mode_profiles,
)
from resolvlab.regions import FluidParams, SectorSpec, in_gamma_region
from resolvlab.symbols import SymbolParams, core_values, lopatinski_values

SQ2 = math.sqrt(2.0)
BASE = FluidParams()
NON_UNIT = FluidParams(mu=0.7, nu=1.9, sigma=1.3, m=0.8, gamma1=1.4, gamma3=2.1,
                       rho2=1.4, rho3=2.1)
TG = TangentialGrid(points=64, half_length=8.0)
NG = NormalGrid(points=96, truncation=20.0)


def delta_boundary(tg, value=1.0, mode=0):
    """Spectral boundary field concentrated on a single mode."""
    vals = np.zeros(tg.mode_shape, dtype=complex)
    vals[mode] = value
    return BoundaryField(vals, tg, space="spectral")


def gaussian_boundary(tg, width=1.0, scale=1.0):
    vals = scale * np.exp(-tg.x**2 / (2 * width**2))
    return BoundaryField(vals.astype(complex), tg)


def admissible_sector(params):
    """Gamma(pi/4, 1) of a fixed zeta: case C3 for Re zeta >= 0, else C2."""
    return SectorSpec(zeta_case="C3" if params.zeta.real >= 0 else "C2",
                      rho3_over_nu=params.rho3 / params.nu)


def test_smooth_cutoff_profile():
    s = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    phi = smooth_cutoff(s)
    assert np.all(phi[:3] == 1.0)
    assert 0 < phi[3] < 1
    assert phi[4] == 0.0 and phi[5] == 0.0


def test_chebyshev_interp_matrix_reproduces_nodes():
    ng = NormalGrid(points=24, truncation=10.0)
    I = chebyshev_interp_matrix(ng.nodes, ng.nodes)
    assert np.max(np.abs(I - np.eye(24))) < 1e-12
    y = np.linspace(0, 10, 57)
    I = chebyshev_interp_matrix(ng.nodes, y)
    f = np.exp(-ng.nodes)
    assert np.max(np.abs(I @ f - np.exp(-y))) < 1e-10


def test_surface_zero_mode_kinematic_identity():
    # xi = 0, khat = 1, lam = 1: h = sqrt(2)/(1+sqrt(2)) and lam h + u_N(0) = 1
    k = delta_boundary(TG)
    u, h = solve_surface_homogeneous(k, BASE, 1.0, NG)
    h00 = complex(h.values[0, 0])
    assert h00 == pytest.approx(SQ2 / (1 + SQ2), abs=1e-12)
    uN0 = complex(u.values[0, 0, TG.dims])
    assert 1.0 * h00 + uN0 == pytest.approx(1.0, abs=1e-12)
    # tangential components vanish on the zero mode (i xi_j factor)
    assert np.max(np.abs(u.values[0, :, 0])) == 0.0


def test_surface_zero_data_gives_zero():
    k = BoundaryField(np.zeros(64, dtype=complex), TG, space="spectral")
    u, h = solve_surface_homogeneous(k, BASE, 2.0 + 1.0j, NG)
    assert np.all(u.values == 0) and np.all(h.values == 0)


def test_surface_kinematic_identity_all_modes():
    # a physical datum gives the spectral solution
    k = gaussian_boundary(TG)
    lam = 3.0 + 2.0j
    u, h = solve_surface_homogeneous(k, BASE, lam, NG)
    assert u.space == h.space == "spectral"
    khat = spectral_values(k)[..., 0]
    resid = lam * h.values[..., 0] + u.values[..., 0, TG.dims] - khat
    scale = np.abs(khat).max()
    assert np.max(np.abs(resid)) <= 1e-10 * scale


def profiles_and_derivatives(lam, p, khat):
    """u, its analytic x-derivatives du and d2u, and hhat, all from surface_mode_profiles."""
    (u, hhat), (du, _), (d2u, _) = (surface_mode_profiles(lam, TG, NG, p, khat, order)
                                    for order in range(3))
    return u, du, d2u, hhat


def test_surface_boundary_stress_rows():
    # tangential: a(d_N u_j + i xi_j u_N) = 0; normal: 2a d_N u_N +
    # (b+z) div u + s(m+xi^2) h = 0, all at x = 0, analytically differentiated
    lam = 2.0 + 1.5j
    p = SymbolParams.from_fluid(BASE)
    k = gaussian_boundary(TG)
    khat = spectral_values(k)[..., 0]
    u, du, d2u, hhat = profiles_and_derivatives(lam, p, khat)
    xi = TG.xi[..., 0]
    amp = np.abs(khat).max()

    tang = p.alpha * (du[..., 0, 0] + 1j * xi * u[..., 0, TG.dims])
    assert np.max(np.abs(tang)) <= 1e-8 * amp

    div0 = 1j * xi * u[..., 0, 0] + du[..., 0, TG.dims]
    norm = (2 * p.alpha * du[..., 0, TG.dims] + (p.beta + p.zeta) * div0
            + p.sigma * (p.m + TG.xi_sq) * hhat)
    assert np.max(np.abs(norm)) <= 1e-8 * amp


def test_surface_mode_profiles_evaluates_symbols_once(monkeypatch):
    # A, B and L are evaluated once per surface solve: one L, whose A, B
    # Q reuses; every module-level alias of each function is counted
    import sys

    from resolvlab import symbols

    calls = {"core_values": 0, "lopatinski_values": 0}
    for name in calls:
        orig = getattr(symbols, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("resolvlab") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)

    surface_mode_profiles(2.0 + 1.5j, TG, NG, SymbolParams.from_fluid(BASE),
                          spectral_values(gaussian_boundary(TG))[..., 0])
    assert calls["lopatinski_values"] == 1
    assert calls["core_values"] == 1


def test_surface_interior_ode_residual():
    # (lam + a xi^2) u - a u'' - (a+b+z)(i xi)(i xi . u' + u_N') = 0 per mode
    lam = 4.0 + 1.0j
    p = SymbolParams.from_fluid(BASE)
    k = gaussian_boundary(TG)
    u, du, d2u, _ = profiles_and_derivatives(lam, p, spectral_values(k)[..., 0])
    xi = TG.xi[..., 0][..., None]
    xi2 = TG.xi_sq[..., None]
    div = 1j * xi * u[..., 0] + du[..., 1]
    ddiv = 1j * xi * du[..., 0] + d2u[..., 1]
    abz = p.alpha + p.beta + p.zeta
    r_t = (lam + p.alpha * xi2) * u[..., 0] - p.alpha * d2u[..., 0] \
        - abz * 1j * xi * div
    r_n = (lam + p.alpha * xi2) * u[..., 1] - p.alpha * d2u[..., 1] \
        - abz * ddiv
    amp = np.abs(u).max()
    assert np.max(np.abs(r_t)) <= 1e-8 * amp
    assert np.max(np.abs(r_n)) <= 1e-8 * amp


def test_volevich_two_integral_identity():
    # k(y) = e^-y and Z = B: int B e^{-B(x+y)}k - int e^{-B(x+y)} k' = e^{-Bx}
    quad = VolevichQuadrature(truncation=40.0, panels=12)
    y, w = quad.nodes_weights()
    for B in (1.0, 0.8 + 0.6j, 2.3 - 0.4j):
        x = np.linspace(0, 3, 7)
        k = np.exp(-y)
        lhs = (np.exp(-B * (x[:, None] + y)) * (B * k - (-k))) @ w
        assert np.max(np.abs(lhs - np.exp(-B * x))) < 1e-8
        if B == 1.0:
            # each of the two integrals contributes e^{-x}/2
            first = (np.exp(-(x[:, None] + y)) * k) @ w
            assert np.max(np.abs(first - 0.5 * np.exp(-x))) < 1e-10


def test_volevich_mollified_identity():
    # M(x) k(0) = int e^{-B(x+y)}k + int A M(x+y) k - int M(x+y) k'
    from resolvlab.symbols import mollified_exp

    quad = VolevichQuadrature(truncation=40.0, panels=12)
    y, w = quad.nodes_weights()
    A, B = 0.9 + 0.3j, 1.4 - 0.2j
    x = np.linspace(0, 3, 7)
    k = np.exp(-0.7 * y)
    dk = -0.7 * k
    xy = x[:, None] + y
    rhs = (np.exp(-B * xy) * k + A * mollified_exp(A, B, xy) * k
           - mollified_exp(A, B, xy) * dk) @ w
    lhs = mollified_exp(A, B, x) * 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_volevich_trace_matches_homogeneous():
    # the per-mode direct solver is the oracle for the trace of the
    # kernel-integral form
    lam = 3.0 + 1.0j
    kb = gaussian_boundary(TG)
    k_ext = extend_boundary_datum(kb, NG)
    u_vol, h_vol, err = solve_surface_volevich(k_ext, BASE, lam)
    assert err < 1e-6
    u_hom, h_hom = solve_surface_homogeneous(
        BoundaryField(spectral_values(kb), TG, "spectral"),
        BASE, lam, NG)
    scale = np.abs(u_hom.values).max()
    gap = np.abs(u_vol.values[..., 0, :] - u_hom.values[..., 0, :]).max()
    assert gap <= 1e-6 * scale
    h_gap = np.abs(h_vol.values[..., 0, 0] - h_hom.values[..., 0]).max()
    assert h_gap <= 1e-6 * np.abs(h_hom.values).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mu=st.floats(0.3, 3.0), nu=st.floats(0.3, 3.0), sigma=st.floats(0.0, 2.0),
       m=st.floats(0.3, 3.0), gamma1=st.floats(0.5, 2.0), gamma3=st.floats(0.5, 2.0),
       zeta_abs=st.floats(0.0, 1.0), zeta_arg=st.floats(-2.2, 2.2),
       lam_re=st.floats(1.0, 20.0), lam_im=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_volevich_matches_homogeneous_admissible(
        mu, nu, sigma, m, gamma1, gamma3, zeta_abs, zeta_arg, lam_re, lam_im, seed):
    # admissible fluids, complex zeta in case C2 or C3 and lambda in its Gamma
    # region: the explicit surface solve is the kernel-integral form's
    params = FluidParams(mu=mu, nu=nu, sigma=sigma, m=m, gamma1=gamma1, gamma3=gamma3,
                         zeta=zeta_abs * complex(math.cos(zeta_arg), math.sin(zeta_arg)),
                         rho1=gamma1, rho2=gamma1, rho3=gamma3)
    lam = complex(lam_re, lam_im)
    assume(in_gamma_region(lam, admissible_sector(params), params))
    tg, ng = TangentialGrid(points=8, half_length=2.0), NormalGrid(points=24, truncation=20.0)
    rng = np.random.default_rng(seed)
    kb = BoundaryField(rng.standard_normal(8) + 1j * rng.standard_normal(8), tg, "spectral")
    u_vol, h_vol, _ = solve_surface_volevich(extend_boundary_datum(kb, ng), params, lam)
    u_hom, h_hom = solve_surface_homogeneous(kb, params, lam, ng)
    assert np.max(np.abs(u_vol.values - u_hom.values)) <= 1e-10 * np.abs(u_hom.values).max()
    assert np.max(np.abs(h_vol.values[..., 0, 0] - h_hom.values[..., 0])) \
        <= 1e-10 * np.abs(h_hom.values).max()


def test_volevich_zero_trace_gives_zero_h():
    # k vanishing on the boundary drives no height
    vals = (np.exp(-TG.x**2)[:, None] * (NG.nodes * np.exp(-NG.nodes))[None, :])
    k = HalfSpaceField(vals[..., None].astype(complex), TG, NG)
    _, h, _ = solve_surface_volevich(k, BASE, 2.0)
    assert np.max(np.abs(h.values)) < 1e-13


def manufactured_lame_data(tg, lam, params, decay=1.0 + 0.0j, direction=(1.0, 0.5)):
    """v*(x) = e^{-decay x} * c per mode; returns (F, G') built analytically."""
    p = SymbolParams.from_fluid(params)
    nd = tg.dims
    c = np.asarray(direction, dtype=complex)[: nd + 1]
    xi = tg.xi
    xi_sq = tg.xi_sq

    def fields(ng):
        x = ng.nodes
        prof = np.exp(-decay * x)
        vstar = np.zeros(tg.mode_shape + (ng.points, nd + 1), dtype=complex)
        F = np.zeros_like(vstar)
        Gp = np.zeros(tg.mode_shape + (nd + 1,), dtype=complex)
        # per-mode algebra: v = c e^{-d x}, v' = -d v, v'' = d^2 v
        div = (1j * np.sum(xi * c[:nd], axis=-1) - decay * c[nd])[..., None] * prof
        abz = p.alpha + p.beta + p.zeta
        for j in range(nd):
            vstar[..., j] = c[j] * prof
            F[..., j] = ((lam + p.alpha * xi_sq)[..., None] * c[j] * prof
                         - p.alpha * decay**2 * c[j] * prof
                         - abz * 1j * xi[..., j][..., None] * div)
        vstar[..., nd] = c[nd] * prof
        F[..., nd] = ((lam + p.alpha * xi_sq)[..., None] * c[nd] * prof
                      - p.alpha * decay**2 * c[nd] * prof
                      - abz * (-decay) * div)
        for j in range(nd):
            Gp[..., j] = -(p.alpha * (-decay * c[j] + 1j * xi[..., j] * c[nd]))
        div0 = 1j * np.sum(xi * c[:nd], axis=-1) - decay * c[nd]
        Gp[..., nd] = -(2 * p.alpha * (-decay) * c[nd] + (p.beta + p.zeta) * div0)
        return vstar, F, Gp

    return fields


def test_lame_zero_data_zero_solution():
    F = HalfSpaceField(np.zeros((64, 96, 2), dtype=complex), TG, NG, "spectral")
    Gp = BoundaryField(np.zeros((64, 2), dtype=complex), TG, "spectral")
    v = solve_lame_bvp(F, Gp, BASE, 2.0)
    assert np.max(np.abs(v.values)) == 0.0


def test_lame_manufactured_solution():
    # oscillatory decay on a long box keeps the truncation floor at e^-40
    # so the measurement sees pure collocation error.  The non-unit fluid
    # tells a = mu/gamma1 from the grad-div coefficient, and the 2-D grid
    # couples two tangential components.
    lam = 2.0 + 0.7j
    ng = NormalGrid(points=64, truncation=40.0)
    tg2 = TangentialGrid(dims=2, points=8, half_length=8.0)
    for tg, params, direction in ((TG, BASE, (1.0, 0.5)), (TG, NON_UNIT, (1.0, 0.5)),
                                  (tg2, NON_UNIT, (1.0, -0.4, 0.5))):
        make = manufactured_lame_data(tg, lam, params, decay=1.0 + 2.0j,
                                      direction=direction)
        vstar, F, Gp = make(ng)
        v = solve_lame_bvp(HalfSpaceField(F, tg, ng, "spectral"),
                           BoundaryField(Gp, tg, "spectral"), params, lam)
        err = np.abs(v.values - vstar)
        assert np.max(err) <= 1e-8 * np.abs(vstar).max(), (tg.dims, params)


def physical_lame_operator(lam, a, c, r, D, D2):
    """The (v_r, v_N) collocation blocks in complex arithmetic: the oracle
    for lame_operator's real frame (w_r, v_N), v_r = i w_r."""
    n = D.shape[0]
    ir = 1j * r
    cir = -c * ir
    out = np.empty((r.size, 2, n, 2, n), dtype=complex)
    out[:, 0, :, 0] = azimuthal_operator(lam, a, r, D2)
    out[:, 1, :, 1] = out[:, 0, :, 0] - c * D2
    out[:, 0, :, 1] = out[:, 1, :, 0] = cir[:, None, None] * D
    diag = np.arange(n)
    out[:, 0, diag, 0, diag] += (cir * ir)[:, None]
    return out.reshape(r.size, 2 * n, 2 * n)


def physical_lame_stress_rows(a, b, r, D):
    """The stress rows over (v_r, v_N): row 0 is a(v_r' + i r v_N), row 1 is
    2a v_N' + b(i r v_r + v_N'); the oracle for lame_stress_rows."""
    n = D.shape[0]
    rows = np.zeros((r.size, 2, 2, n), dtype=complex)
    rows[:, 0, 0] = a * D[0]
    rows[:, 0, 1, 0] += a * 1j * r
    rows[:, 1, 0, 0] += b * 1j * r
    rows[:, 1, 1] = 2 * a * D[0] + b * D[0]
    return rows.reshape(r.size, 2, 2 * n)


def per_mode_lame_matrix(lam, a, c, b, xi, D, D2):
    """One mode's collocation matrix, block by block: the reference for
    lame_operator and lame_stress_rows (interior rows, then the stress rows
    at node 0)."""
    n, nd = D.shape[0], xi.size
    nc = nd + 1
    eye = np.eye(n)
    M = np.zeros((nc * n, nc * n), dtype=complex)
    blk = lambda j: slice(j * n, (j + 1) * n)  # noqa: E731
    for j in range(nc):
        M[blk(j), blk(j)] += (lam + a * float(xi @ xi)) * eye - a * D2
    for j in range(nd):
        for k in range(nd):
            M[blk(j), blk(k)] += -c * (1j * xi[j]) * (1j * xi[k]) * eye
        M[blk(j), blk(nd)] += -c * (1j * xi[j]) * D
        M[blk(nd), blk(j)] += -c * (1j * xi[j]) * D
    M[blk(nd), blk(nd)] += -c * D2
    for j in range(nc):
        M[j * n, :] = 0.0
    for j in range(nd):
        M[j * n, blk(j)] = a * D[0]
        M[j * n, nd * n] += a * 1j * xi[j]
        M[nd * n, j * n] += b * 1j * xi[j]
    M[nd * n, blk(nd)] = 2 * a * D[0] + b * D[0]
    return M


def test_lame_operator_matches_per_mode_assembly():
    # same arithmetic entry by entry, so the matrices are equal, not close.
    # In 1-D the per-mode matrix is the (v_r, v_N) block for signed xi.  In
    # 2-D at xi' = (r, 0) the per-mode matrix does not couple v_perp with
    # (v_r, v_N), stress rows included, and its two blocks are the ones the
    # shell solve factors.  lame_operator's blocks on (w_r, v_N), w_r = -i v_r,
    # are S^-1 M S with S = diag(i on v_r, 1 on v_N): exact as well.
    ng = NormalGrid(points=12, truncation=20.0)
    D, D2 = ng.diff, ng.diff2
    n = ng.points
    p = SymbolParams.from_fluid(NON_UNIT, zeta=0.3 - 0.2j)
    a, b, c = p.alpha, p.beta + p.zeta, p.alpha + p.beta + p.zeta
    lam = 2.0 - 1.5j
    phase = np.r_[np.full(n, 1j), np.ones(n)]

    def coupled(r, operator=physical_lame_operator, stress_rows=physical_lame_stress_rows):
        mats = operator(lam, a, c, r, D, D2)
        mats[:, ::n] = stress_rows(a, b, r, D)
        return mats

    xi = TG.xi[:, 0]
    for x, mat in zip(xi, coupled(xi)):
        assert np.array_equal(mat, per_mode_lame_matrix(lam, a, c, b, np.array([x]), D, D2))

    r = np.unique(np.sqrt(TangentialGrid(dims=2, points=4, half_length=2.0).xi_sq))
    azimuthal = azimuthal_operator(lam, a, r, D2)
    azimuthal[:, 0] = a * D[0]
    rN, perp = np.r_[0:n, 2 * n:3 * n], np.arange(n, 2 * n)
    for x, mat, az in zip(r, coupled(r), azimuthal):
        ref = per_mode_lame_matrix(lam, a, c, b, np.array([x, 0.0]), D, D2)
        assert not ref[np.ix_(rN, perp)].any() and not ref[np.ix_(perp, rN)].any()
        assert np.array_equal(ref[np.ix_(rN, rN)], mat)
        assert np.array_equal(ref[np.ix_(perp, perp)], az)

    for shells in (xi, r):
        assert np.array_equal(coupled(shells, lame_operator, lame_stress_rows),
                              phase.conj()[:, None] * coupled(shells) * phase)


def test_lame_batches_give_the_same_solution(monkeypatch):
    # each shell's matrix is assembled and factored on its own, and every
    # shell's right-hand side has the same width, so the batch size cannot
    # change a bit of v
    from resolvlab import halfspace

    lam = 3.0 + 0.4j
    ng = NormalGrid(points=24, truncation=20.0)
    block = (2 * ng.points) ** 2 * 16   # one complex 2n block
    for tg in (TG, TangentialGrid(dims=2, points=8, half_length=8.0)):
        rng = np.random.default_rng(tg.dims)
        shape = tg.mode_shape + (ng.points, tg.dims + 1)
        F = HalfSpaceField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                           tg, ng, "spectral")
        Gp = BoundaryField(rng.standard_normal(shape[:-2] + shape[-1:]) + 0j, tg,
                           "spectral")
        runs = []
        # 1 shell (below one block's bytes), 5 shells, and every shell at once
        for budget, cap in ((1, 16), (5 * block + 1, 16), (10 ** 9, tg.points ** tg.dims)):
            monkeypatch.setattr(halfspace, "LAME_BATCH_BYTES", budget)
            monkeypatch.setattr(halfspace, "LAME_BATCH_SHELLS", cap)
            runs.append(solve_lame_bvp(F, Gp, NON_UNIT, lam, zeta=0.3 - 0.1j).values)
        assert all(np.array_equal(runs[0], v) for v in runs[1:])


def test_lame_batch_sizes(monkeypatch):
    # the shells of a batch are bounded by the bytes of their 2n blocks,
    # and never number more than LAME_BATCH_SHELLS (64 modes: 33 shells)
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape[0]) or solve(a, b))
    for points, lam, want in ((96, 16.0, [2] * 16 + [1]), (96, 16.0 + 1.0j, [1] * 33),
                              (48, 16.0, [8] * 4 + [1]), (24, 16.0, [8] * 4 + [1])):
        F, Gp = random_lame_data(TG, NormalGrid(points=points, truncation=20.0), 0)
        calls.clear()
        solve_lame_bvp(F, Gp, BASE, lam)
        assert calls == want, (points, lam)


def test_lame_solve_working_set():
    # The traced peak of the 1-D solve on 64 modes x 96 nodes at lam = 16,
    # with the data allocated before tracing, in real 2n x 2n blocks
    # (0.29 MB).  Batches of 16 shells peaked at 30.0 blocks and batches of
    # 4 shells (1.18 MB of blocks) at 8.6; batches of 2 shells (0.59 MB),
    # writing v over a copy of the data, peak at 5.0.
    import tracemalloc

    NG.diff, NG.diff2   # the grid's cached matrices are not the solve's
    F, Gp = random_lame_data(TG, NG, 0)
    block = (2 * NG.points) ** 2 * 8
    tracemalloc.start()
    try:
        solve_lame_bvp(F, Gp, BASE, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * block, peak / block


def test_surface_profile_blocks_give_the_same_profiles(monkeypatch):
    # every product keeps its operand order, and at these sizes no array
    # reaches the 256 KiB from which numpy reuses temporaries, so the block
    # size cannot change a bit of u or of its x-derivatives
    from resolvlab import halfspace

    lam = 3.0 + 0.4j
    p = SymbolParams.from_fluid(NON_UNIT)
    ng = NormalGrid(points=24, truncation=20.0)
    for tg in (TG, TangentialGrid(dims=2, points=8, half_length=8.0)):
        rng = np.random.default_rng(tg.dims)
        khat = rng.standard_normal(tg.mode_shape) + 1j * rng.standard_normal(tg.mode_shape)
        for order in range(3):
            runs = []
            for batch in (1, 5, tg.points ** tg.dims):
                monkeypatch.setattr(halfspace, "PROFILE_BLOCK_MODES", batch)
                runs.append(surface_mode_profiles(lam, tg, ng, p, khat, order))
            assert all(np.array_equal(runs[0][0], u) and np.array_equal(runs[0][1], h)
                       for u, h in runs[1:])


def random_lame_data(tg, ng, seed):
    rng = np.random.default_rng(seed)
    shape = tg.mode_shape + (ng.points, tg.dims + 1)
    F = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Gp = rng.standard_normal(shape[:-2] + shape[-1:]) + 1j * rng.standard_normal(
        shape[:-2] + shape[-1:])
    return HalfSpaceField(F, tg, ng, "spectral"), BoundaryField(Gp, tg, "spectral")


def per_mode_lame_solve(F, Gp, params, lam):
    """v mode by mode in Cartesian xi', from per_mode_lame_matrix."""
    tg, ng = F.tgrid, F.ngrid
    p = SymbolParams.from_fluid(params)
    a, b, c = p.alpha, p.beta + p.zeta, p.alpha + p.beta + p.zeta
    n, nc = ng.points, tg.dims + 1
    Fm = F.values.reshape(-1, n, nc)
    Gm = Gp.values.reshape(-1, nc)
    v = np.empty_like(Fm)
    for m, x in enumerate(tg.xi.reshape(-1, tg.dims)):
        M = per_mode_lame_matrix(lam, a, c, b, x, ng.diff, ng.diff2)
        M[n - 1::n] = 0.0
        M[n - 1::n, n - 1::n] = np.eye(nc)
        rhs = Fm[m].T.copy()
        rhs[:, 0] = -Gm[m]
        rhs[:, n - 1] = 0.0
        v[m] = np.linalg.solve(M, rhs.reshape(-1)).reshape(nc, n).T
    return v.reshape(F.values.shape)


def test_lame_shell_solve_matches_per_mode_solve():
    ng = NormalGrid(points=24, truncation=20.0)
    for tg in (TG, TangentialGrid(dims=2, points=8, half_length=8.0)):
        F, Gp = random_lame_data(tg, ng, seed=tg.dims)
        v = solve_lame_bvp(F, Gp, NON_UNIT, 2.5 - 1.2j).values
        ref = per_mode_lame_solve(F, Gp, NON_UNIT, 2.5 - 1.2j)
        assert np.max(np.abs(v - ref)) <= 1e-10 * np.abs(ref).max(), tg.dims


@settings(max_examples=12, deadline=None, derandomize=True)
@given(mu=st.floats(0.3, 3.0), nu=st.floats(0.3, 3.0), gamma1=st.floats(0.5, 2.0),
       gamma3=st.floats(0.5, 2.0), zeta_abs=st.floats(0.0, 1.0),
       zeta_arg=st.floats(-2.2, 2.2), lam_re=st.floats(1.0, 20.0),
       lam_im=st.floats(-10.0, 10.0), seed=st.integers(0, 2**16))
def test_lame_shell_solve_matches_per_mode_solve_admissible(
        mu, nu, gamma1, gamma3, zeta_abs, zeta_arg, lam_re, lam_im, seed):
    # admissible fluids, complex zeta in case C2 or C3 and lambda in its Gamma region
    params = FluidParams(mu=mu, nu=nu, gamma1=gamma1, gamma3=gamma3,
                         zeta=zeta_abs * complex(math.cos(zeta_arg), math.sin(zeta_arg)),
                         rho1=gamma1, rho2=gamma1, rho3=gamma3)
    sector = admissible_sector(params)
    lam = complex(lam_re, lam_im)
    assume(in_gamma_region(lam, sector, params))
    tg = TangentialGrid(dims=2, points=8, half_length=4.0)
    F, Gp = random_lame_data(tg, NormalGrid(points=16, truncation=20.0), seed)
    v = solve_lame_bvp(F, Gp, params, lam).values
    ref = per_mode_lame_solve(F, Gp, params, lam)
    assert np.max(np.abs(v - ref)) <= 1e-10 * np.abs(ref).max()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(mu=st.floats(0.3, 3.0), nu=st.floats(0.3, 3.0), gamma1=st.floats(0.5, 2.0),
       gamma3=st.floats(0.5, 2.0), zeta_abs=st.floats(0.0, 1.0),
       zeta_arg=st.one_of(st.just(0.0), st.floats(-2.2, 2.2)), lam_re=st.floats(1.0, 20.0),
       lam_im=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), dims=st.sampled_from([1, 2]),
       n=st.sampled_from([12, 16, 24]), seed=st.integers(0, 2**16))
def test_lame_blocks_are_real_exactly_for_real_lambda_and_zeta(
        mu, nu, gamma1, gamma3, zeta_abs, zeta_arg, lam_re, lam_im, dims, n, seed):
    # the CLI's lambda is a complex with a zero imaginary part, and zeta is
    # always complex: real values must still reach the float64 solve, and
    # both arithmetics must solve the physical-frame complex assembly
    from unittest import mock

    from resolvlab import halfspace

    params = FluidParams(mu=mu, nu=nu, gamma1=gamma1, gamma3=gamma3,
                         zeta=zeta_abs * complex(math.cos(zeta_arg), math.sin(zeta_arg)),
                         rho1=gamma1, rho2=gamma1, rho3=gamma3)
    lam = complex(lam_re, lam_im)
    assume(in_gamma_region(lam, admissible_sector(params), params))
    dtypes = set()

    def recorded(*args):
        dtypes.add(lame_operator(*args).dtype)
        return lame_operator(*args)

    tg = TangentialGrid(dims=dims, points=8, half_length=4.0)
    F, Gp = random_lame_data(tg, NormalGrid(points=n, truncation=20.0), seed)
    with mock.patch.object(halfspace, "lame_operator", recorded):
        v = solve_lame_bvp(F, Gp, params, lam).values
    real = lam.imag == 0 and params.zeta.imag == 0
    assert dtypes == {np.dtype(float if real else complex)}
    ref = per_mode_lame_solve(F, Gp, params, lam)
    assert np.max(np.abs(v - ref)) <= 1e-11 * np.abs(ref).max()


def test_lame_assembles_one_matrix_per_shell(monkeypatch):
    # modes with the same integer k.k share one matrix: 33 of 64 in 1-D,
    # 15 of 64 on 8^2 and 135 of 1024 on 32^2
    from resolvlab import halfspace

    assembled = []

    def counted(lam, a, c, r, D, D2):
        assembled.append(r.shape[0])
        return lame_operator(lam, a, c, r, D, D2)

    monkeypatch.setattr(halfspace, "lame_operator", counted)
    ng = NormalGrid(points=12, truncation=20.0)
    for tg in (TG, TangentialGrid(dims=2, points=8), TangentialGrid(dims=2, points=32)):
        k = np.fft.fftfreq(tg.points, 1.0 / tg.points).astype(int)
        sq = k**2 if tg.dims == 1 else np.add.outer(k**2, k**2)
        F, Gp = random_lame_data(tg, ng, seed=0)
        assembled.clear()
        solve_lame_bvp(F, Gp, BASE, 2.0)
        assert sum(assembled) == np.unique(sq).size


def test_lame_spectral_convergence():
    lam = 2.0 + 0.7j
    make = manufactured_lame_data(TG, lam, BASE, decay=1.0 + 2.0j)
    errs = []
    for n in (32, 64):
        ng = NormalGrid(points=n, truncation=40.0)
        vstar, F, Gp = make(ng)
        v = solve_lame_bvp(HalfSpaceField(F, TG, ng, "spectral"),
                           BoundaryField(Gp, TG, "spectral"), BASE, lam)
        errs.append(np.max(np.abs(v.values - vstar)) / np.abs(vstar).max())
    assert errs[1] <= errs[0] / 10


def gaussian_data(tg, ng, seed=0):
    rng = np.random.default_rng(seed)
    x = tg.x
    t = ng.nodes

    def bump(width_x, width_t, x0=0.0):
        g = np.exp(-((x - x0) ** 2) / (2 * width_x**2))
        decay = np.exp(-(t**2) / (2 * width_t**2))
        return g[:, None] * decay[None, :]

    d = HalfSpaceField((0.5 * bump(1.0, 2.0, 0.5))[..., None].astype(complex), tg, ng)
    Fv = np.stack([bump(1.0, 1.5, -0.4), 0.7 * bump(0.9, 2.5, 0.4)], axis=-1)
    F = HalfSpaceField(Fv.astype(complex), tg, ng)
    gb = np.exp(-(x**2) / 2)
    G = BoundaryField(np.stack([0.3 * gb, -0.6 * gb], axis=-1).astype(complex), tg)
    K = BoundaryField((0.8 * np.exp(-(x - 0.3) ** 2)).astype(complex), tg)
    return ResolventData(d=d, F=F, G=G, K=K)


def test_full_resolvent_zero_data():
    z = np.zeros((64, 96, 1), dtype=complex)
    data = ResolventData(
        d=HalfSpaceField(z, TG, NG),
        F=HalfSpaceField(np.zeros((64, 96, 2), dtype=complex), TG, NG),
        G=BoundaryField(np.zeros((64, 2), dtype=complex), TG),
        K=BoundaryField(np.zeros(64, dtype=complex), TG),
    )
    sol = solve_full_resolvent(data, BASE, 4.0)
    assert np.max(np.abs(sol.u.values)) == 0.0
    assert np.max(np.abs(sol.h.values)) == 0.0
    assert np.max(np.abs(sol.eta.values)) == 0.0


def test_full_resolvent_k_only_reduces_to_surface_solver():
    data = gaussian_data(TG, NG)
    z = np.zeros_like(data.d.values)
    data_k = ResolventData(
        d=HalfSpaceField(z, TG, NG),
        F=HalfSpaceField(np.zeros_like(data.F.values), TG, NG),
        G=BoundaryField(np.zeros_like(data.G.values), TG),
        K=data.K,
    )
    lam = 4.0
    sol = solve_full_resolvent(data_k, BASE, lam)  # solution in spectral space
    u_ref, h_ref = solve_surface_homogeneous(data_k.K, BASE, lam, NG,
                                             zeta=BASE.gamma2 / lam)
    # the Lame solution of zero data is exactly 0, so u = 0 + w is the surface solve
    assert np.array_equal(sol.u.values.view(np.uint64), u_ref.values.view(np.uint64))
    assert np.array_equal(sol.h.values.view(np.uint64), h_ref.values.view(np.uint64))


def spectral_copy(fld):
    """The field in the spectral representation, in a new field."""
    if isinstance(fld, HalfSpaceField):
        return HalfSpaceField(spectral_values(fld), fld.tgrid, fld.ngrid, "spectral")
    return BoundaryField(spectral_values(fld), fld.tgrid, "spectral")


@pytest.mark.parametrize("dims", [1, 2])
def test_solves_leave_their_input_fields_unchanged(dims):
    # The Lame solve writes its solution over spectral data of its own: the
    # transform of physical F, the reduced force of solve_full_resolvent,
    # or a copy of spectral F.  The solutions from both spaces agree bit
    # for bit, as the spectral inputs are the solves' own transforms.
    # solve_full_resolvent takes physical data only.
    from resolvlab.halfspace import solve_reduced_resolvent
    from tests.test_verification import gaussian_data_2d

    ng = NormalGrid(points=24, truncation=20.0)
    if dims == 1:
        data = gaussian_data(TG, ng)
    else:
        data = gaussian_data_2d(TangentialGrid(dims=2, points=8, half_length=8.0), ng)
    lam = 4.0 + 0.5j
    physical = (data.F, data.G, data.K)
    runs = []
    for F, G, K in (physical, tuple(spectral_copy(f) for f in physical)):
        before = [f.values.copy() for f in (F, G, K)]
        v = solve_lame_bvp(F, G, NON_UNIT, lam)
        u, h = solve_reduced_resolvent(F, G, K, NON_UNIT, lam)
        assert all(np.array_equal(f.values.view(np.uint64), b.view(np.uint64))
                   for f, b in zip((F, G, K), before))
        runs.append((v.values, u.values, h.values))
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(*runs))

    before = [f.values.copy() for f in (data.d, data.F, data.G, data.K)]
    sol = solve_full_resolvent(data, NON_UNIT, lam)
    assert all(np.array_equal(f.values.view(np.uint64), b.view(np.uint64))
               for f, b in zip((data.d, data.F, data.G, data.K), before))
    assert not any(np.shares_memory(out.values, f.values)
                   for out in (sol.eta, sol.u, sol.h) for f in (data.d, data.F, data.G, data.K))


def test_full_resolvent_linearity():
    lam = 4.0 + 0.5j
    d1 = gaussian_data(TG, NG, seed=1)
    d2 = gaussian_data(TG, NG, seed=2)
    a, b = 2.0, -0.7 + 0.3j

    def combine(x, y):
        return ResolventData(
            d=HalfSpaceField(a * x.d.values + b * y.d.values, TG, NG),
            F=HalfSpaceField(a * x.F.values + b * y.F.values, TG, NG),
            G=BoundaryField(a * x.G.values + b * y.G.values, TG),
            K=BoundaryField(a * x.K.values + b * y.K.values, TG),
        )

    s1 = solve_full_resolvent(d1, BASE, lam)
    s2 = solve_full_resolvent(d2, BASE, lam)
    s12 = solve_full_resolvent(combine(d1, d2), BASE, lam)
    for fld, f1, f2 in ((s12.u, s1.u, s2.u), (s12.h, s1.h, s2.h),
                        (s12.eta, s1.eta, s2.eta)):
        lin = a * f1.values + b * f2.values
        assert np.max(np.abs(fld.values - lin)) <= 1e-12 * max(np.abs(lin).max(), 1e-30)
