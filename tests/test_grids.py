import math

import numpy as np
import pytest

from resolvlab.grids import (
    BoundaryField,
    HalfSpaceField,
    NormalGrid,
    TangentialGrid,
    chebyshev_matrix,
    clenshaw_curtis_weights,
    edge_support_ratio,
    physical_values,
    spectral_values,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TangentialGrid(points=60)
    with pytest.raises(ValueError):
        TangentialGrid(dims=3)
    with pytest.raises(ValueError):
        NormalGrid(points=4)


def test_fft_of_constant_is_delta():
    g = TangentialGrid(points=64, half_length=8.0)
    f = BoundaryField(np.ones(64), g)
    fh = spectral_values(f)
    # zero mode carries the box integral 2L; every other mode vanishes
    assert fh[0, 0] == pytest.approx(2 * g.half_length, rel=1e-13)
    assert np.max(np.abs(fh[1:])) < 1e-12


def test_roundtrip_identity():
    g = TangentialGrid(points=64, half_length=5.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    f = BoundaryField(vals, g)
    back = physical_values(BoundaryField(spectral_values(f), g, "spectral"))
    assert np.max(np.abs(back - f.values)) <= 1e-13 * np.max(np.abs(f.values))


def test_roundtrip_identity_2d():
    g = TangentialGrid(dims=2, points=16, half_length=4.0)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    f = BoundaryField(vals, g)
    back = physical_values(BoundaryField(spectral_values(f), g, "spectral"))
    assert np.max(np.abs(back - f.values)) < 1e-13 * np.max(np.abs(vals))


def test_gaussian_transforms_to_gaussian():
    # analytic transform of exp(-x^2/(2 w^2)) is w sqrt(2 pi) exp(-w^2 xi^2/2)
    g = TangentialGrid(points=128, half_length=10.0)
    w = 1.0
    f = BoundaryField(np.exp(-g.x**2 / (2 * w**2)), g)
    fh = spectral_values(f)
    xi = g.xi[:, 0]
    exact = w * math.sqrt(2 * math.pi) * np.exp(-(w**2) * xi**2 / 2)
    assert np.max(np.abs(fh[:, 0] - exact)) <= 1e-8


def test_chebyshev_matrix_differentiates_exp():
    D, x = chebyshev_matrix(32)
    f = np.exp(x)
    assert np.max(np.abs(D @ f - f)) < 1e-10


def test_normal_grid_nodes_and_diff():
    ng = NormalGrid(points=48, truncation=20.0)
    t = ng.nodes
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert t[-1] == pytest.approx(20.0)
    f = np.exp(-t)
    err = ng.diff @ f - (-f)
    assert np.max(np.abs(err)) < 1e-8
    # quadrature of e^-t over [0, 20] vs 1 - e^-20
    assert ng.weights @ f == pytest.approx(1 - math.exp(-20.0), rel=1e-12)


def test_normal_grid_arrays_built_once_and_read_only(monkeypatch):
    from resolvlab import grids

    calls = []

    def counted(n):
        calls.append(n)
        return chebyshev_matrix(n)

    monkeypatch.setattr(grids, "chebyshev_matrix", counted)
    ng = NormalGrid(points=24, truncation=10.0)
    for _ in range(3):
        arrays = (ng.nodes, ng.diff, ng.diff2, ng.weights)
    assert calls == [24]
    assert ng.nodes is arrays[0] and ng.diff2 is arrays[2]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    NormalGrid(points=24, truncation=10.0).nodes  # a new grid builds its own
    assert calls == [24, 24]


def test_clenshaw_curtis_exactness():
    # an odd node count takes the weights' even-n branch
    for nodes in (16, 9, 17):
        w = clenshaw_curtis_weights(nodes)
        _, x = chebyshev_matrix(nodes)
        for k in range(0, nodes - 2, 2):
            assert w @ x**k == pytest.approx(2.0 / (k + 1), rel=1e-12)


def test_edge_support_ratio():
    g = TangentialGrid(points=64, half_length=8.0)
    ng = NormalGrid(points=16, truncation=20.0)
    vals = np.exp(-g.x**2)[:, None, None] * np.ones((1, 16, 1))
    f = HalfSpaceField(vals, g, ng)
    assert edge_support_ratio(f) < 1e-10
    vals2 = np.ones((64, 16, 1))
    assert edge_support_ratio(HalfSpaceField(vals2, g, ng)) == 1.0
    with pytest.raises(ValueError):  # support is a property of the physical samples
        edge_support_ratio(HalfSpaceField(vals, g, ng, "spectral"))


def test_values_in_a_fields_own_space_are_its_own():
    g = TangentialGrid(points=16)
    ng = NormalGrid(points=8)
    for space in ("physical", "spectral"):
        f = HalfSpaceField(np.ones((16, 8, 2)), g, ng, space)
        own, other = ((physical_values, spectral_values) if space == "physical"
                      else (spectral_values, physical_values))
        assert own(f) is f.values
        assert not np.array_equal(other(f), f.values)


def test_field_space_is_physical_or_spectral():
    g = TangentialGrid(points=16)
    for space in ("fourier", "Spectral", None):
        with pytest.raises(ValueError, match="space must be one of"):
            BoundaryField(np.ones(16), g, space)
        with pytest.raises(ValueError, match="space must be one of"):
            HalfSpaceField(np.ones((16, 8, 1)), g, NormalGrid(points=8), space)


def test_field_shape_validation():
    g = TangentialGrid(points=32)
    ng = NormalGrid(points=16)
    with pytest.raises(ValueError):
        HalfSpaceField(np.zeros((32, 8, 1)), g, ng)
    with pytest.raises(ValueError):
        BoundaryField(np.zeros(16), g)
    with pytest.raises(ValueError):
        HalfSpaceField(np.full((32, 16, 1), np.nan), g, ng)
