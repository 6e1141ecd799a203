"""The CSV writer's float kernel against CPython's ``'%.17g' % x``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvlab.fieldio import CSV_CHUNK_ROWS, _format_g17, field_from_csv, field_to_csv
from resolvlab.grids import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid


def g17(x):
    """The kernel's text of each value, without the padding and the comma."""
    return [bytes(row[row != 0][:-1]).decode("ascii") for row in _format_g17(x)]


def assert_matches_printf(x):
    x = np.asarray(x, dtype=float)
    got = g17(x)
    bad = [(v, g, "%.17g" % v) for v, g in zip(x.tolist(), got) if g != "%.17g" % v]
    assert not bad, bad[:10]


def reference_field_csv(fld, path):
    """The per-row '%'-formatting writer that the kernel replaced."""
    vals = np.asarray(fld.values, dtype=complex)
    ncomp = vals.shape[-1]
    index_names = [f"mode{d}" for d in range(fld.tgrid.dims)]
    if isinstance(fld, HalfSpaceField):
        index_names.append("node")
    header = index_names + [f"{part}{c}" for c in range(ncomp) for part in ("re", "im")]
    row = ",".join(["%d"] * len(index_names) + ["%.17g"] * (2 * ncomp)) + "\n"
    index = np.indices(vals.shape[:-1]).reshape(len(index_names), -1).T
    parts = np.ascontiguousarray(vals).reshape(-1, ncomp).view(float)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(parts), CSV_CHUNK_ROWS):
            chunk = zip(index[lo:lo + CSV_CHUNK_ROWS].tolist(),
                        parts[lo:lo + CSV_CHUNK_ROWS].tolist())
            fh.write("".join([row % (*i, *v) for i, v in chunk]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_matches_printf_on_any_float(values):
    # st.floats() draws subnormals, +-0, +-inf and nan too
    assert_matches_printf(values)


def test_kernel_matches_printf_on_the_hard_cases():
    powers = 10.0 ** np.arange(-330, 309)
    sweep = [powers]
    up, down = powers.copy(), powers.copy()
    for _ in range(4):   # 4 ulps either side of every power of ten
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        sweep += [up, down]
    halves = 0.5 * 10.0 ** np.arange(-323, 308)
    small = np.arange(1.0, 1025.0)
    dyadic = np.ldexp.outer(small[:64], np.arange(-1074, 1018, 3)).ravel()
    extremes = [5e-324, np.finfo(float).max, np.finfo(float).tiny, 2.0**-25, 1e16, 1e17,
                99999999999999999.0, 12345678901234567.0, 1e-4, 1e-5, 0.0, -0.0]
    x = np.concatenate(sweep + [halves, small, dyadic, extremes])
    x = x[np.isfinite(x)]
    assert_matches_printf(np.concatenate([x, -x]))


def test_field_csv_matches_the_per_row_writer(tmp_path):
    rng = np.random.default_rng(5)
    tg = TangentialGrid(dims=2, points=16, half_length=4.0)
    ng = NormalGrid(points=20, truncation=10.0)
    shape = tg.mode_shape + (ng.points, 3)     # 5120 rows: more than one chunk
    scale = 10.0 ** rng.uniform(-300, 300, size=(2,) + shape)
    vals = (scale[0] * rng.standard_normal(shape)) + 1j * (scale[1] * rng.standard_normal(shape))
    for part in (vals.real, vals.imag):
        part[rng.random(shape) < 0.1] = 0.0
        part[rng.random(shape) < 0.1] = -0.0
    fields = [HalfSpaceField(vals, tg, ng),
              BoundaryField(vals[:, :, 0, :2], tg),
              BoundaryField(vals.reshape(128, -1, 3)[:, 0], TangentialGrid(points=128))]
    for n, fld in enumerate(fields):
        path = str(tmp_path / f"{n}.csv")
        field_to_csv(fld, path)
        reference_field_csv(fld, str(tmp_path / f"{n}_ref.csv"))
        assert (tmp_path / f"{n}.csv").read_bytes() == (tmp_path / f"{n}_ref.csv").read_bytes()
        # 17 digits round-trip: the reimport is bitwise, -0.0 included
        back = field_from_csv(path, fld.tgrid, getattr(fld, "ngrid", None), fld.space).values
        assert np.array_equal(back.view(np.uint64), fld.values.view(np.uint64))
