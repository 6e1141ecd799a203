"""Field import/export: CSV and little-endian binary with JSON sidecar.

CSV layout is mode-major: one row per (mode indices..., normal node),
with re/im column pairs per component.  The binary block is the raw
'<c16' buffer in C order; the sidecar records {kind, dims, counts,
dtype, space} and is required for reimport.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid


def field_to_csv(fld, path):
    vals = fld.values
    ncomp = vals.shape[-1]
    dims = fld.tgrid.dims
    is_half = isinstance(fld, HalfSpaceField)
    header = [f"mode{d}" for d in range(dims)] + (["node"] if is_half else [])
    for c in range(ncomp):
        header += [f"re{c}", f"im{c}"]
    rows = []
    for idx in np.ndindex(*vals.shape[:-1]):
        entries = []
        for c in range(ncomp):
            z = vals[idx + (c,)]
            entries += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        rows.append(",".join(str(v) for v in list(idx) + entries))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("\n".join(rows) + "\n")


def field_from_csv(path, tgrid: TangentialGrid, ngrid: NormalGrid | None,
                   space="physical"):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    ncomp = sum(1 for h in header if h.startswith("re"))
    nidx = len(header) - 2 * ncomp
    vals = data[:, nidx:]
    cplx = vals[:, 0::2] + 1j * vals[:, 1::2]
    if ngrid is not None:
        shape = tgrid.mode_shape + (ngrid.points, ncomp)
        return HalfSpaceField(cplx.reshape(shape), tgrid, ngrid, space)
    shape = tgrid.mode_shape + (ncomp,)
    return BoundaryField(cplx.reshape(shape), tgrid, space)


def field_to_binary(fld, path):
    """Raw '<c16' block plus '<path>.json' sidecar."""
    vals = np.ascontiguousarray(fld.values.astype("<c16"))
    with open(path, "wb") as fh:
        fh.write(vals.tobytes())
    sidecar = {
        "kind": "halfspace" if isinstance(fld, HalfSpaceField) else "boundary",
        "dims": fld.tgrid.dims,
        "counts": list(vals.shape),
        "dtype": "<c16",
        "space": fld.space,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)


def field_from_binary(path, tgrid: TangentialGrid, ngrid: NormalGrid | None = None):
    with open(path + ".json") as fh:
        meta = json.load(fh)
    raw = np.fromfile(path, dtype=meta["dtype"]).reshape(meta["counts"])
    if meta["kind"] == "halfspace":
        if ngrid is None:
            raise ValueError("halfspace reimport requires the normal grid")
        return HalfSpaceField(raw, tgrid, ngrid, meta["space"])
    return BoundaryField(raw, tgrid, meta["space"])


def write_csv_table(path, header, rows):
    """Small CSV writer for time series and convergence histories."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
