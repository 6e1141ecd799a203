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

CSV_CHUNK_ROWS = 4096   # rows formatted per write


def field_to_csv(fld, path):
    vals = np.asarray(fld.values, dtype=complex)
    ncomp = vals.shape[-1]
    dims = fld.tgrid.dims
    index_names = [f"mode{d}" for d in range(dims)]
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
