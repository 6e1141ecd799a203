"""Field import/export: CSV and little-endian binary with JSON sidecar.

CSV layout is mode-major: one row per (mode indices..., normal node),
with re/im column pairs per component.  The binary block is the raw
'<c16' buffer in C order; the sidecar records {kind, dims, counts,
dtype, space} and is required for reimport.

The CSV writer prints every float exactly as ``'%.17g' % x`` does, but
for a whole chunk of rows at once.  17 significant digits round-trip,
so ``field_from_csv`` reads the written doubles back bit for bit.

Why the bytes are exact.  For a finite a = |x| with 1e-283 <= a < 1e299
and k = floor(log10 a), the digits are D = round(a 10^(16-k)), ties to
even, with 10^16 <= D < 10^17.  10^p is held as hi + lo, both correctly
rounded from the exact rational, so |10^p - hi - lo| <= 2^-106 10^p.
Dekker's split of a and of hi gives a hi = t + e exactly; inside that
range of a every partial product is finite and normal.  So y = a 10^p
equals t + (e + a lo) to within 5e-15 absolute, since y < 1.2e17.  As
t >= 2^53 is an integer, D = t + rint(e + a lo) is correctly rounded
whenever the fraction e + a lo - rint(e + a lo) is more than 1e-6 from
+-1/2.  A log10 estimate of k that is off by one puts D + fraction
outside [10^16, 10^17 + 1/2), and D is computed again with k -+ 1.
D = 10^17 means the rounding crossed a decade: D becomes 10^16 and k
grows by one, as the exponent of %g does.  The text then follows %g:
exponent form for k < -4 or k >= 17, fixed form otherwise, with
trailing zeros and a bare '.' dropped and '-' on negative values and
on -0.0.

These elements fall back to ``'%.17g' % x`` one at a time: non-finite
values, nonzero |x| below 1e-283 (subnormals included) or from 1e299
up, values whose fraction lies within 1e-6 of +-1/2, which include the
exact ties (2^-25, for one), and any D still outside its decade.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

from .grids import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid

CSV_CHUNK_ROWS = 1024   # rows formatted per write: 0.2 MB of 32-byte text slots for 3 components

# |x| range formatted by the kernel: a * (2^27 + 1) and 10^p * (2^27 + 1)
# stay finite and the lo parts stay normal for p = 16 - k in _P_LO.._P_HI.
_ABS_MIN, _ABS_MAX = 1e-283, 1e299
_P_LO, _P_HI = -283, 300
_TIE_MARGIN = 1e-6
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's split of a double into 26-bit halves
_TEN16, _TEN17 = 10**16, 10**17

# A value's text sits in a 32-byte slot, NUL-padded, read as four 64-bit
# words: [sign, "0.", zeros][lead digit][point][16 digits][exponent][comma].
_SLOT = 32
_LEAD, _POINT = 6, 7
_NO_EXPONENT = 308 + 324 + 1   # row of the exponent table for the fixed form


@cache
def _tables():
    """Powers of ten, digit quads, prefixes and exponents, built on first use.

    powers: rows hi, hi's Dekker halves and lo of 10^p for p = _P_LO.._P_HI.
    quads: the 4 digits of 0..9999 as uint32, row 1 with trailing zeros
    as NUL.  prefixes: [sign, "0.", zeros] for 5 * negative + z, where z
    is -k for the form 0.000ddd and 0 otherwise.  exponents: 'e', sign,
    digits and the comma for k + 324, or the comma alone.
    """
    hi, lo = np.array([_power_of_ten(p) for p in range(_P_LO, _P_HI + 1)]).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    powers = np.stack([hi, hi_hi, hi - hi_hi, lo])
    digits = np.moveaxis(np.indices((10,) * 4, dtype=np.uint8), 0, -1).reshape(-1, 4)
    quads = np.empty((2,) + digits.shape, dtype=np.uint8)
    quads[0] = digits + ord("0")
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=bool)[:, ::-1]
    quads[1] = np.where(trailing, 0, quads[0])
    quads = quads.view(np.uint32)[..., 0]
    prefixes = _packed([sign + ("0." + "0" * (z - 1) if z else "")
                        for sign in ("", "-") for z in range(5)], 8, np.uint64)
    exponents = _packed([f"e{k:+03d}".ljust(7, "\0") + "," for k in range(-324, 309)]
                        + ["\0" * 7 + ","], 8, np.uint64)
    return powers, quads, prefixes, exponents


def _power_of_ten(p):
    """10^p as hi + lo, each correctly rounded (int division rounds correctly)."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _packed(strings, width, dtype):
    """ASCII strings, NUL-padded to `width` bytes, as one `dtype` word each."""
    raw = np.array(strings, dtype=f"S{width}")
    return raw.view(np.uint8).reshape(raw.shape + (width,)).view(dtype)[..., 0]


def _round17(a, k, powers):
    """round(a * 10^(16-k)) as int64, and the fraction rounded away."""
    hi, hi_hi, hi_lo, lo = powers[:, np.clip(16 - k - _P_LO, 0, powers.shape[1] - 1)]
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    t = a * hi
    e = a_hi * hi_hi
    e -= t
    e += a_hi * hi_lo
    a_lo = a - a_hi
    e += a_lo * hi_hi
    e += a_lo * hi_lo
    lo *= a
    e += lo
    r = np.rint(e)
    e -= r
    return t.astype(np.int64) + r.astype(np.int64), e


def _outside(D, frac):
    """Where D + frac, the scaled value, lies outside [10^16, 10^17 + 1/2)."""
    return (D < _TEN16) | ((D == _TEN16) & (frac < 0)) | (D > _TEN17)


def _format_g17(x):
    """``'%.17g' % v`` for each float v of x, as rows of 32 NUL-padded bytes.

    Row i holds the text of x[i] in order with NUL bytes among it, then a
    comma in its last byte; the text is row i without its NULs.
    """
    powers, quads, prefixes, exponents = _tables()
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= _ABS_MIN) & (a < _ABS_MAX)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    D, frac = _round17(a, k, powers)
    off = _outside(D, frac)
    if off.any():
        k[off] += np.where(D[off] > _TEN17, 1, -1)
        D[off], frac[off] = _round17(a[off], k[off], powers)
    carry = D == _TEN17
    D[carry] = _TEN16
    k[carry] += 1
    slow = ~(fast | zero) | (np.abs(frac) > 0.5 - _TIE_MARGIN) | _outside(D, frac)

    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    top, low = np.divmod(D, 10**8)
    lead, mid = np.divmod(top.astype(np.int32), 10**8)
    g = np.empty((4, len(x)), dtype=np.int32)
    g[0], g[1] = np.divmod(mid, 10**4)
    g[2], g[3] = np.divmod(low.astype(np.int32), 10**4)
    # a quad loses its trailing zeros when every quad after it is zero
    trim = np.empty(g.shape, dtype=bool)
    trim[3] = True
    for c in (2, 1, 0):
        trim[c] = trim[c + 1] & (g[c + 1] == 0)
    out = np.empty((len(x), _SLOT // 8), dtype=np.uint64)
    out[:, 0] = prefixes[5 * np.signbit(x) - np.where(small, k, 0)]
    out[:, 3] = exponents[np.where(fixed, _NO_EXPONENT, k + 324)]
    text = out.view(np.uint8)
    text[:, _LEAD] = np.where(zero, ord("0"), lead + ord("0"))
    text[:, _POINT] = np.where(small | (trim[0] & (g[0] == 0)), 0, ord("."))
    out.view(np.uint32)[:, 2:6] = quads.ravel()[trim * 10000 + g].T

    # fixed form with k >= 1: digits 1..k move one byte left, over the
    # point, which goes behind digit k; the integer part keeps its zeros
    big = np.flatnonzero(fixed & (k > 0))
    if len(big):
        kb = k[big][:, None]
        cols = np.arange(18)   # lead digit, point, 16 digits
        whole = (cols >= 1) & (cols <= kb)
        body = np.take_along_axis(text[big, _LEAD:_LEAD + 18], cols + whole, axis=1)
        body[whole & (body == 0)] = ord("0")
        point = ((body != 0) & (cols > kb + 1)).any(axis=1)
        body[cols == kb + 1] = np.where(point, ord("."), 0)
        text[big, _LEAD:_LEAD + 18] = body

    for i in np.flatnonzero(slow):
        s = np.frombuffer(("%.17g" % x[i]).encode("ascii"), dtype=np.uint8)
        text[i, :-1] = 0
        text[i, :len(s)] = s
    return text


def _format_index(i, count):
    """%d of the indices i in [0, count), as NUL-padded columns and a comma."""
    place = 10 ** np.arange(len(str(count - 1)) - 1, -1, -1)
    cols = np.empty((len(i), len(place) + 1), dtype=np.uint8)
    digits = i[:, None] // place % 10 + ord("0")
    digits[:, :-1][i[:, None] < place[:-1]] = 0
    cols[:, :-1] = digits
    cols[:, -1] = ord(",")
    return cols


def field_to_csv(fld, path):
    vals = np.asarray(fld.values, dtype=complex)
    ncomp = vals.shape[-1]
    dims = fld.tgrid.dims
    index_names = [f"mode{d}" for d in range(dims)]
    if isinstance(fld, HalfSpaceField):
        index_names.append("node")
    header = index_names + [f"{part}{c}" for c in range(ncomp) for part in ("re", "im")]
    shape = vals.shape[:-1]
    parts = np.ascontiguousarray(vals).reshape(-1, ncomp).view(float)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(parts), CSV_CHUNK_ROWS):
            chunk = parts[lo:lo + CSV_CHUNK_ROWS]
            index = np.unravel_index(np.arange(lo, lo + len(chunk)), shape)
            text = _format_g17(chunk).reshape(len(chunk), -1)
            text[:, -1] = ord("\n")
            table = np.concatenate([_format_index(i, n) for i, n in zip(index, shape)]
                                   + [text], axis=1)
            fh.write(table.tobytes().translate(None, b"\0"))


def field_from_csv(path, tgrid: TangentialGrid, ngrid: NormalGrid | None, space: str):
    """The field written to path by field_to_csv, labelled space.

    The CSV does not record the tangential space, so the caller names it:
    the solve artifacts are "spectral".
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    ncomp = sum(1 for h in header if h.startswith("re"))
    nidx = len(header) - 2 * ncomp
    cplx = np.ascontiguousarray(data[:, nidx:]).view(complex)
    if ngrid is not None:
        shape = tgrid.mode_shape + (ngrid.points, ncomp)
        return HalfSpaceField(cplx.reshape(shape), tgrid, ngrid, space)
    shape = tgrid.mode_shape + (ncomp,)
    return BoundaryField(cplx.reshape(shape), tgrid, space)


def field_to_binary(fld, path):
    """Raw '<c16' block plus '<path>.json' sidecar."""
    vals = np.asarray(fld.values, dtype="<c16")
    with open(path, "wb") as fh:
        vals.tofile(fh)
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
