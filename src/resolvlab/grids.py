"""Tangential FFT grids, mapped-Chebyshev normal grids and field containers.

The tangential directions periodize R^(N-1) on a torus of half-length L
with the standard FFT duals xi_k = pi k / L; forward/inverse transforms
carry the continuous-Fourier normalization so that forward(f) samples
the integral transform of box-supported data to spectral accuracy.

The normal direction truncates [0, inf) to [0, X] on Chebyshev points
clustered at both ends (first node exactly 0), with the usual dense
differentiation matrix and Clenshaw-Curtis quadrature weights.

A field records its tangential representation, physical or spectral.
spectral_values and physical_values are the one conversion between the
two, and discrete_norm is the quadrature norm of the physical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TangentialGrid:
    """Periodized tangential grid; dims in {1, 2}, points a power of two."""

    dims: int = 1
    points: int = 64
    half_length: float = 8.0

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        n = self.points
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("points must be a power of two >= 4")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")

    @property
    def dx(self) -> float:
        return 2 * self.half_length / self.points

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.points)

    @property
    def k_axis(self) -> np.ndarray:
        """Integer wavenumbers in FFT layout: k = 0..n/2-1, -n/2..-1."""
        return np.rint(np.fft.fftfreq(self.points) * self.points).astype(int)

    @property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumber vectors k, shape (points,)*dims + (dims,); xi = pi k / L."""
        axes = [self.k_axis] * self.dims
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @property
    def xi(self) -> np.ndarray:
        """Frequency vectors, shape (points,)*dims + (dims,), FFT layout."""
        return (np.pi / self.half_length) * self.wavenumbers

    @property
    def xi_sq(self) -> np.ndarray:
        return np.sum(self.xi**2, axis=-1)

    @property
    def mode_shape(self):
        return (self.points,) * self.dims

    def _phase(self):
        # e^{i xi_k L} = (-1)^k per axis, flattening the x-offset of the box
        sign = np.where(self.k_axis % 2 == 0, 1.0, -1.0)
        out = sign
        for _ in range(self.dims - 1):
            out = np.multiply.outer(out, sign)
        return out

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Continuous Fourier transform of box-supported samples, into one new array."""
        axes = tuple(range(self.dims))
        extra = values.ndim - self.dims
        phase = self._phase().reshape(self.mode_shape + (1,) * extra)
        out = np.fft.fftn(values, axes=axes, out=np.empty(values.shape, dtype=complex))
        out *= self.dx**self.dims * phase
        return out

    def inverse(self, values: np.ndarray) -> np.ndarray:
        axes = tuple(range(self.dims))
        extra = values.ndim - self.dims
        phase = self._phase().reshape(self.mode_shape + (1,) * extra)
        out = np.multiply(phase, values, dtype=complex)
        np.fft.ifftn(out, axes=axes, out=out)
        out /= self.dx**self.dims
        return out


def chebyshev_matrix(n_nodes: int):
    """Nodes descending on [-1, 1] and the dense differentiation matrix."""
    n = n_nodes - 1
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def clenshaw_curtis_weights(n_nodes: int) -> np.ndarray:
    """Quadrature weights on [-1, 1] for the Chebyshev extreme points."""
    n = n_nodes - 1
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    v = np.ones(n - 1)
    ii = np.arange(1, n)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n**2 - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k**2 - 1)
        v -= np.cos(n * theta[ii]) / (n**2 - 1)
    else:
        w[0] = w[n] = 1.0 / n**2
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k**2 - 1)
    w[ii] = 2.0 * v / n
    return w


@dataclass(frozen=True)
class NormalGrid:
    """Mapped Chebyshev collocation on [0, X]; first node exactly 0."""

    points: int = 64
    truncation: float = 20.0

    def __post_init__(self):
        if self.points < 8:
            raise ValueError("need at least 8 collocation nodes")
        if self.truncation <= 0:
            raise ValueError("truncation length must be positive")

    # Built once per grid, read-only: the solvers read them on every call.
    @cached_property
    def _chebyshev(self):
        return chebyshev_matrix(self.points)

    @cached_property
    def nodes(self) -> np.ndarray:
        t = self.truncation * (1.0 - self._chebyshev[1]) / 2.0
        t[0] = 0.0
        return _read_only(t)

    @cached_property
    def diff(self) -> np.ndarray:
        return _read_only(-(2.0 / self.truncation) * self._chebyshev[0])

    @cached_property
    def diff2(self) -> np.ndarray:
        return _read_only(self.diff @ self.diff)

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only((self.truncation / 2.0) * clenshaw_curtis_weights(self.points))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


SPACES = ("physical", "spectral")   # a field's tangential representation


def _check_space(space):
    if space not in SPACES:
        raise ValueError(f"space must be one of {SPACES}, got {space!r}")


@dataclass
class HalfSpaceField:
    """Complex field indexed (mode axes..., normal node, component)."""

    values: np.ndarray
    tgrid: TangentialGrid
    ngrid: NormalGrid
    space: str = "physical"

    def __post_init__(self):
        _check_space(self.space)
        self.values = np.asarray(self.values, dtype=complex)
        expected = self.tgrid.mode_shape + (self.ngrid.points,)
        if self.values.shape[:-1] != expected:
            raise ValueError(f"shape {self.values.shape} incompatible with grids")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


@dataclass
class BoundaryField:
    """Complex boundary data indexed (mode axes..., component)."""

    values: np.ndarray
    tgrid: TangentialGrid
    space: str = "physical"

    def __post_init__(self):
        _check_space(self.space)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[: self.tgrid.dims] != self.tgrid.mode_shape:
            raise ValueError(f"shape {self.values.shape} incompatible with grid")
        if self.values.ndim == self.tgrid.dims:
            self.values = self.values[..., None]
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def spectral_values(fld) -> np.ndarray:
    """The field's values in the spectral representation: its own, or their forward FFT."""
    return fld.values if fld.space == "spectral" else fld.tgrid.forward(fld.values)


def physical_values(fld) -> np.ndarray:
    """The field's values in the physical representation: its own, or their inverse FFT."""
    return fld.values if fld.space == "physical" else fld.tgrid.inverse(fld.values)


# ---------------------------------------------------------------------------
# quadrature norms
# ---------------------------------------------------------------------------

def sum_sq(values, w):
    """sum of w |v|^2 over the quadrature axes, the leading w.ndim axes of values.

    Remaining axes are components, summed in quadrature (l2 over
    components inside the modulus).
    """
    mag = np.abs(values)
    if mag.ndim > w.ndim:
        mag = np.sqrt(np.sum(mag**2, axis=tuple(range(w.ndim, mag.ndim))))
    return np.sum(w * mag**2)


def field_weights(fld):
    """Quadrature weights over the field's mode and node axes: dx^dims, times ngrid.weights."""
    tw = np.full(fld.tgrid.mode_shape, fld.tgrid.dx ** fld.tgrid.dims)
    if isinstance(fld, HalfSpaceField):
        return tw[..., None] * fld.ngrid.weights
    return tw


def discrete_norm(fld) -> float:
    """Volume-normalized L_2 norm of the physical values: (integral |v|^2 / volume)^(1/2)."""
    w = field_weights(fld)
    return float(sum_sq(physical_values(fld), w / w.sum()) ** 0.5)


def edge_support_ratio(fld) -> float:
    """Largest edge amplitude of a physical field relative to its maximum.

    Solvers require < 1e-10: the periodization is only faithful for data
    numerically supported inside the box.
    """
    if fld.space != "physical":
        raise ValueError("edge support is measured on physical samples")
    v = np.abs(np.asarray(fld.values))
    peak = float(v.max())
    if peak == 0:
        return 0.0
    edges = 0.0
    for ax in range(fld.tgrid.dims):
        edges = max(edges, float(np.take(v, 0, axis=ax).max()))
    return edges / peak
