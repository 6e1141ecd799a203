"""resolvlab: spectral laboratory for free-surface compressible-flow resolvents.

Per-Fourier-mode half-space solvers, symbol-class scans, lower-bound
certification, randomized square-function estimates, contour-quadrature
time evolution and a bent-half-space perturbation solver.
"""

__version__ = "0.1.0"

from .regions import (  # noqa: F401
    FluidParams,
    SectorSpec,
    in_gamma_region,
    in_lambda_region,
    in_sigma,
)
from .symbols import LopatinskiMatrix, SymbolParams  # noqa: F401
