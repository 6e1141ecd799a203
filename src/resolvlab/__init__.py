"""resolvlab: spectral laboratory for free-surface compressible-flow resolvents.

Per-Fourier-mode half-space solvers, symbol-class scans, lower-bound
certification, randomized square-function estimates, contour-quadrature
time evolution and a bent-half-space perturbation solver.
"""

__version__ = "0.1.0"
