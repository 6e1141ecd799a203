"""The base class of the numerical failures that resolvlab's layers raise.

Each layer's error classes subclass NumericalError first and keep their
builtin base (RuntimeError, ValueError or ArithmeticError) second, so
the CLI maps every one of them to exit status 3 without importing the
layers that define them.
"""


class NumericalError(Exception):
    """A solve, scan, quadrature or iteration that failed numerically."""
