"""Closed-form boundary symbols for the half-space resolvent problem.

Everything here is algebra in the pair (lambda, xi'), with xi' the
tangential frequency vector and xi2 = |xi'|^2:

    A = sqrt(lambda/(2a+b+z) + xi2)     B = sqrt(lambda/a + xi2)
    M(x) = (B - A)^-1 (exp(-Bx) - exp(-Ax))

(a, b, z) are the reduced coefficients alpha, beta, zeta.  The 2x2
boundary matrix L couples the normal-velocity and divergence traces;
its determinant combines with the surface term into

    N(A, B) = lambda det L + sigma L11 (m + xi2),

whose reciprocal multiplies every solution symbol n_Jk.  L is evaluated
from its direct rational entries; the paper's second printed form, the
P-factored one with P = lambda / (AB - xi2), is the test oracle these
entries are checked against.

SYMBOLS, at the end of this module, is the one table of the symbols the
multiplier-class scans check: each name's evaluator, the class its bound
comes from, and whether verify-symbols scans it by default.

All evaluators broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .regions import FluidParams

NEAR_SINGULAR_REL = 1e-14
M_TAYLOR_SWITCH = 1e-6
N_FLOOR = 1e-10


class NearSingularError(ArithmeticError):
    """Denominator AB - |xi|^2 vanishes to working precision."""


class SingularSymbolError(ArithmeticError):
    """N(A, B) fell below its certified lower bound."""


@dataclass(frozen=True)
class SymbolParams:
    """Reduced coefficients consumed by the symbol formulas."""

    alpha: float
    beta: float
    zeta: complex
    sigma: float
    m: float

    @classmethod
    def from_fluid(cls, params: FluidParams, zeta=None) -> "SymbolParams":
        """Rescale (mu, nu, zeta, sigma) by 1/gamma1.

        zeta overrides the effective (already reduced) zeta; by default it
        is gamma3 zeta / gamma1.
        """
        g = params.gamma1
        z = params.gamma3 * params.zeta / g if zeta is None else complex(zeta)
        return cls(alpha=params.mu / g, beta=(params.nu - params.mu) / g, zeta=z,
                   sigma=params.sigma / g, m=params.m)

    @property
    def two_ab_z(self) -> complex:
        return 2 * self.alpha + self.beta + self.zeta

    @property
    def eta_coef(self) -> complex:
        # the paper's eta in the velocity formulas, renamed to avoid the density
        return (self.alpha + self.beta + self.zeta) / self.alpha


@dataclass(frozen=True)
class LopatinskiMatrix:
    A: object
    B: object
    L11: object
    L12: object
    L21: object
    L22: object
    detL: object
    N: object


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------

def core_values(lam, xi_sq, p: SymbolParams):
    """A, B on the principal branch; broadcasts over lam and xi_sq."""
    lam = np.asarray(lam, dtype=complex)
    xi_sq = np.asarray(xi_sq)
    A = np.sqrt(lam / p.two_ab_z + xi_sq)
    B = np.sqrt(lam / p.alpha + xi_sq)
    return A, B


def mollified_exp(A, B, x):
    """M(x) = (B-A)^-1 (e^{-Bx} - e^{-Ax}), continuous across B = A.

    Switches to the three-term Taylor expansion in (B - A) when the
    difference is below M_TAYLOR_SWITCH relative to |A| + |B|, which
    avoids catastrophic cancellation at ~1e-12 accuracy.
    """
    A, B, x = np.broadcast_arrays(np.asarray(A, dtype=complex),
                                  np.asarray(B, dtype=complex),
                                  np.asarray(x))
    delta = B - A
    scale = np.abs(A) + np.abs(B)
    small = np.abs(delta) < M_TAYLOR_SWITCH * scale
    safe_delta = np.where(small, 1.0, delta)
    direct = (np.exp(-B * x) - np.exp(-A * x)) / safe_delta
    dx = delta * x
    taylor = -x * np.exp(-A * x) * (1.0 - dx / 2.0 + dx * dx / 6.0)
    out = np.where(small, taylor, direct)
    return out if out.ndim else complex(out)


def mollified_exp_derivatives(A, B, x):
    """(M, M', M'') using dM/dx = -e^{-Bx} - A M."""
    M = mollified_exp(A, B, x)
    E = np.exp(np.asarray(B, dtype=complex) * (-np.asarray(x)))
    M1 = -E - A * M
    M2 = B * E - A * M1
    return M, M1, M2


def lopatinski_values(lam, xi_sq, p: SymbolParams, check: bool = True) -> LopatinskiMatrix:
    """A, B, the boundary matrix L, its determinant and N(A, B).

    check raises NearSingularError where AB - xi2 vanishes to working
    precision and SingularSymbolError where |N| falls below n_floor.
    The quantities B^2 - xi2, A^2 - xi2 and AB - xi2 are evaluated by
    substituting the defining relations (lambda/a, lambda/(2a+b+z) and the
    rationalized product form); the literal differences lose ~6 digits at
    |xi| ~ 1e3 and would break the 1e-12 agreement with the P-factored form.
    """
    lam = np.asarray(lam, dtype=complex)
    xi_sq = np.asarray(xi_sq)
    A, B = core_values(lam, xi_sq, p)
    a, bz, s2 = p.alpha, p.beta + p.zeta, p.two_ab_z
    s3 = 3 * a + p.beta + p.zeta
    # AB - xi2 = lam (lam + s3 xi2) / (a s2 (AB + xi2)), so P = lam/(AB - xi2):
    P = a * s2 * (A * B + xi_sq) / (lam + s3 * xi_sq)
    den = lam / P
    if check:
        bad = np.abs(den) < NEAR_SINGULAR_REL * (np.abs(A * B) + np.abs(xi_sq))
        if np.any(bad):
            raise NearSingularError("AB - |xi|^2 vanishes to working precision")

    B_minus_A = lam * (p.alpha + p.beta + p.zeta) / (a * s2 * (A + B))
    L11 = a * A * (lam / a) / den
    L12 = a * xi_sq * (den - B * B_minus_A) / den
    L21 = (2 * a * A * B_minus_A - bz * (lam / s2)) / den
    L22 = s2 * B * (lam / s2) / den
    detL = L11 * L22 - L12 * L21
    N = lam * detL + p.sigma * L11 * (p.m + xi_sq)
    if check and np.any(np.abs(N) < n_floor(lam, np.sqrt(xi_sq))):
        raise SingularSymbolError("N(A, B) below certified lower bound")
    return LopatinskiMatrix(A=A, B=B, L11=L11, L12=L12, L21=L21, L22=L22, detL=detL, N=N)


def q_values(lam, xi_sq, p: SymbolParams):
    """Q = (|xi|^2 - A^2)/(AB - |xi|^2) and Q' = (AB + |xi|^2)^-1.

    xi2 - A^2 is -lambda/(2a+b+z) by definition, so Q reduces to the
    stable form -(a)(AB + xi2)/(lambda + s3 xi2) with s3 = 3a + b + z.
    """
    A, B = core_values(lam, xi_sq, p)
    s3 = 3 * p.alpha + p.beta + p.zeta
    Qp = 1.0 / (A * B + xi_sq)
    Q = -p.alpha * (A * B + xi_sq) / (np.asarray(lam, dtype=complex) + s3 * xi_sq)
    return Q, Qp


def n_floor(lam, xi_norm):
    """Certified lower bound N_FLOOR (|lam| + |xi|) (|lam|^1/2 + |xi|)^2 of |N|."""
    al = np.abs(np.asarray(lam, dtype=complex))
    return N_FLOOR * (al + xi_norm) * (np.sqrt(al) + xi_norm) ** 2


def njk_values(L: LopatinskiMatrix, Q, xi, p: SymbolParams):
    """Solution-operator symbols n_J1, n_J2 from L and Q at the same points.

    xi has shape (..., N-1); returns (n_t1, n_t2, n_N1, n_N2) where the
    tangential pair carries the i*xi_j factor and shares xi's shape.
    """
    xi = np.asarray(xi, dtype=float)
    A, B = L.A, L.B
    common = p.eta_coef * (L.L12 + B * L.L11) * Q / (B * (A + B) * L.N)
    ixj = 1j * xi
    n_t1 = -p.sigma * ixj * common[..., None]
    n_t2 = p.sigma * ixj * (L.L11 / (B * L.N))[..., None]
    n_N1 = p.sigma * A * common
    n_N2 = p.sigma * L.L11 / L.N
    return n_t1, n_t2, n_N1, n_N2


# ---------------------------------------------------------------------------
# the symbol table of the multiplier-class scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolClass:
    """A scanned symbol: its evaluator and the class its bound comes from.

    evaluate(lam, xi, p) takes xi of shape (..., N-1).  The bound of
    d^kappa_xi (tau d_tau)^ell m is

        (|lam|^1/2 + |xi|)^(order - |kappa|) (|lam| + |xi|)^lam_xi_weight,

    times exp(-c'(|lam|^1/2 + |xi|)) with a fitted decay constant c' when
    exp_decay is set.  default marks the symbols verify-symbols scans when
    its [scan] block lists none.
    """

    evaluate: Callable
    order: float
    lam_xi_weight: float = 0.0
    exp_decay: bool = False
    default: bool = True


def _of_xi_sq(f):
    """The (lam, xi, p) evaluator of f(lam, xi_sq, p)."""
    def g(lam, xi, p):
        xi = np.asarray(xi, dtype=float)
        return f(np.asarray(lam, dtype=complex), np.sum(xi**2, axis=-1), p)
    return g


def _of_L(f):
    """The evaluator of f(L), with L's guards off (check=False)."""
    return _of_xi_sq(lambda lam, xi_sq, p: f(lopatinski_values(lam, xi_sq, p, check=False)))


def _njk(part, axis=None):
    """The evaluator of njk_values(...)[part], on one tangential axis if given."""
    def g(lam, xi, p):
        xi = np.asarray(xi, dtype=float)
        lam = np.asarray(lam, dtype=complex)
        xi_sq = np.sum(xi**2, axis=-1)
        L = lopatinski_values(lam, xi_sq, p, check=False)
        out = njk_values(L, q_values(lam, xi_sq, p)[0], xi, p)[part]
        return out if axis is None else out[..., axis]
    return g


# detL/N and N^-1 carry the extra (|lam|+|xi|)^-1 factor: their certified
# envelopes are not plain multiplier classes.
SYMBOLS = {
    "A": SymbolClass(_of_xi_sq(lambda lam, xi_sq, p: core_values(lam, xi_sq, p)[0]), 1.0),
    "B": SymbolClass(_of_xi_sq(lambda lam, xi_sq, p: core_values(lam, xi_sq, p)[1]), 1.0),
    "L11": SymbolClass(_of_L(lambda L: L.L11), 1.0),
    "L12": SymbolClass(_of_L(lambda L: L.L12), 2.0),
    "L21": SymbolClass(_of_L(lambda L: L.L21), 0.0),
    "L22": SymbolClass(_of_L(lambda L: L.L22), 1.0),
    "detL": SymbolClass(_of_L(lambda L: L.detL), 2.0),
    "detL_inv": SymbolClass(_of_L(lambda L: 1.0 / L.detL), -2.0),
    "Q": SymbolClass(_of_xi_sq(lambda lam, xi_sq, p: q_values(lam, xi_sq, p)[0]), 0.0),
    "Qprime": SymbolClass(_of_xi_sq(lambda lam, xi_sq, p: q_values(lam, xi_sq, p)[1]), -2.0),
    "n11": SymbolClass(_njk(0, 0), -2.0),
    "n12": SymbolClass(_njk(1, 0), -2.0),
    "nN1": SymbolClass(_njk(2), -2.0),
    "nN2": SymbolClass(_njk(3), -2.0),
    "detL_over_N": SymbolClass(_of_L(lambda L: L.detL / L.N), 0.0, lam_xi_weight=-1.0),
    "N_inv": SymbolClass(_of_L(lambda L: 1.0 / L.N), -2.0, lam_xi_weight=-1.0, default=False),
    # exp(-B x_N) at x_N = 1, against the decay of Lemma ABL(1)
    "exp_BxN": SymbolClass(_of_xi_sq(lambda lam, xi_sq, p: np.exp(-core_values(lam, xi_sq, p)[1])),
                           0.0, exp_decay=True, default=False),
}
