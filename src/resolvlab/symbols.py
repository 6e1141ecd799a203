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
multiplier-class scans check: the class each bound comes from, whether
verify-symbols scans it by default, and its projection of one shared
SymbolEvaluation.  An evaluation fills A, B, L, Q/Q' and n_Jk lazily, at
most once each, so the scans evaluate the kernels once for all the
symbols they check at a stack of points, and a single symbol costs only
the kernels it needs.

All evaluators broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalError
from .regions import FluidParams

NEAR_SINGULAR_REL = 1e-14
M_TAYLOR_SWITCH = 1e-6
N_FLOOR = 1e-10


class NearSingularError(NumericalError, ArithmeticError):
    """Denominator AB - |xi|^2 vanishes to working precision."""


class SingularSymbolError(NumericalError, ArithmeticError):
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


def lopatinski_values(lam, xi_sq, p: SymbolParams, check: bool = True,
                      core=None) -> LopatinskiMatrix:
    """A, B, the boundary matrix L, its determinant and N(A, B).

    core is (A, B) at the same points when already computed.  check raises
    NearSingularError where AB - xi2 vanishes to working precision and
    SingularSymbolError where |N| falls below n_floor.
    The quantities B^2 - xi2, A^2 - xi2 and AB - xi2 are evaluated by
    substituting the defining relations (lambda/a, lambda/(2a+b+z) and the
    rationalized product form); the literal differences lose ~6 digits at
    |xi| ~ 1e3 and would break the 1e-12 agreement with the P-factored form.
    """
    lam = np.asarray(lam, dtype=complex)
    xi_sq = np.asarray(xi_sq)
    A, B = core_values(lam, xi_sq, p) if core is None else core
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


def q_values(lam, xi_sq, p: SymbolParams, core=None):
    """Q = (|xi|^2 - A^2)/(AB - |xi|^2) and Q' = (AB + |xi|^2)^-1.

    xi2 - A^2 is -lambda/(2a+b+z) by definition, so Q reduces to the
    stable form -(a)(AB + xi2)/(lambda + s3 xi2) with s3 = 3a + b + z.
    core is (A, B) at the same points when already computed.
    """
    A, B = core_values(lam, xi_sq, p) if core is None else core
    s3 = 3 * p.alpha + p.beta + p.zeta
    Qp = 1.0 / (A * B + xi_sq)
    Q = -p.alpha * (A * B + xi_sq) / (np.asarray(lam, dtype=complex) + s3 * xi_sq)
    return Q, Qp


def n_scale(lam, xi_norm):
    """(|lam| + |xi|) (|lam|^1/2 + |xi|)^2, the growth of |N| on Gamma."""
    al = np.abs(np.asarray(lam, dtype=complex))
    return (al + xi_norm) * (np.sqrt(al) + xi_norm) ** 2


def n_floor(lam, xi_norm):
    """Certified lower bound N_FLOOR x n_scale of |N|."""
    return N_FLOOR * n_scale(lam, xi_norm)


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

class SymbolEvaluation:
    """The kernels at one stack of points (lam, xi), each evaluated at most once.

    xi has shape (..., N-1).  core (A, B), L, q (Q, Q') and njk are filled
    on first use from the ones they need, so a projection evaluates only
    its own kernels and the projections of one evaluation share them.
    """

    def __init__(self, lam, xi, p: SymbolParams):
        self.lam = np.asarray(lam, dtype=complex)
        self.xi = np.asarray(xi, dtype=float)
        self.xi_sq = np.sum(self.xi**2, axis=-1)
        self.p = p

    @cached_property
    def core(self):
        return core_values(self.lam, self.xi_sq, self.p)

    @cached_property
    def L(self):
        return lopatinski_values(self.lam, self.xi_sq, self.p, check=False, core=self.core)

    @cached_property
    def q(self):
        return q_values(self.lam, self.xi_sq, self.p, core=self.core)

    @cached_property
    def njk(self):
        return njk_values(self.L, self.q[0], self.xi, self.p)


@dataclass(frozen=True)
class SymbolClass:
    """A scanned symbol: its projection and the class its bound comes from.

    project maps a SymbolEvaluation to the symbol's values.  The bound of
    d^kappa_xi (tau d_tau)^ell m is

        (|lam|^1/2 + |xi|)^(order - |kappa|) (|lam| + |xi|)^lam_xi_weight,

    times exp(-c'(|lam|^1/2 + |xi|)) with a fitted decay constant c' when
    exp_decay is set.  default marks the symbols verify-symbols scans when
    its [scan] block lists none.
    """

    project: Callable
    order: float
    lam_xi_weight: float = 0.0
    exp_decay: bool = False
    default: bool = True


# detL/N and N^-1 carry the extra (|lam|+|xi|)^-1 factor: their certified
# envelopes are not plain multiplier classes.
SYMBOLS = {
    "A": SymbolClass(lambda e: e.core[0], 1.0),
    "B": SymbolClass(lambda e: e.core[1], 1.0),
    "L11": SymbolClass(lambda e: e.L.L11, 1.0),
    "L12": SymbolClass(lambda e: e.L.L12, 2.0),
    "L21": SymbolClass(lambda e: e.L.L21, 0.0),
    "L22": SymbolClass(lambda e: e.L.L22, 1.0),
    "detL": SymbolClass(lambda e: e.L.detL, 2.0),
    "detL_inv": SymbolClass(lambda e: 1.0 / e.L.detL, -2.0),
    "Q": SymbolClass(lambda e: e.q[0], 0.0),
    "Qprime": SymbolClass(lambda e: e.q[1], -2.0),
    "n11": SymbolClass(lambda e: e.njk[0][..., 0], -2.0),
    "n12": SymbolClass(lambda e: e.njk[1][..., 0], -2.0),
    "nN1": SymbolClass(lambda e: e.njk[2], -2.0),
    "nN2": SymbolClass(lambda e: e.njk[3], -2.0),
    "detL_over_N": SymbolClass(lambda e: e.L.detL / e.L.N, 0.0, lam_xi_weight=-1.0),
    "N_inv": SymbolClass(lambda e: 1.0 / e.L.N, -2.0, lam_xi_weight=-1.0, default=False),
    # exp(-B x_N) at x_N = 1, against the decay of Lemma ABL(1)
    "exp_BxN": SymbolClass(lambda e: np.exp(-e.core[1]), 0.0, exp_decay=True, default=False),
}


def evaluate_symbols(names, lam, xi, p: SymbolParams):
    """The named SYMBOLS at (lam, xi), stacked (len(names), ...), from one evaluation."""
    ev = SymbolEvaluation(lam, xi, p)
    return np.stack([SYMBOLS[name].project(ev) for name in names])
