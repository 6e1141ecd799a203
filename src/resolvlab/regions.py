"""Scalar parameters and complex-plane region geometry.

The resolvent parameter lambda lives in one of three nested regions:

    Sigma(eps)            |arg z| <= pi - eps, z != 0
    Sigma(eps, lam0)      additionally |z| >= lam0
    Lambda(eps, lam0)     additionally outside the disk of radius
                          rho3/nu + eps centered at -(rho3/nu + eps)
    Gamma(eps, lam0, zeta) case-dependent:
        C1  (zeta ~ 1/lambda)          -> Lambda(eps, lam0)
        C2  (zeta in Sigma, Re zeta<0) -> Re lam >= |Re z / Im z| |Im lam|,
                                          Re lam >= lam0
        C3  (Re zeta >= 0)             -> Re lam >= lam0 (C2's with slope 0)

All membership tests are closed-set tests with an absolute boundary
tolerance of 1e-12; boundary points count as inside.  lambda = 0 is
always rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

BOUNDARY_TOL = 1e-12

ZETA_CASES = ("C1", "C2", "C3")


class RegionError(NumericalError, ValueError):
    """A spectral parameter lies outside the admissible region."""


class DegenerateCaseError(NumericalError, ValueError):
    """A zeta-case condition is undefined (e.g. C2 with Im zeta = 0)."""


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the linearized free-surface model.

    mu, nu are the viscosities, sigma the surface tension, m the surface
    mass constant, gamma1/gamma3 the density/pressure weights and zeta
    the complex perturbation parameter with |zeta| <= zeta0.  rho1..rho3
    bracket the gamma's: rho1 <= gamma1 <= rho2 and 0 < gamma3 <= rho3.
    """

    mu: float = 1.0
    nu: float = 1.0
    sigma: float = 1.0
    m: float = 1.0
    gamma1: float = 1.0
    gamma3: float = 1.0
    zeta: complex = 0.0
    zeta0: float = 1.0
    rho1: float = 1.0
    rho2: float = 1.0
    rho3: float = 1.0

    def __post_init__(self):
        if not (self.mu > 0 and self.nu > 0 and self.m > 0):
            raise ValueError("mu, nu, m must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if abs(self.zeta) > self.zeta0 + BOUNDARY_TOL:
            raise ValueError("|zeta| exceeds zeta0")
        if not (0 < self.rho1 <= self.gamma1 <= self.rho2):
            raise ValueError("need 0 < rho1 <= gamma1 <= rho2")
        if not (0 < self.gamma3 <= self.rho3):
            raise ValueError("need 0 < gamma3 <= rho3")

    @property
    def gamma2(self) -> float:
        # gamma3 factors as gamma1*gamma2 in the density-coupled system
        return self.gamma3 / self.gamma1


@dataclass(frozen=True)
class SectorSpec:
    """Shape of the admissible lambda region."""

    epsilon: float = math.pi / 4
    lambda0: float = 1.0
    zeta_case: str = "C3"
    rho3_over_nu: float = 1.0  # disk parameter of the Lambda region

    def __post_init__(self):
        if not (0 < self.epsilon < math.pi / 2):
            raise ValueError("epsilon must lie in (0, pi/2)")
        if self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative")
        if self.zeta_case not in ZETA_CASES:
            raise ValueError(f"zeta_case must be one of {ZETA_CASES}")


def in_sigma(lam, epsilon, lambda0=0.0):
    """Membership in Sigma(eps, lam0).  Vectorized over lam."""
    if not (0 < epsilon < math.pi / 2):
        raise ValueError("epsilon must lie in (0, pi/2)")
    lam = np.asarray(lam, dtype=complex)
    nonzero = lam != 0
    # np.angle returns the principal argument in (-pi, pi]
    arg_ok = np.abs(np.angle(lam)) <= math.pi - epsilon + BOUNDARY_TOL
    mod_ok = np.abs(lam) >= lambda0 - BOUNDARY_TOL
    out = nonzero & arg_ok & mod_ok
    return bool(out) if out.ndim == 0 else out


def in_lambda_region(lam, spec: SectorSpec):
    """Membership in Lambda(eps, lam0): sector minus the excluded disk."""
    lam = np.asarray(lam, dtype=complex)
    r = spec.rho3_over_nu + spec.epsilon
    outside_disk = (lam.real + r) ** 2 + lam.imag**2 >= r**2 - BOUNDARY_TOL
    out = in_sigma(lam, spec.epsilon, spec.lambda0) & outside_disk
    return bool(out) if out.ndim == 0 else out


def check_zeta_case(spec: SectorSpec, params: FluidParams) -> float:
    """Check zeta against spec's case; return the slope of Re lam >= slope |Im lam|.

    C3 needs Re zeta >= 0, C2 a finite |Re zeta / Im zeta|, its slope; C1 and C3 have 0.
    """
    if spec.zeta_case == "C3" and params.zeta.real < 0:
        raise RegionError("case C3 requires Re zeta >= 0")
    slope = abs(params.zeta.real / params.zeta.imag) if params.zeta.imag else math.inf
    if spec.zeta_case == "C2" and not slope < math.inf:
        raise DegenerateCaseError("case C2 requires Im zeta != 0 and a finite Re zeta / Im zeta")
    return slope if spec.zeta_case == "C2" else 0.0


def in_gamma_region(lam, spec: SectorSpec, params: FluidParams):
    """Membership in Gamma(eps, lam0, zeta), by zeta case."""
    slope = check_zeta_case(spec, params)
    lam = np.asarray(lam, dtype=complex)
    if spec.zeta_case == "C1":
        return in_lambda_region(lam, spec)
    out = ((lam != 0) & (lam.real >= slope * np.abs(lam.imag) - BOUNDARY_TOL)
           & (lam.real >= spec.lambda0 - BOUNDARY_TOL))
    return bool(out) if out.ndim == 0 else out


def gamma_points(u_mod, u_arg, spec: SectorSpec, params: FluidParams, span: float):
    """lam0 span**u_mod exp(i (2 u_arg - 1) theta_max) in Gamma(eps, lam0, zeta), lam0 >= 1e-12.

    theta_max(|lambda|) is the largest admissible argument at that modulus.
    """
    slope = check_zeta_case(spec, params)
    lam0 = max(spec.lambda0, 1e-12)
    r = lam0 * span ** u_mod
    if spec.zeta_case == "C1":
        # outside the disk |lam + R| < R, R = rho3/nu + eps: cos(arg) >= -r/2R
        R = spec.rho3_over_nu + spec.epsilon
        tmax = np.minimum(math.pi - spec.epsilon,
                          np.arccos(np.maximum(-1.0, -r / (2 * R))) - 1e-12)
    else:  # the slope's angle (0 for a slope over 1e12) and Re lam >= lam0 at fixed radius
        tmax = np.minimum(np.arccos(np.minimum(1.0, lam0 / r)),
                          max(math.atan2(1.0, slope) - 1e-12, 0.0))
    lam = r * np.exp(1j * (2 * u_arg - 1) * tmax)
    # on the edge arg = tmax, cos(arccos(lam0/r)) may round below lam0
    return lam if spec.zeta_case == "C1" else np.maximum(lam.real, lam0) + 1j * lam.imag
