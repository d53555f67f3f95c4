"""Bond <-> effective moduli conversion for the perforated sheet.

Matching the displacement jumps of the periodic solution across one
period to those of a homogeneous isotropic sheet gives, per hole radius,
an affine map of two numbers (Cherkaev, Lurie & Milton, Proc. R. Soc. A
438:519, 1992; Day et al., J. Mech. Phys. Solids 40:1031, 1992):

    E_eff = e E,  nu_eff = e nu + c,  e = 1/(1 + b(p - 2q)),  c = -b(p + 2q) e,

with b = lambda^2 delta, p = beta1 of the sigma_+ = 1 unit load and
q = alpha1 of the sigma_- = 1 one.  The solver ties the other two
unit-load coefficients to these (alpha0+ = (b/2) p, beta0- = b q).  The
raw 4x4 jump-matching system reads all four and is kept as an internal
oracle: its determinant, the isotropy collapse kappa_1 = kappa_2 and its
agreement with the map are checked rather than assumed.

Conversions are load-independent: the boundary conditions are pure
tractions, so the unit-load coefficient sets depend only on the lattice
and the hole radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InvalidArgumentError, NumericalError
from .lattice import LatticeSpec, LatticeSums
from .solver import unit_load_coefficients

__all__ = [
    "ModuliSet",
    "HomogenizationData",
    "IsotropyReport",
    "homogenization_data",
    "bond_from_effective",
    "effective_from_bond",
    "isotropy_check",
]

# Smallest acceptable value of the O(1) denominator 1 / e of the map;
# below this the geometry is degenerate.
_DEGENERATE_EPS = 1e-10


def _check_nu(nu: float, name: str = "nu", hi: float = 1.0):
    # conversions use the two-dimensional stability bound nu < 1: the bond
    # ratio recovered from a large hole fraction can legitimately exceed the
    # three-dimensional 0.5 limit that ModuliSet enforces for materials
    if not -1.0 < nu < hi:
        raise InvalidArgumentError(f"Poisson ratio {name} = {nu} outside (-1, {hi})")


@dataclass(frozen=True)
class ModuliSet:
    """Bond moduli (E, nu) together with their effective counterparts."""

    E: float
    nu: float
    E_eff: float
    nu_eff: float

    def __post_init__(self):
        if not self.E > 0 or not self.E_eff > 0:
            raise InvalidArgumentError("Young moduli must be positive")
        _check_nu(self.nu, "nu", hi=0.5)
        _check_nu(self.nu_eff, "nu_eff", hi=0.5)

    @property
    def G(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def kappa(self) -> float:
        return (3.0 - self.nu) / (1.0 + self.nu)

    @property
    def kappa_plus(self) -> float:
        return (1.0 + self.nu_eff) / self.E_eff

    @property
    def kappa_minus(self) -> float:
        return (1.0 - self.nu_eff) / self.E_eff


@dataclass(frozen=True)
class HomogenizationData:
    """The four real unit-load coefficients of one hole radius.

    alpha0_plus and beta1_plus come from the equibiaxial unit load
    (sigma_+ = 1), alpha1_minus and beta0_minus from the pure-deviator
    unit load (sigma_- = 1); delta is the real cyclic constant of the
    lattice and a its constant.  The map's two numbers e and c read
    beta1_plus and alpha1_minus; the 4x4 oracle reads all four.
    """

    a: float
    lam: float
    delta: float
    alpha0_plus: float
    beta1_plus: float
    alpha1_minus: float
    beta0_minus: float

    @property
    def lam2delta(self) -> float:
        return self.lam**2 * self.delta

    @property
    def e(self) -> float:
        """Slope of the map: E_eff / E, the same for every bond nu."""
        den = 1.0 + self.lam2delta * (self.beta1_plus - 2.0 * self.alpha1_minus)
        if not den > _DEGENERATE_EPS:
            raise NumericalError(f"degenerate geometry: conversion denominator {den:.3e}")
        return 1.0 / den

    @property
    def c(self) -> float:
        """Offset of the map: nu_eff = e nu + c."""
        return -self.lam2delta * (self.beta1_plus + 2.0 * self.alpha1_minus) * self.e


def homogenization_data(
    spec: LatticeSpec,
    lam: float,
    K: int = 16,
    *,
    sums: LatticeSums,
) -> HomogenizationData:
    """Unit-load coefficient set for one (lattice, hole radius) pair."""
    plus, minus = unit_load_coefficients(spec, lam, K=K, sums=sums)
    vals = {
        "alpha0_plus": plus.alpha0,
        "beta1_plus": plus.beta[0],
        "alpha1_minus": minus.alpha[0],
        "beta0_minus": minus.beta0,
    }
    scale = max(abs(v) for v in vals.values())
    for name, v in vals.items():
        if abs(np.imag(v)) > 1e-9 * max(scale, 1.0):
            raise ConsistencyError(
                f"unit-load coefficient {name} = {v} is not real", residual=abs(np.imag(v))
            )
    return HomogenizationData(
        a=spec.a,
        lam=float(lam),
        delta=float(sums.delta),
        alpha0_plus=float(np.real(vals["alpha0_plus"])),
        beta1_plus=float(np.real(vals["beta1_plus"])),
        alpha1_minus=float(np.real(vals["alpha1_minus"])),
        beta0_minus=float(np.real(vals["beta0_minus"])),
    )


def bond_from_effective(E_eff: float, nu_eff: float, data: HomogenizationData) -> tuple[float, float]:
    """Bond moduli (E, nu) that produce the given effective pair."""
    if not E_eff > 0:
        raise InvalidArgumentError(f"E_eff must be positive, got {E_eff}")
    _check_nu(nu_eff, "nu_eff")
    e, c = data.e, data.c
    nu = (nu_eff - c) / e
    if not -1.0 < nu < 1.0:
        raise InvalidArgumentError(
            f"nu_eff = {nu_eff} is unreachable at lambda = {data.lam:.6g}: bond ratios "
            f"in (-1, 1) give nu_eff in ({c - e:.6g}, {c + e:.6g})"
        )
    return E_eff / e, nu


def effective_from_bond(E: float, nu: float, data: HomogenizationData) -> tuple[float, float]:
    """Effective moduli (E_eff, nu_eff) of the perforated sheet."""
    if not E > 0:
        raise InvalidArgumentError(f"E must be positive, got {E}")
    _check_nu(nu, "nu")
    e = data.e
    return e * E, e * nu + data.c


@dataclass(frozen=True)
class IsotropyReport:
    """Result of solving the raw 4x4 jump-matching system directly."""

    det: complex
    det_expected: float
    det_rel_err: float
    kappa_plus: float
    kappa_minus: float
    split_plus: float
    split_minus: float
    imag_residual: float
    closed_form_gap: float


def isotropy_check(data: HomogenizationData, E: float = 1.0, nu: float = 0.3) -> IsotropyReport:
    """Solve the jump-matching system for kappa_j^pm and test isotropy.

    The system couples the four unknowns (kappa_1^-, kappa_2^-,
    kappa_1^+, kappa_2^+) through the two periods; for the hexagonal
    lattice its solution must collapse to kappa_1 = kappa_2 and agree
    with the closed-form conversion.  Discrepancies are reported, not
    raised.
    """
    if not E > 0:
        raise InvalidArgumentError(f"E must be positive, got {E}")
    _check_nu(nu, "nu")
    a = data.a
    w1 = a * np.sqrt(3) / 2 - 1j * a / 2
    w2 = np.conj(w1)
    # cyclic constants of the two periods; delta is their real invariant
    d1 = data.delta * np.conj(w1)
    d2 = data.delta * np.conj(w2)
    kappa = (3.0 - nu) / (1.0 + nu)
    ld = data.lam**2

    M = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    for j, wj in enumerate((w1, w2)):
        wjb = np.conj(wj)
        dj = (d1, d2)[j]
        M[j] = [wj, wj, wjb, -wjb]
        M[2 + j] = [-wj, wj, -wjb, -wjb]
        bp = (1.0 - nu) / E * wj + (1.0 + nu) / E * (
            data.alpha0_plus * (kappa - 1.0) * wj + data.beta1_plus * ld * np.conj(dj)
        )
        bm = (1.0 + nu) / E * (-wjb + data.alpha1_minus * ld * kappa * dj + data.beta0_minus * wjb)
        # the jump of u + iv is twice the per-coordinate strain jump
        rhs[j] = 2.0 * bp
        rhs[2 + j] = 2.0 * bm
    det = complex(np.linalg.det(M))
    det_expected = -12.0 * a**4
    x = np.linalg.solve(M, rhs)
    km1, km2, kp1, kp2 = x
    scale_p = max(abs(kp1), abs(kp2), 1e-300)
    scale_m = max(abs(km1), abs(km2), 1e-300)
    E_eff, nu_eff = effective_from_bond(E, nu, data)
    kp_closed = (1.0 + nu_eff) / E_eff
    km_closed = (1.0 - nu_eff) / E_eff
    gap = max(
        abs(np.real(kp1) - kp_closed) / max(abs(kp_closed), 1e-300),
        abs(np.real(km1) - km_closed) / max(abs(km_closed), 1e-300),
    )
    return IsotropyReport(
        det=det,
        det_expected=det_expected,
        det_rel_err=abs(det - det_expected) / abs(det_expected),
        kappa_plus=float(np.real(kp1 + kp2) / 2),
        kappa_minus=float(np.real(km1 + km2) / 2),
        split_plus=float(abs(kp1 - kp2) / scale_p),
        split_minus=float(abs(km1 - km2) / scale_m),
        imag_residual=float(max(abs(np.imag(v)) for v in x)),
        closed_form_gap=float(gap),
    )
