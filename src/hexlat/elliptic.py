"""Weierstrass p, zeta, and the Natanzon function N.

Two evaluation paths are provided: Laurent series around the cell
center (fast path, valid in an annulus strictly inside the cell) and
truncated direct lattice sums (slow oracle path).  Both paths truncate
over the same hexagonal index region, so their truncation errors track
each other and comparisons are meaningful well below the tail size.

Series used (a = lattice constant, c_s/d_s from `lattice`):

    p(z)    = 1/z^2 + sum_s c_s z^(2s-2)
    zeta(z) = 1/z   - sum_s c_s z^(2s-1)/(2s-1)        (p = -zeta')
    N(z)    =         sum_s 2s d_s z^(2s-1)

N is holomorphic at the origin (its poles sit on the nonzero lattice
translates) and N(0) = 0, so its even-order derivatives follow from
term-wise integration with zero constants.

`fold_point` reduces a point to the Voronoi cell around the origin by
comparing only the four corners of the period parallelogram that holds
it: that parallelogram is two equilateral triangles, and the nearest
lattice point is always a vertex of the point's triangle.  A scalar
point is folded in plain Python arithmetic, an array in numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError, InvalidArgumentError, PoleError
from .lattice import LatticeSpec, LatticeSums, lattice_translates

__all__ = [
    "EllipticEvaluator",
    "make_evaluator",
    "fold_point",
    "wp_deriv",
    "wp_deriv_direct",
    "zeta_fn",
    "zeta_direct",
    "natanzon_deriv",
    "natanzon_deriv_direct",
]

_POLE_EPS = 1e-12


@dataclass(frozen=True)
class EllipticEvaluator:
    """Laurent-series evaluator tied to one set of lattice sums.

    laurent_terms is the number of retained powers J_max; the series are
    trusted only inside the annulus r_min <= |z| <= r_max < a/2.
    """

    sums: LatticeSums
    laurent_terms: int
    r_min: float
    r_max: float

    def __post_init__(self):
        a = self.sums.spec.a
        if not 0 < self.r_min <= self.r_max:
            raise InvalidArgumentError("need 0 < r_min <= r_max")
        if not self.r_max < a / 2:
            raise InvalidArgumentError(f"r_max = {self.r_max} must be < a/2 = {a / 2}")
        if self.laurent_terms < 4:
            raise InvalidArgumentError("laurent_terms must be >= 4")


def make_evaluator(sums: LatticeSums, r_min: float | None = None, r_max: float | None = None) -> EllipticEvaluator:
    """Evaluator with the retained-power count chosen adaptively.

    Powers are added until the last retained p-series term falls below
    1e-16 of the singular part at |z| = r_max, capped at 64 terms and at
    the available s_max.
    """
    a = sums.spec.a
    if r_min is None:
        r_min = 1e-3 * a
    if r_max is None:
        r_max = 0.3 * a
    scale = r_max**-2
    terms = 4
    quiet = 0  # consecutive negligible terms (zero pattern leaves 2 of 3 empty)
    for s in range(2, min(sums.s_max, 64) + 1):
        terms = s
        small = max(abs(sums.c[s]), abs(sums.d[s]) * r_max) * r_max ** (2 * s - 2) < 1e-16 * scale
        quiet = quiet + 1 if small else 0
        if quiet >= 3 and s >= 4:
            break
    return EllipticEvaluator(sums=sums, laurent_terms=terms, r_min=r_min, r_max=r_max)


# Corners (dm, dn) of the period parallelogram that holds z, in
# ascending order so that the first minimum breaks distance ties by the
# smallest (m, n).
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
_CORNER_DM, _CORNER_DN = np.array(_CORNERS).T
# Distances are compared in units of 1e-12 a, rounded half to even, so
# translates within rounding of each other count as tied.
_TIE_UNITS = 1e12


def _cell_coordinates(z, w1: complex, w2: complex, a: float):
    """Real (u, v) with z = u*omega1 + v*omega2, for a scalar or an array.

    One factor of each product is taken in cell units (divided by a):
    in physical units omega1*conj(omega2) ~ a^2 overflows for a >~ 1e154.
    """
    w1c, w2c = w1.conjugate() / a, w2.conjugate() / a
    u = (z * w2c).imag / (w1 * w2c).imag
    v = (w1c * z).imag / (w1c * w2).imag
    return u, v


def fold_point(z: complex | np.ndarray, spec: LatticeSpec):
    """Reduce z to its Voronoi representative z0 = z - m*omega1 - n*omega2.

    The representative is the translate closest to the origin among the
    four corners of the period parallelogram holding z.  omega1 and
    omega2 are 60 degrees apart with |omega1 - omega2| = a, so that
    parallelogram is two equilateral triangles: the nearest lattice
    point is a vertex of z's triangle (at most a/sqrt(3) away), and
    every other lattice point lies at least (sqrt(3)/2)*a from it.  Ties
    are broken deterministically by (|z0|, m, n) ordering, with |z0|/a
    rounded to 12 decimals.  A scalar z runs in plain Python and returns
    (complex, int, int); an array returns arrays (z0, m, n) of its shape.
    """
    w1, w2, a = spec.omega1, spec.omega2, spec.a
    # Python numbers are tested first: np.ndim on one costs half a scalar fold
    if isinstance(z, (complex, float, int)) or np.ndim(z) == 0:
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"cannot fold a non-finite point {z}")
        u, v = _cell_coordinates(z, w1, w2, a)
        m0, n0 = math.floor(u), math.floor(v)
        best = None
        for dm, dn in _CORNERS:
            m, n = m0 + dm, n0 + dn
            z0 = z - m * w1 - n * w2
            key = round(abs(z0) / a * _TIE_UNITS)
            if best is None or key < best[0]:
                best = key, z0, m, n
        return best[1:]
    za = np.asarray(z, dtype=complex)
    if not np.isfinite(za).all():
        raise DomainError(f"cannot fold a non-finite point {z}")
    u, v = _cell_coordinates(za.reshape(-1, 1), w1, w2, a)
    m = np.floor(u).astype(int) + _CORNER_DM
    n = np.floor(v).astype(int) + _CORNER_DN
    cand = za.reshape(-1, 1) - m * w1 - n * w2
    pick = np.arange(len(cand)), np.argmin(np.rint(np.abs(cand) / a * _TIE_UNITS), axis=1)
    return tuple(arr[pick].reshape(za.shape) for arr in (cand, m, n))


def _check_annulus(z: complex, ev: EllipticEvaluator):
    r = abs(z)
    if r < _POLE_EPS * ev.sums.spec.a:
        raise PoleError("evaluation at the lattice point z = 0")
    if not ev.r_min <= r <= ev.r_max:
        raise DomainError(
            f"|z| = {r:.6g} outside the evaluator annulus [{ev.r_min:.6g}, {ev.r_max:.6g}]"
        )


def _falling(e: np.ndarray, k: int) -> np.ndarray:
    """Falling factorial e*(e-1)*...*(e-k+1), elementwise (1 for k = 0)."""
    out = np.ones_like(e, dtype=float)
    for i in range(k):
        out = out * (e - i)
    return out


def wp_deriv(z: complex, k: int, ev: EllipticEvaluator) -> complex:
    """k-th derivative of the Weierstrass p-function, Laurent path."""
    if k < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    _check_annulus(z, ev)
    sums = ev.sums
    s = np.arange(2, min(ev.laurent_terms, sums.s_max) + 1)
    e = 2.0 * s - 2.0
    coef = sums.c[s] * _falling(e, k)
    keep = e - k >= 0
    reg = np.sum(coef[keep] * z ** (e[keep] - k))
    sing = (-1) ** k * float(factorial(k + 1)) * z ** (-(k + 2.0))
    return complex(sing + reg)


def zeta_fn(z: complex, ev: EllipticEvaluator) -> complex:
    """Weierstrass zeta via Laurent series with quasi-periodic folding.

    Points outside the annulus are folded into the fundamental cell and
    the accumulated cyclic increments m*delta1 + n*delta2 are added back.
    """
    sums = ev.sums
    z0, m, n = fold_point(z, sums.spec)
    _check_annulus(z0, ev)
    s = np.arange(2, min(ev.laurent_terms, sums.s_max) + 1)
    val = 1.0 / z0 - np.sum(sums.c[s] * z0 ** (2.0 * s - 1.0) / (2.0 * s - 1.0))
    return complex(val + m * sums.delta1 + n * sums.delta2)


def natanzon_deriv(z: complex, k: int, ev: EllipticEvaluator) -> complex:
    """k-th derivative of the Natanzon function, Laurent path.

    Odd orders are plain term-wise derivatives of the d_s series; even
    orders are fixed by N(0) = 0 (all even derivatives vanish at the
    origin by the w -> -w antisymmetry of the defining sum).
    """
    if k < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    _check_annulus(z, ev)
    sums = ev.sums
    s = np.arange(2, min(ev.laurent_terms, sums.s_max) + 1)
    e = 2.0 * s - 1.0
    coef = 2.0 * s * sums.d[s] * _falling(e, k)
    keep = e - k >= 0
    return complex(np.sum(coef[keep] * z ** (e[keep] - k)))


def wp_deriv_direct(z: complex, k: int, spec: LatticeSpec, shells: int = 64) -> complex:
    """k-th derivative of p by truncated direct summation (oracle path)."""
    w = lattice_translates(spec, shells)
    if abs(z) < _POLE_EPS * spec.a or np.min(np.abs(z - w)) < _POLE_EPS * spec.a:
        raise PoleError("evaluation at a lattice point")
    if k == 0:
        return 1.0 / z**2 + complex(np.sum(1.0 / (z - w) ** 2 - 1.0 / w**2))
    fac = (-1) ** k * float(factorial(k + 1))
    return fac * (1.0 / z ** (k + 2) + complex(np.sum(1.0 / (z - w) ** (k + 2))))


def zeta_direct(z: complex, spec: LatticeSpec, shells: int = 64) -> complex:
    """Weierstrass zeta by truncated direct summation (oracle path)."""
    w = lattice_translates(spec, shells)
    if abs(z) < _POLE_EPS * spec.a or np.min(np.abs(z - w)) < _POLE_EPS * spec.a:
        raise PoleError("evaluation at a lattice point")
    return 1.0 / z + complex(np.sum(1.0 / (z - w) + 1.0 / w + z / w**2))


def natanzon_deriv_direct(z: complex, k: int, spec: LatticeSpec, shells: int = 64) -> complex:
    """k-th derivative of N by truncated direct summation (oracle path)."""
    w = lattice_translates(spec, shells)
    if np.min(np.abs(z - w)) < _POLE_EPS * spec.a:
        raise PoleError("evaluation at a lattice point")
    wb = np.conj(w)
    if k == 0:
        return complex(np.sum(wb * (1.0 / (z - w) ** 2 - 2.0 * z / w**3 - 1.0 / w**2)))
    if k == 1:
        return -2.0 * complex(np.sum(wb / (z - w) ** 3 + wb / w**3))
    fac = (-1) ** k * float(factorial(k + 1))
    return fac * complex(np.sum(wb / (z - w) ** (k + 2)))
