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

These are oracles: the run path never imports this module.  `zeta_fn`
folds with `lattice.fold_point`, also named here.  The direct sums run over
the full rings (`lattice_translates`).  `recursion_c` only checks the summed
c_s: seeded with c_3, it would spread c_3's truncation error (3e-9 at 64
rings) to every c_3s.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError, InvalidArgumentError, PoleError
from .lattice import LatticeSpec, LatticeSums, fold_point

__all__ = [
    "EllipticEvaluator",
    "make_evaluator",
    "fold_point",
    "hex_ring_indices",
    "lattice_translates",
    "recursion_c",
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


def make_evaluator(sums: LatticeSums) -> EllipticEvaluator:
    """Evaluator on the annulus 1e-3 a <= |z| <= 0.3 a, with the
    retained-power count chosen adaptively.

    Powers are added until the last retained p-series term falls below
    1e-16 of the singular part at |z| = 0.3 a, capped at 64 terms and at
    the available s_max.
    """
    a = sums.spec.a
    r_min, r_max = 1e-3 * a, 0.3 * a
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


def _series_deriv(z: complex, k: int, ev: EllipticEvaluator, shift: float, weight):
    """k-th term-wise derivative of sum_s weight(s) z^(2s-shift) over the retained s."""
    if k < 0:
        raise InvalidArgumentError("derivative order must be >= 0")
    _check_annulus(z, ev)
    s = np.arange(2, min(ev.laurent_terms, ev.sums.s_max) + 1)
    e = 2.0 * s - shift
    coef = weight(s) * _falling(e, k)
    keep = e - k >= 0
    return np.sum(coef[keep] * z ** (e[keep] - k))


def wp_deriv(z: complex, k: int, ev: EllipticEvaluator) -> complex:
    """k-th derivative of the Weierstrass p-function, Laurent path."""
    reg = _series_deriv(z, k, ev, 2.0, lambda s: ev.sums.c[s])
    return complex((-1) ** k * float(factorial(k + 1)) * z ** (-(k + 2.0)) + reg)


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
    return complex(_series_deriv(z, k, ev, 1.0, lambda s: 2.0 * s * ev.sums.d[s]))


def hex_ring_indices(shells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All index pairs with 0 < max(|m|, |n|, |m+n|) <= shells.

    Returns (m, n, ring) with ring the hexagonal norm of each pair.
    """
    rng = np.arange(-shells, shells + 1)
    m, n = np.meshgrid(rng, rng, indexing="ij")
    m = m.ravel()
    n = n.ravel()
    ring = np.maximum(np.maximum(np.abs(m), np.abs(n)), np.abs(m + n))
    keep = (ring > 0) & (ring <= shells)
    return m[keep], n[keep], ring[keep]


def lattice_translates(spec: LatticeSpec, shells: int) -> np.ndarray:
    """Nonzero translates w = m*omega1 + n*omega2 inside `shells` rings."""
    m, n, _ = hex_ring_indices(shells)
    return m * spec.omega1 + n * spec.omega2


def recursion_c(c3: float, s_max: int) -> np.ndarray:
    """All c_s from c_3 alone via the hexagonal recursion.

    c_{3s} = sum_{t=1}^{s-1} c_{3t} c_{3(s-t)} / ((6s+1)(s-1)); every
    order not divisible by 3 is identically zero.
    """
    c = np.zeros(s_max + 1)
    if s_max >= 3:
        c[3] = c3
    s = 2
    while 3 * s <= s_max:
        acc = 0.0
        for t in range(1, s):
            acc += c[3 * t] * c[3 * (s - t)]
        c[3 * s] = acc / ((6 * s + 1) * (s - 1))
        s += 1
    return c


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
