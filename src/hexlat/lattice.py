"""Hexagonal lattice geometry, chiral angle, and lattice-sum constants.

The period lattice is spanned by omega1 = a*sqrt(3)/2 - i*a/2 and its
conjugate omega2.  a is a length unit: the series constants
c_s = (2s-1) Re sum' w^(-2s) and d_s = Re sum' conj(w) w^(-2s-1), over the
nonzero translates w inside `shells` rings (below), are summed on the
normalized lattice a = 1 (cell units), where the solver uses them, and
only a reader of the physical values (c_s a^(-2s), d_s a^(-2s), delta, g2,
g3) forms them.  Every order is its own sum.

The cyclic constants have a closed form.  The rotation z -> e^(i pi/3) z
maps the lattice onto itself and omega1 onto omega2, so
delta2 = e^(-i pi/3) delta1 and the Natanzon period defects gamma_j
vanish.  Legendre's relation delta1*omega2 - delta2*omega1 = 2 pi i then
fixes delta_j = delta*conj(omega_j) with delta = 2 pi/(sqrt(3) a^2),
pi over the cell area.

Index truncation uses hexagonal rings max(|m|, |n|, |m+n|) <= shells: the
six-fold rotation w -> e^(i pi/3) w, (m, n) -> (-n, m+n), maps them onto
themselves, and its six turns of the sextant S = {m >= 1, n >= 0, m+n <=
shells} tile them once each.  A turn multiplies w^(-2s) by e^(-2 pi i s/3)
and keeps |w|^2 = m^2 + mn + n^2, and conj(w) w^(-2s+1) = |w|^2 w^(-2s), so
    c_s = 6 (2s-1) Re sum_S w^(-2s),   d_(s-1) = 6 Re sum_S |w|^2 w^(-2s)
at s = 0 (mod 3), and every other c_s and d_(s-1) is an exact zero.

`fold_point` reduces a point to the Voronoi cell around the origin: the
nearest lattice point is a vertex of the point's equilateral triangle, which
two comparisons pick (the hexagonal-lattice closest point of Conway &
Sloane, IEEE Trans. Inf. Theory 28:227, 1982).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidArgumentError, PrecisionError

__all__ = [
    "LatticeSpec",
    "LatticeSums",
    "build_lattice",
    "lattice_from_alpha",
    "chiral_angle",
    "fold_point",
    "compute_lattice_sums",
]

# Largest share of c_3 or d_2 (the slowest sums) that the outermost ring may add.
_TAIL_TOL = 1e-4
# Largest ring count accepted: the sums hold the sextant's shells*(shells+1)/2 translates at once
# (at the cap, on a 2-core Xeon: 29-35 ms at s_max = 40, 142-170 ms at 256, peak RSS 42 MB).
_MAX_SHELLS = 512
# Largest sum order accepted: the lambda-free cell tables are s_max x s_max, and the
# factorial quotients of their entries overflow near s_max = 512.
_MAX_ORDER = 256


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of one hexagonal period lattice.

    a is the lattice constant (any length unit), omega1/omega2 the complex
    periods, and alpha the chiral/load angle in radians.
    """

    a: float
    omega1: complex
    omega2: complex
    alpha: float

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidArgumentError(f"lattice constant must be positive, got {self.a}")

    @cached_property
    def cell_frame(self) -> tuple:
        """(omega1, omega2, a, conj(omega2)/a, du, conj(omega1)/a, dv): the
        periods and what `fold_point` divides by to find a point's
        cell coordinates, formed once per lattice.

        One factor of each product is taken in cell units (divided by a):
        in physical units omega1*conj(omega2) ~ a^2 overflows for a >~ 1e154.
        """
        w1, w2, a = self.omega1, self.omega2, self.a
        w1c, w2c = w1.conjugate() / a, w2.conjugate() / a
        return w1, w2, a, w2c, (w1 * w2c).imag, w1c, (w1c * w2).imag


# Corners (dm, dn) of the period parallelogram that holds z, in
# ascending order so that the first minimum breaks distance ties by the
# smallest (m, n).
_CORNER_DM, _CORNER_DN = np.array(((0, 0), (0, 1), (1, 0), (1, 1))).T
# Distances are compared in units of 1e-12 a, rounded half to even, so
# translates within rounding of each other count as tied.
_TIE_UNITS = 1e12
# A scalar fold compares the four corners' rounded distances only when a
# comparison that picks its vertex decides by less than this many a^2 of
# squared distance, or when |m| + |n| exceeds _FAST_RANGE: beyond it the
# rounding of the cell coordinates (about |m| + |n| ulps) nears the margin.
_TIE_MARGIN = 1e-9
_FAST_RANGE = 1 << 20


def _cell_coordinates(z, frame: tuple):
    """Real (u, v) with z = u*omega1 + v*omega2, for a scalar or an array."""
    _, _, _, w2c, du, w1c, dv = frame
    return (z * w2c).imag / du, (w1c * z).imag / dv


def fold_point(z: complex | np.ndarray, spec: LatticeSpec):
    """Reduce z to its Voronoi representative z0 = z - m*omega1 - n*omega2.

    The representative is the translate closest to the origin among the
    four corners of the period parallelogram holding z.  omega1 and
    omega2 are 60 degrees apart with |omega1 - omega2| = a, so that
    parallelogram is two equilateral triangles, split by its short
    diagonal from corner (1, 0) to (0, 1): the nearest lattice point is
    a vertex of z's triangle (at most a/sqrt(3) away), and every other
    lattice point lies at least (sqrt(3)/2)*a from it.  Ties are broken
    deterministically by (|z0|, m, n) ordering, with |z0|/a rounded to
    12 decimals.

    A scalar z runs in plain Python and returns (complex, int, int).  In
    cell coordinates (x, y) the squared distance is a^2 (x^2 + xy + y^2),
    so between the vertices of z's triangle it differs by expressions
    linear in the fractional parts (fu, fv): two comparisons pick the
    vertex.  Within _TIE_MARGIN of a tie, or far from the origin, it is
    folded as a one-element array: an array returns arrays (z0, m, n) of
    its shape, from the four corners' rounded distances, so both paths
    return the same bits.  Both read the lattice's `spec.cell_frame`.
    """
    frame = spec.cell_frame
    w1, w2 = frame[:2]
    # Python numbers are tested first: np.ndim on one costs half a scalar fold
    if isinstance(z, (complex, float, int)) or np.ndim(z) == 0:
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"cannot fold a non-finite point {z}")
        u, v = _cell_coordinates(z, frame)
        m0, n0 = math.floor(u), math.floor(v)
        fu, fv = u - m0, v - n0
        # q(corner) - q(other corner), q = x^2 + xy + y^2 at z's offset from
        # it: (1, 0) is nearer than (0, 1) when fu > fv, and d compares the
        # nearer of the two with the triangle's third vertex, so fu vs fv
        # decides the vertex only when d < 0
        lower = fu + fv < 1.0  # triangle (0, 0), (1, 0), (0, 1), else (1, 1), (1, 0), (0, 1)
        if fu > fv:
            dm, dn, d = 1, 0, (1.0 - 2.0 * fu - fv if lower else fu + 2.0 * fv - 2.0)
        else:
            dm, dn, d = 0, 1, (1.0 - fu - 2.0 * fv if lower else 2.0 * fu + fv - 2.0)
        near_tie = abs(d) < _TIE_MARGIN or (d < 0.0 and abs(fu - fv) < _TIE_MARGIN)
        if near_tie or abs(m0) + abs(n0) > _FAST_RANGE:
            z0, m, n = _fold_corners(np.array(z), frame)
            return complex(z0), int(m), int(n)
        if d >= 0.0:
            dm = dn = 0 if lower else 1
        m, n = m0 + dm, n0 + dn
        return z - m * w1 - n * w2, m, n
    za = np.asarray(z, dtype=complex)
    if not np.isfinite(za).all():
        raise DomainError(f"cannot fold a non-finite point {z}")
    return _fold_corners(za, frame)


def _fold_corners(za: np.ndarray, frame: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (z0, m, n) of za's shape: each point's nearest corner of its period
    parallelogram, by distance rounded to 1e-12 a, the smallest (m, n) among equals."""
    w1, w2, a = frame[:3]
    z = za.reshape(-1, 1)
    u, v = _cell_coordinates(z, frame)
    m = np.floor(u).astype(int) + _CORNER_DM
    n = np.floor(v).astype(int) + _CORNER_DN
    cand = z - m * w1 - n * w2
    pick = np.arange(len(cand)), np.argmin(np.rint(np.abs(cand) / a * _TIE_UNITS), axis=1)
    return tuple(arr[pick].reshape(za.shape) for arr in (cand, m, n))


def chiral_angle(m: int, n: int) -> float:
    """Angle of the chiral vector C_h = (m, n) against the armchair axis."""
    if m == 0 and n == 0:
        raise InvalidArgumentError("zero chiral vector (m, n) = (0, 0)")
    return np.pi / 6 - np.arccos((2 * n + m) / (2 * np.sqrt(n * n + m * m + n * m)))


def _periods(a: float) -> tuple[complex, complex]:
    # Python complex, not numpy scalars: one-point folds do plain arithmetic
    omega1 = complex(a * math.sqrt(3) / 2, -a / 2)
    return omega1, omega1.conjugate()


def build_lattice(a: float, m: int, n: int) -> LatticeSpec:
    """Lattice spec from the lattice constant and chiral indices."""
    return lattice_from_alpha(a, chiral_angle(m, n))


def lattice_from_alpha(a: float, alpha: float) -> LatticeSpec:
    """Lattice spec with the chiral angle supplied directly (for sweeps)."""
    omega1, omega2 = _periods(a)
    return LatticeSpec(a=float(a), omega1=omega1, omega2=omega2, alpha=float(alpha))


# delta and delta_j = delta*conj(omega_j) on the a = 1 lattice (module docstring)
_DELTA = 2.0 * math.pi / math.sqrt(3)
_DELTA_J = tuple(_DELTA * w.conjugate() for w in _periods(1.0))


def _check_scale(a: float, power: int):
    """Raise InvalidArgumentError unless a^(+-power) are finite, normal doubles."""
    try:
        extremes = (a ** float(power), a ** -float(power))
    except OverflowError:
        extremes = (math.inf,)
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in extremes):
        raise InvalidArgumentError(
            f"lattice constant a = {a:g} is out of range: "
            f"a^(+-{power}) is not a finite, normal double"
        )


@dataclass(frozen=True, eq=False)
class LatticeSums:
    """Truncated lattice sums and cyclic constants for one lattice.

    Only the a = 1 sums c_cell[s], d_cell[s] (indexed by the order s,
    entries 0 and 1 unused and zero) and tail are stored.  The physical
    values are formed on read: c and d in units a^(-2s), cached and
    read-only; the invariants g2/g3; and delta_j = 2*zeta(omega_j/2) =
    delta*conj(omega_j).  c and d are refused (InvalidArgumentError) when
    a^(+-2 s_max) is not a finite, normal double, and c, d, g2, g3 when a
    value overflows (g3 = 28 c_3/a^6 does below a = 1.29e-51).  delta,
    delta_j and gamma_j = 0 are exact closed forms (module docstring);
    gamma_j and `method`, the one summation path, are class constants.
    """

    spec: LatticeSpec
    s_max: int
    c_cell: np.ndarray
    d_cell: np.ndarray
    tail: float
    gamma1 = gamma2 = 0j
    method = "direct"

    def _physical(self, name: str, form):
        with np.errstate(over="ignore"):  # refused below, not warned of
            values = form(self.spec.a)
        if not np.isfinite(values).all():
            raise InvalidArgumentError(f"lattice constant a = {self.spec.a:g} is out of range: "
                                       f"{name} is not a finite double")
        return values

    def _scaled(self, name: str, cell: np.ndarray) -> np.ndarray:
        _check_scale(self.spec.a, 2 * self.s_max)
        values = self._physical(name, lambda a: cell * a ** (-2.0 * np.arange(self.s_max + 1)))
        values.flags.writeable = False
        return values

    c = cached_property(lambda self: self._scaled("c", self.c_cell))
    d = cached_property(lambda self: self._scaled("d", self.d_cell))
    delta = property(lambda self: _DELTA / self.spec.a**2)
    delta1 = property(lambda self: _DELTA_J[0] / self.spec.a)
    delta2 = property(lambda self: _DELTA_J[1] / self.spec.a)
    g2 = property(lambda self: self._physical("g2", lambda a: 20.0 * self.c_cell[2] / a**4))
    g3 = property(lambda self: self._physical("g3", lambda a: 28.0 * self.c_cell[3] / a**6))

    @cached_property
    def cell_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The lambda-free, read-only T x T (T = s_max) Laurent tables
        R[j, k] = (2j+2k)!/((2k+1)!(2j)!) c_s, P[j, k] = (2j+2k+2)!/((2k+1)!(2j)!) d_s
        of the a = 1 sums at s = j+k+1, zero outside 2 <= s <= s_max."""
        T = self.s_max
        jk = np.add.outer(np.arange(T), np.arange(T))
        j, k = np.nonzero((jk >= 1) & (jk < T))
        lf = np.array([math.lgamma(n + 1) for n in range(2 * T + 1)])  # log n!
        R, P = np.zeros((T, T)), np.zeros((T, T))
        R[j, k] = np.exp(lf[2 * k + 2 * j] - lf[2 * k + 1] - lf[2 * j]) * self.c_cell[j + k + 1]
        P[j, k] = np.exp(lf[2 * k + 2 + 2 * j] - lf[2 * k + 1] - lf[2 * j]) * self.d_cell[j + k + 1]
        R.flags.writeable = P.flags.writeable = False
        return R, P


def _raw_sums(s_max: int, shells: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(c, d, tail): the module docstring's c_s, d_s at a = 1 (s_max >= 3), over S,
    with p = w^(-2s) stepped by w^-2 per order, and tail the outermost ring's share
    of d_2, the slowest sum (c_3's outermost share is smaller at every ring count)."""
    n, ring = np.triu_indices(shells + 1, 1)
    m = ring - n
    omega1, omega2 = _periods(1.0)
    w = m * omega1 + n * omega2
    norm = m * m + m * n + n * n  # |w|^2, exact
    iw2 = 1.0 / (w * w)
    c, d = np.zeros(s_max + 2), np.zeros(s_max + 2)  # order s_max + 1 is dropped
    p = iw2.copy()
    for s in range(2, s_max + 2):
        p *= iw2
        if s % 3 == 0:
            c[s] = 6 * (2 * s - 1) * np.sum(p).real
            d[s - 1] = 6 * np.sum(norm * p).real
    outer_d2 = 6 * np.sum((norm * iw2**3)[ring == shells]).real
    return c[:-1], d[:-1], abs(outer_d2) / abs(d[2])


def compute_lattice_sums(
    spec: LatticeSpec,
    s_max: int = 40,
    shells: int = 64,
    method: str = "direct",
) -> LatticeSums:
    """Lattice sums c_s, d_s plus all cyclic constants for `spec`.

    Every c_s and d_s is summed over a sextant of `shells` rings of the a = 1
    lattice, whatever spec.a; "direct" is the only method.  delta, delta_j
    and gamma_j take their closed form (module docstring).  No physical
    value is formed here: `LatticeSums` forms them on read.  Raises
    PrecisionError when the outermost ring still adds more than 1e-4 of
    d_2, and InvalidArgumentError for another method, shells outside
    [2, 512], s_max outside [3, 256], or an a whose a^(+-6) is not a
    finite, normal double: the powers of delta, g2 and g3, which bound
    every power of a the solve, the fields and the homogenization form
    (at most a^4).  Only `c` and `d` need a^(+-2 s_max).
    """
    if not 3 <= s_max <= _MAX_ORDER:
        raise InvalidArgumentError(f"s_max must lie in [3, {_MAX_ORDER}], got {s_max}")
    if not 2 <= shells <= _MAX_SHELLS:
        raise InvalidArgumentError(f"shells must lie in [2, {_MAX_SHELLS}], got {shells}")
    if method != "direct":
        raise InvalidArgumentError(f"unknown method {method!r}")
    _check_scale(spec.a, 6)

    c, d, tail = _raw_sums(s_max, shells)
    if tail > _TAIL_TOL:
        raise PrecisionError(
            f"lattice sums not converged at shells={shells}: "
            f"outermost ring still contributes {tail:.3e} (tolerance {_TAIL_TOL:.1e})",
            tail=tail,
        )

    return LatticeSums(spec=spec, s_max=s_max, c_cell=c, d_cell=d, tail=tail)
