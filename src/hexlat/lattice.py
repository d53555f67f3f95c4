"""Hexagonal lattice geometry, chiral angle, and lattice-sum constants.

The period lattice is spanned by omega1 = a*sqrt(3)/2 - i*a/2 and its
conjugate omega2.  All series constants (c_s, d_s, the cyclic constants
delta_j and the derived real constant delta) are computed on the
normalized lattice a = 1 and rescaled, which keeps the pm^(-2s)
coefficients inside double-precision range.

Index truncation uses hexagonal rings max(|m|, |n|, |m+n|) <= shells.
This region is invariant under the lattice's six-fold rotation
(m, n) -> (-n, m+n), so the symmetry-forbidden coefficients vanish to
machine precision instead of carrying an O(shells^-2) symmetry-breaking
remainder, as a square index window would.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PrecisionError

__all__ = [
    "LatticeSpec",
    "LatticeSums",
    "build_lattice",
    "lattice_from_alpha",
    "chiral_angle",
    "hex_ring_indices",
    "lattice_translates",
    "compute_lattice_sums",
]

# Relative size below which an outer ring's contribution counts as converged.
_RING_EPS = 1e-16
# Largest ring count accepted: the sums build (2*shells+1)^2 index grids up
# to 2*shells rings (about 2 s and 360 MB at the cap).
_MAX_SHELLS = 512


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of one hexagonal period lattice.

    a is the lattice constant (pm), omega1/omega2 the complex periods,
    (m, n) the chiral indices (0, 0 when alpha was given directly), and
    alpha the chiral/load angle in radians.
    """

    a: float
    omega1: complex
    omega2: complex
    m: int
    n: int
    alpha: float

    def __post_init__(self):
        if not self.a > 0:
            raise InvalidArgumentError(f"lattice constant must be positive, got {self.a}")


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
    alpha = chiral_angle(m, n)
    omega1, omega2 = _periods(a)
    return LatticeSpec(a=float(a), omega1=omega1, omega2=omega2, m=int(m), n=int(n), alpha=float(alpha))


def lattice_from_alpha(a: float, alpha: float) -> LatticeSpec:
    """Lattice spec with the chiral angle supplied directly (for sweeps)."""
    omega1, omega2 = _periods(a)
    return LatticeSpec(a=float(a), omega1=omega1, omega2=omega2, m=0, n=0, alpha=float(alpha))


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


@dataclass(frozen=True, eq=False)
class LatticeSums:
    """Truncated lattice sums and cyclic constants for one lattice.

    c[s] and d[s] are indexed directly by the order s (entries 0 and 1
    are unused and zero); units are a^(-2s).  delta1/delta2 are the
    zeta-function cyclic constants, delta = Re(conj(delta1)/omega1),
    gamma1/gamma2 the Natanzon period defects (zero for this symmetry),
    and g2/g3 the Weierstrass invariants.
    """

    spec: LatticeSpec
    s_max: int
    c: np.ndarray
    d: np.ndarray
    delta1: complex
    delta2: complex
    delta: float
    gamma1: complex
    gamma2: complex
    g2: float
    g3: float
    sum_radius: int
    tail: float
    method: str


def _raw_sums(s_max: int, shells: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Ring-by-ring sums on the a = 1 lattice with a convergence monitor.

    Returns (c, d, tail) where tail is the relative contribution of the
    outermost summed ring to the slowest entries (c_3 and d_2).
    """
    omega1, omega2 = _periods(1.0)
    m, n, ring = hex_ring_indices(shells)
    w = m * omega1 + n * omega2

    c = np.zeros(s_max + 1)
    d = np.zeros(s_max + 1)
    last = np.zeros((2, s_max + 1))  # outermost ring contributions
    order = np.argsort(ring, kind="stable")
    w = w[order]
    ring = ring[order]
    starts = np.searchsorted(ring, np.arange(1, shells + 1))
    bounds = np.append(starts, len(w))
    active = np.ones(s_max + 1, dtype=bool)
    for k in range(shells):
        wr = w[bounds[k]:bounds[k + 1]]
        iw2 = 1.0 / (wr * wr)
        p = iw2.copy()
        for s in range(2, s_max + 1):
            p = p * iw2
            if not active[s]:
                continue
            dc = (2 * s - 1) * np.real(np.sum(p))
            dd = np.real(np.sum(np.conj(wr) * p / wr))
            c[s] += dc
            d[s] += dd
            last[0, s] = dc
            last[1, s] = dd
            scale = max(abs(c[s]), abs(d[s]), 1e-300)
            if max(abs(dc), abs(dd)) < _RING_EPS * scale and s > 3:
                active[s] = False
    tail = 0.0
    if s_max >= 3 and c[3] != 0.0:
        tail = abs(last[0, 3]) / abs(c[3])
    if s_max >= 2 and d[2] != 0.0:
        tail = max(tail, abs(last[1, 2]) / abs(d[2]))
    return c, d, tail


def _zeta_direct_unit(z: complex, w: np.ndarray) -> complex:
    return 1.0 / z + np.sum(1.0 / (z - w) + 1.0 / w + z / w**2)


def _wp_direct_unit(z: complex, w: np.ndarray) -> complex:
    return 1.0 / z**2 + np.sum(1.0 / (z - w) ** 2 - 1.0 / w**2)


def _natanzon_direct_unit(z: complex, w: np.ndarray) -> complex:
    wb = np.conj(w)
    return np.sum(wb * (1.0 / (z - w) ** 2 - 2.0 * z / w**3 - 1.0 / w**2))


def _cyclic_constants(shells: int) -> tuple[complex, complex, complex, complex]:
    """delta_j = 2*zeta(omega_j/2) and the Natanzon period defects gamma_j.

    Direct sums for these converge only like shells^-2, so they are
    computed at several ring counts and extrapolated in inverse powers
    of the ring count (Richardson), which brings the Legendre residual
    below 1e-10 and the gamma defects to the 1e-8 noise floor.
    """
    omega1, omega2 = _periods(1.0)
    z0 = 0.137 + 0.289j  # generic probe point, away from lattice sites
    levels = sorted({max(4, shells // 4), max(4, shells // 2), shells, 2 * shells})
    rows = []
    for nn in levels:
        m, n, _ = hex_ring_indices(nn)
        w = m * omega1 + n * omega2
        d1 = 2.0 * _zeta_direct_unit(omega1 / 2, w)
        d2 = 2.0 * _zeta_direct_unit(omega2 / 2, w)
        nz = _natanzon_direct_unit(z0, w)
        g1 = _natanzon_direct_unit(z0 + omega1, w) - nz - np.conj(omega1) * _wp_direct_unit(z0, w)
        g2 = _natanzon_direct_unit(z0 + omega2, w) - nz - np.conj(omega2) * _wp_direct_unit(z0, w)
        rows.append([d1, d2, g1, g2])
    powers = [0.0, -2.0, -3.0, -4.0][: len(levels)]
    van = np.array([[float(nn) ** p for p in powers] for nn in levels])
    coef = np.linalg.solve(van, np.array(rows))
    return tuple(complex(v) for v in coef[0])


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


def compute_lattice_sums(
    spec: LatticeSpec,
    s_max: int = 40,
    shells: int = 64,
    method: str = "hybrid",
    tail_tol: float = 1e-4,
) -> LatticeSums:
    """Lattice sums c_s, d_s plus all cyclic constants for `spec`.

    method "hybrid" (default) takes c_s for s >= 6 from the recursion
    seeded by the direct c_3 (exact, cancellation-free); "direct" sums
    everything term by term and serves as the oracle.  Raises
    PrecisionError when the outermost ring still contributes more than
    tail_tol of the slowest sums, and InvalidArgumentError when shells
    lies outside [2, 512] or the rescaling to spec.a cannot be
    represented (a^(+-2 s_max) not a finite, normal double).
    """
    if s_max < 3:
        raise InvalidArgumentError(f"s_max must be >= 3, got {s_max}")
    if not 2 <= shells <= _MAX_SHELLS:
        raise InvalidArgumentError(f"shells must lie in [2, {_MAX_SHELLS}], got {shells}")
    if method not in ("hybrid", "direct"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    a = spec.a
    try:
        extremes = (a ** (2.0 * s_max), a ** (-2.0 * s_max))
    except OverflowError:
        extremes = (math.inf,)
    if not all(sys.float_info.min <= v <= sys.float_info.max for v in extremes):
        raise InvalidArgumentError(
            f"lattice constant a = {a:g} is out of range for s_max = {s_max}: "
            f"a^(+-{2 * s_max}) is not a finite, normal double"
        )

    c, d, tail = _raw_sums(s_max, shells)
    if tail > tail_tol:
        raise PrecisionError(
            f"lattice sums not converged at shells={shells}: "
            f"outermost ring still contributes {tail:.3e} (tolerance {tail_tol:.1e})",
            tail=tail,
        )
    g2 = 20.0 * c[2]
    g3 = 28.0 * c[3]
    if method == "hybrid":
        crec = recursion_c(c[3], s_max)
        for s in range(6, s_max + 1, 3):
            c[s] = crec[s]

    delta1, delta2, gamma1, gamma2 = _cyclic_constants(shells)
    delta = float(np.real(np.conj(delta1) / _periods(1.0)[0]))

    # rescale from the a = 1 lattice to the physical one
    s_idx = np.arange(s_max + 1)
    scale = a ** (-2.0 * s_idx)
    return LatticeSums(
        spec=spec,
        s_max=s_max,
        c=c * scale,
        d=d * scale,
        delta1=delta1 / a,
        delta2=delta2 / a,
        delta=delta / a**2,
        gamma1=gamma1 / a,
        gamma2=gamma2 / a,
        g2=g2 / a**4,
        g3=g3 / a**6,
        sum_radius=shells,
        tail=tail,
        method=method,
    )
