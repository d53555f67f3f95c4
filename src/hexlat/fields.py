"""Stress and displacement fields in the perforated cell.

Total fields are the uniform remote state plus the doubly-periodic
corrective potentials.  Every field function evaluates through one
evaluator: it folds the points into the Voronoi cell around the origin
(`fold_point`, the nearest vertex of the point's triangle), evaluates
all five potentials at once as one product of the powers of
zeta = z0/a (cell units) with the solution's collapsed series matrix,
and restores the quasi-periodic increments analytically.  Periodicity
is therefore exact by construction and evaluation is valid everywhere
outside the holes.  The rim arbiter (`rim_spectrum`) reads the rim
defect's Fourier modes straight off the series rows, sampling nothing.

An array of points takes the vectorised path.  A single point, as
`total_stress` and `total_displacement` take, is one call of the point
kernel (`_PointKernel.point`): it stays in plain Python numbers
(`cmath`/`math`, Python complex lattice periods, numpy scalar inputs
converted once) around one matrix-vector product, because numpy's
per-call overhead on a scalar costs more than the arithmetic itself.

What a point costs beyond its fold, one series product and the closing
arithmetic is formed once and kept:
- per (coeffs, tables) pair, a point kernel (`_PointKernel`): the
  periods, 1/a, lam^2, the cyclic constants, alpha0/beta0/alpha1/beta1
  as Python complex, the complex series exponents and the transposed
  series matrix.  One kernel is kept, for the last pair evaluated, until
  a call names another pair; with it the potentials of the last point
  object, so a displacement at a stress sample's own z shares its fold
  and product;
- per lattice, the cell frame of the fold (`LatticeSpec.cell_frame`);
- per load, sigma_+, sigma_- and sigma_- e^(-+2i alpha) (`LoadCase`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .homogenize import _check_nu
from .lattice import fold_point
from .solver import LoadCase, PotentialCoefficients, ProblemSpec, SeriesTables

__all__ = [
    "FieldSample",
    "CellGeometry",
    "cell_boundary_radius",
    "uniform_polar_stress",
    "potentials_eval",
    "displacement_potentials",
    "total_stress",
    "total_displacement",
    "rim_spectrum",
    "boundary_residual",
    "isolated_hole_reference",
]

# The point kernel of the last (coeffs, tables) pair a point was evaluated on.
_kernel = None


def _powers(coeffs: PotentialCoefficients, tables: SeriesTables) -> np.ndarray:
    """tables.powers, the exponents of coeffs' series rows; ConfigurationError on another count."""
    if len(coeffs.series) != len(tables.powers):
        raise ConfigurationError("coefficients were solved on tables of another K or s_max")
    return tables.powers


class _PointKernel:
    """What a one-point evaluation needs of one (coeffs, tables) pair, in
    Python numbers, and that pair's last point (z, fold, result).

    The series exponents are kept complex: numpy would otherwise cast
    the integer row to complex on every power (the same complex loop, so
    the same bits), and the series matrix transposed and C-contiguous,
    so one point is one matrix-vector product.  `_potentials` keeps the
    kernel of the last pair by reference, so the pair it is keyed on (by
    identity) stays alive.
    """

    __slots__ = ("coeffs", "tables", "spec", "hole", "periods", "inv_a", "lam2", "deltas",
                 "alpha0", "beta0", "alpha1", "beta1", "powers", "series", "series_t", "last")

    def __init__(self, coeffs: PotentialCoefficients, tables: SeriesTables):
        self.powers = _powers(coeffs, tables).astype(complex)
        sums = tables.sums
        self.coeffs, self.tables, self.spec = coeffs, tables, sums.spec
        self.hole = tables.lam * (1 - 1e-12)
        self.periods = sums.spec.omega1, sums.spec.omega2
        self.inv_a = 1.0 / sums.spec.a
        self.lam2 = tables.lam**2
        self.deltas = sums.delta1, sums.delta2
        self.alpha0, self.beta0 = coeffs.alpha0, coeffs.beta0
        self.alpha1, self.beta1 = complex(coeffs.alpha[0]), complex(coeffs.beta[0])
        self.series = coeffs.series
        self.series_t = np.ascontiguousarray(coeffs.series.T)
        self.last = (None, None, None)

    def continued(self, z0, m, n, v) -> tuple:
        """(Phi, Phi', Psi, phi, psi) at z0 + m*omega1 + n*omega2 from the
        series columns v at z0: the quasi-periodic increments restored."""
        (w1, w2), (delta1, delta2), alpha0 = self.periods, self.deltas, self.alpha0
        phi, phi_d = v[0], v[2] / z0
        w = m * w1 + n * w2
        wc = w.conjugate()
        dw = (m * delta1 + n * delta2) * self.lam2
        return (
            phi,
            phi_d,
            v[1] - wc * phi_d,
            z0 * v[3] + alpha0 * w - self.alpha1 * dw,
            z0 * v[4] + self.beta0 * w - self.beta1 * dw - wc * (phi - alpha0),
        )

    def point(self, z: complex, fold: bool) -> tuple:
        """(Phi, Phi', Psi, phi, psi) at the Python complex z, as Python
        complex; the last point's result again if z is its z and fold
        matches."""
        last = self.last
        if z is last[0] and fold == last[1]:
            return last[2]
        # the fields module's name, so that a wrapper set on it sees every fold
        z0, m, n = fold_point(z, self.spec) if fold else (z, 0, 0)
        r0 = abs(z0)
        if r0 < self.hole:
            raise DomainError(f"point {z} lies inside a hole (folded |z0| = {r0:.6g})")
        zeta = z0 * self.inv_a  # cell units, as the array path forms them
        v = self.series_t.dot(np.power(zeta * zeta, self.powers)).tolist()
        result = self.continued(z0, m, n, v)
        self.last = (z, fold, result)
        return result


@dataclass(frozen=True)
class FieldSample:
    """Stresses at one point."""

    r: float
    theta: float
    z: complex
    sigma_r: float
    tau_rtheta: float
    sigma_theta: float
    sigma_x: float
    sigma_y: float
    tau_xy: float


def cell_boundary_radius(theta: float, a: float) -> float:
    """Distance from the cell center to the hexagon boundary at angle theta.

    Vertices sit at theta = 0 mod 60 degrees (distance a/sqrt(3)), edge
    midpoints at 30 degrees (distance a/2).
    """
    t = np.mod(theta, np.pi / 3)
    return a / (np.sin(t) + np.sqrt(3) * np.cos(t))


@dataclass(frozen=True)
class CellGeometry:
    """Hexagonal Voronoi cell with a central hole of radius lam."""

    a: float
    lam: float

    def boundary_radius(self, theta: float) -> float:
        return cell_boundary_radius(theta, self.a)

    def contains(self, r: float, theta: float) -> bool:
        return self.lam <= r <= self.boundary_radius(theta)


def uniform_polar_stress(r: float, theta: float, load: LoadCase) -> tuple[float, float]:
    """Polar traction components of the uniform remote state (finite theta)."""
    psi = theta - load.alpha
    sr = load.sigma_plus + load.sigma_minus * math.cos(2 * psi)
    tau = -load.sigma_minus * math.sin(2 * psi)
    return float(sr), float(tau)


def _potentials(
    z: complex | np.ndarray, coeffs: PotentialCoefficients, tables: SeriesTables, fold: bool = True
):
    """(Phi, Phi', Psi, phi, psi) of the corrective problem at the points z.

    Arrays of the shape of z, or, for a scalar z (Python or numpy),
    Python complex from one call of the point kernel (`_PointKernel.point`).
    Folding and the quasi-periodic increments are those that
    `potentials_eval` and `displacement_potentials` state.

    The constants of the (coeffs, tables) pair come from its point
    kernel, kept until a call names another pair.  A scalar z reuses the
    kernel's last result if z is that result's z and fold matches; arrays
    and points inside a hole are never kept.
    """
    global _kernel
    k = _kernel
    if k is None or k.coeffs is not coeffs or k.tables is not tables:
        k = _kernel = _PointKernel(coeffs, tables)
    if isinstance(z, (complex, float, int)) or np.ndim(z) == 0:
        return k.point(complex(z), fold)
    z0, m, n = fold_point(z, k.spec) if fold else (z, 0, 0)
    r0 = abs(z0)
    inside = r0 < k.hole
    if inside.any():
        i = np.flatnonzero(inside)[0]
        raise DomainError(
            f"point {np.ravel(z)[i]} lies inside a hole (folded |z0| = {np.ravel(r0)[i]:.6g})"
        )
    zeta = z0 * k.inv_a  # cell units
    z2 = zeta * zeta
    # the five columns as (shape of z) views (transpose is several times
    # cheaper than np.moveaxis here)
    v = np.power.outer(z2, k.powers) @ k.series
    v = v.transpose(-1, *range(v.ndim - 1))
    return k.continued(z0, m, n, v)


def potentials_eval(
    z: complex | np.ndarray, coeffs: PotentialCoefficients, tables: SeriesTables, fold: bool = True
):
    """(Phi, Phi', Psi) of the corrective problem at any points outside holes.

    With fold=True the points are reduced to the central cell and Psi's
    quasi-periodic increment -conj(w)*Phi' is restored analytically.
    fold=False evaluates the raw series (valid while |z| stays well
    inside the nearest noncentral lattice translate).  z may be a scalar
    or an array.
    """
    return _potentials(z, coeffs, tables, fold)[:3]


def displacement_potentials(
    z: complex | np.ndarray, coeffs: PotentialCoefficients, tables: SeriesTables
):
    """Muskhelishvili displacement potentials (phi, psi) at any points.

    Quasi-periodic continuation: across a translate w = m*omega1 + n*omega2,
    phi gains alpha0*w - alpha1*lam^2*(m*delta1 + n*delta2) and psi gains
    beta0*w - beta1*lam^2*(...) - conj(w)*(Phi(z0) - alpha0).  z may be a
    scalar or an array.
    """
    return _potentials(z, coeffs, tables)[3:]


def _check_theta(theta: float):
    """Raise DomainError unless 2*theta is finite: a point enters the fields by e^(2i theta)."""
    if not math.isfinite(2 * theta):
        raise DomainError(f"polar angle theta = {theta!r}: 2*theta is not a finite double")


def total_stress(
    r: float,
    theta: float,
    prob: ProblemSpec,
    coeffs: PotentialCoefficients,
    tables: SeriesTables,
) -> FieldSample:
    """Total stresses at the polar point (r, theta) of the central cell.

    A non-finite r, a theta whose 2*theta is not finite, or a point
    inside a hole raises DomainError.
    """
    # Python numbers throughout: numpy scalars would make every step a numpy call
    if type(r) is not float:
        r = float(r)
    if type(theta) is not float:
        theta = float(theta)
    _check_theta(theta)  # a non-finite r fails the fold of r e^(i theta)
    e = cmath.exp(1j * theta)
    rot = e * e
    z = r * e
    load = prob.load
    phi, phi_d, psi, _, _ = _potentials(z, coeffs, tables)
    # the total potentials' trace 4 Re Phi and half deviator conj(z) Phi' + Psi,
    # the remote state's Phi being sigma_+/2 and Psi -sigma_- e^(-2i alpha)
    trace = 4 * (phi.real + load.sigma_plus / 2)
    dev = z.conjugate() * phi_d + (psi - load.minus_rotated[0])
    pol = trace / 2 - dev * rot  # sigma_r - i tau_rtheta
    sigma_r = pol.real
    # one __dict__ in place of the frozen __init__'s nine object.__setattr__
    sample = object.__new__(FieldSample)
    object.__setattr__(sample, "__dict__", {
        "r": r, "theta": theta, "z": z,
        "sigma_r": sigma_r, "tau_rtheta": -pol.imag, "sigma_theta": trace - sigma_r,
        "sigma_x": trace / 2 - dev.real, "sigma_y": trace / 2 + dev.real,
        "tau_xy": dev.imag,
    })
    return sample


def total_displacement(
    z: complex,
    prob: ProblemSpec,
    coeffs: PotentialCoefficients,
    tables: SeriesTables,
    nu: float,
) -> tuple[float, float]:
    """2G-scaled total displacements (2G u, 2G v) at the point z.

    The uniform-load part carries e^(2 i alpha) on the conj(z) term so
    that differentiating the displacement reproduces the rotated remote
    state for every load angle.  The bond Poisson ratio nu must lie in (-1, 1).
    """
    _check_nu(nu)
    load = prob.load
    kappa = (3.0 - nu) / (1.0 + nu)
    phi_big, _, _, phi, psi = _potentials(z, coeffs, tables)
    disp = (
        (kappa - 1.0) / 4.0 * (load.sigma1 + load.sigma2) * z
        + load.minus_rotated[1] * z.conjugate()
        + kappa * phi
        - z * phi_big.conjugate()
        - psi.conjugate()
    )
    return float(disp.real), float(disp.imag)


def rim_spectrum(
    prob: ProblemSpec, coeffs: PotentialCoefficients, tables: SeriesTables
) -> np.ndarray:
    """Fourier coefficients D_n, n = -T..T at index n + T, of the rim-traction
    defect D(theta) = sum_n D_n e^(2i n theta) of the assembled solution;
    zero for an exact one, real-linear in the load weights.  With S_p the
    series row of exponent p times (lam/a)^(2p), and conj(t) e^(2i theta) = t
    at t = lam e^(i theta): D_n = S_n(Phi) - S_n(t Phi') + conj(S_-n(Phi))
    - S_(n-1)(Psi) + sigma_+ [n = 0] + sigma_- e^(-2i alpha) [n = 1]."""
    load, p = prob.load, _powers(coeffs, tables)
    T = len(p) - tables.K
    S = np.zeros((2 * T + 1, 3), dtype=complex)  # row n + T: S_n of (Phi, Psi, t Phi')
    S[p + T] = coeffs.series[:, :3] * ((tables.lam / tables.sums.spec.a) ** (2.0 * p))[:, None]
    spectrum = S[:, 0] - S[:, 2] + np.conj(S[::-1, 0])
    spectrum[1:] -= S[:-1, 1]
    spectrum[T : T + 2] += load.sigma_plus, load.minus_rotated[0]
    return spectrum


def boundary_residual(
    prob: ProblemSpec, coeffs: PotentialCoefficients, tables: SeriesTables
) -> float:
    """Bound on the rim-traction defect of the assembled solution over the
    whole rim, sum_n |D_n| of its `rim_spectrum`; NaN if a coefficient is."""
    return float(np.sum(np.abs(rim_spectrum(prob, coeffs, tables))))


def isolated_hole_reference(
    r: float, theta: float, lam: float, load: LoadCase
) -> tuple[float, float, float]:
    """Classical traction-free isolated-hole field (dilute-limit oracle)."""
    if r < lam:
        raise DomainError(f"r = {r} inside the hole of radius {lam}")
    sp, sm = load.sigma_plus, load.sigma_minus
    psi = theta - load.alpha
    q = (lam / r) ** 2
    sigma_r = sp * (1 - q) + sm * (1 - 4 * q + 3 * q * q) * np.cos(2 * psi)
    sigma_t = sp * (1 + q) - sm * (1 + 3 * q * q) * np.cos(2 * psi)
    tau = -sm * (1 + 2 * q - 3 * q * q) * np.sin(2 * psi)
    return float(sigma_r), float(tau), float(sigma_t)
