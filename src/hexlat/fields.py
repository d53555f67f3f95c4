"""Stress and displacement fields in the perforated cell.

Total fields are the uniform remote state plus the doubly-periodic
corrective potentials.  Every field function evaluates through one
evaluator: it folds the points into the Voronoi cell around the origin
(`fold_point`, four-corner search), evaluates all five potentials at
once as one product of a power matrix with the solution's collapsed
series matrix, and restores the quasi-periodic increments analytically.
Periodicity is therefore exact by construction and evaluation is valid
everywhere outside the holes.  The rim arbiter forms the same product
on the tables' rim powers.

An array of points takes the vectorised path.  A single point, as
`total_stress` and `total_displacement` take, stays in plain Python
numbers (`cmath`/`math`, Python complex lattice periods) around that
one series product, because numpy's per-call overhead on a scalar costs
more than the arithmetic itself.  The last point's potentials are kept,
so a point's stress and displacement share one fold and one product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import fold_point
from .errors import DomainError, InvalidArgumentError
from .solver import LoadCase, PotentialCoefficients, ProblemSpec, SeriesTables, _rim_angles

__all__ = [
    "FieldSample",
    "CellGeometry",
    "cell_boundary_radius",
    "uniform_polar_stress",
    "potentials_eval",
    "displacement_potentials",
    "total_stress",
    "total_displacement",
    "rim_defect",
    "boundary_residual",
    "isolated_hole_reference",
]

# The last scalar evaluation (z, fold, coeffs, tables, result), replaced whole.
_last = (None,) * 5


@dataclass(frozen=True)
class FieldSample:
    """Stresses (and optionally 2G-scaled displacements) at one point."""

    r: float
    theta: float
    z: complex
    sigma_r: float
    tau_rtheta: float
    sigma_theta: float
    sigma_x: float
    sigma_y: float
    tau_xy: float
    u2G: float = float("nan")
    v2G: float = float("nan")


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

    Arrays of the shape of z, or Python complex for a scalar z, whose
    arithmetic stays in plain Python around the one series product.
    Folding and the quasi-periodic increments are those that
    `potentials_eval` and `displacement_potentials` state.

    A scalar z reuses the last scalar result if z (sign of zero too), fold,
    coeffs and tables (by identity) match.  That entry pins one coeffs/tables
    pair; arrays and points inside a hole are never kept.
    """
    global _last
    scalar = isinstance(z, (complex, float, int)) or np.ndim(z) == 0
    if scalar:
        z, last = complex(z), _last
        # a zero part's sign can reach the results and == ignores it; repr does not
        if last[:4] == (z, fold, coeffs, tables) and (
                z.real and z.imag or repr(last[0]) == repr(z)):
            return last[4]
    sums = tables.sums
    spec = sums.spec
    z0, m, n = fold_point(z, spec) if fold else (z, 0, 0)
    r0 = abs(z0)
    inside = r0 < tables.lam * (1 - 1e-12)
    if inside if scalar else inside.any():
        i = np.flatnonzero(inside)[0]
        raise DomainError(
            f"point {np.ravel(z)[i]} lies inside a hole (folded |z0| = {np.ravel(r0)[i]:.6g})"
        )
    z2 = z0 * z0
    v = (z2**coeffs.powers if scalar else np.power.outer(z2, coeffs.powers)) @ coeffs.series
    # the five columns: Python complex for a point, (shape of z) views for an
    # array (transpose is several times cheaper than np.moveaxis here)
    v = v.tolist() if scalar else v.transpose(-1, *range(v.ndim - 1))
    phi, phi_d = v[0], v[2] / z0
    w = m * spec.omega1 + n * spec.omega2
    wc = w.conjugate()
    dw = (m * sums.delta1 + n * sums.delta2) * tables.lam**2
    alpha1, beta1 = complex(coeffs.alpha[0]), complex(coeffs.beta[0])
    result = (
        phi,
        phi_d,
        v[1] - wc * phi_d,
        z0 * v[3] + coeffs.alpha0 * w - alpha1 * dw,
        z0 * v[4] + coeffs.beta0 * w - beta1 * dw - wc * (phi - coeffs.alpha0),
    )
    if scalar:
        _last = (z, fold, coeffs, tables, result)
    return result


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


def total_stress(
    r: float,
    theta: float,
    prob: ProblemSpec,
    coeffs: PotentialCoefficients,
    tables: SeriesTables,
) -> FieldSample:
    """Total stresses at the polar point (r, theta) of the central cell.

    A non-finite r or theta, or a point inside a hole, raises DomainError.
    """
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise DomainError(f"polar point (r, theta) = ({r}, {theta}) is not finite")
    rot = cmath.exp(2j * theta)
    z = r * cmath.exp(1j * theta)
    load = prob.load
    phi, phi_d, psi, _, _ = _potentials(z, coeffs, tables)
    srk, tauk = uniform_polar_stress(r, theta, load)
    pol = srk - 1j * tauk + 2 * phi.real - (z.conjugate() * phi_d + psi) * rot
    sigma_r = float(pol.real)
    tau_rt = -float(pol.imag)
    # Cartesian components from the total potentials (corrective + uniform)
    phi_t = phi + load.sigma_plus / 2
    psi_t = psi - load.sigma_minus * cmath.exp(-2j * load.alpha)
    trace = 4 * phi_t.real
    dev = 2 * (z.conjugate() * phi_d + psi_t)
    return FieldSample(
        r=float(r), theta=float(theta), z=complex(z),
        sigma_r=sigma_r, tau_rtheta=tau_rt, sigma_theta=float(trace - sigma_r),
        sigma_x=float((trace - dev.real) / 2), sigma_y=float((trace + dev.real) / 2),
        tau_xy=float(dev.imag / 2),
    )


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
    state for every load angle.
    """
    if not -1.0 < nu < 0.5:
        raise InvalidArgumentError(f"Poisson ratio {nu} outside (-1, 0.5)")
    load = prob.load
    kappa = (3.0 - nu) / (1.0 + nu)
    phi_big, _, _, phi, psi = _potentials(z, coeffs, tables)
    disp = (
        (kappa - 1.0) / 4.0 * (load.sigma1 + load.sigma2) * z
        + load.sigma_minus * cmath.exp(2j * load.alpha) * z.conjugate()
        + kappa * phi
        - z * phi_big.conjugate()
        - psi.conjugate()
    )
    return float(disp.real), float(disp.imag)


def rim_defect(
    prob: ProblemSpec, coeffs: PotentialCoefficients, tables: SeriesTables
) -> np.ndarray:
    """Complex rim-traction defect of the assembled solution at the rim
    points of `tables.rim_powers` (raw series, no fold); zero for an exact
    solution, and real-linear in the load weights like the solution itself."""
    load = prob.load
    theta = _rim_angles()
    t = tables.lam * np.exp(1j * theta)
    phi, psi, zphi_d = (tables.rim_powers @ coeffs.series)[:, :3].T
    phi_d = zphi_d / t
    return (
        phi + np.conj(phi)
        - (np.conj(t) * phi_d + psi) * np.exp(2j * theta)
        + load.sigma_plus
        + load.sigma_minus * np.exp(2j * (theta - load.alpha))
    )


def boundary_residual(
    prob: ProblemSpec, coeffs: PotentialCoefficients, tables: SeriesTables
) -> float:
    """Max rim-traction defect of the assembled solution over the rim grid.

    A non-finite defect anywhere on the grid makes the result NaN.
    """
    return float(np.max(np.abs(rim_defect(prob, coeffs, tables))))


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
