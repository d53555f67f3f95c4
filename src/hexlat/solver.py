"""Laurent coefficient tables and the truncated linear systems.

The boundary condition on the hole rim is reduced to two real K x K
systems for the real and imaginary parts of the alpha coefficients.
The remaining coefficients follow in closed form: beta_1 from the
sigma_+ balance, beta_{j+1} from the alpha's, and alpha_0/beta_0 from
the cyclic-constant relations.

The systems are assembled from the lam-scaled table
rhat[j, k] = lam^(2s) r[j, k], s = j+k+1.  Its entries depend only on
lam/a, so the system matrices are dimensionless and no power of lam
above lam^(2 s_max) is formed: weighting physical-unit tables by
lam^(2j+2k) and lam^(4m) instead overflows at K ~ 38 when a = 246.

The system matrices do not depend on the load, and every coefficient
is real-linear in the load weights (sigma_+, sigma_- cos 2alpha,
sigma_- sin 2alpha): the three `UNIT_LOADS` are solved once per tables
(`SeriesTables.basis`), and each load weights that basis and is gated.

Sign conventions that the source derivation leaves ambiguous (the
b*delta_j1 coupling in the imaginary system and the index on the
beta_{j+1} relation) are pinned by the boundary-residual arbiter in
`fields`: the assembled solution must cancel the imposed rim traction
to rounding accuracy, and does.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property
from math import isfinite, lgamma

import numpy as np

from .errors import ConfigurationError, ConsistencyError, InvalidArgumentError, NumericalError
from .lattice import LatticeSpec, LatticeSums

__all__ = [
    "UNIT_LOADS",
    "LoadCase",
    "ProblemSpec",
    "SeriesTables",
    "PotentialCoefficients",
    "series_tables",
    "solve_coefficients",
    "gate_residual",
    "unit_load_coefficients",
]

# Largest condition number accepted for the truncated systems.
_COND_LIMIT = 1e12
# Rim-traction residual accepted from a converged solution, relative to load.
_RESIDUAL_TOL = 1e-6
# Equispaced rim points at which the arbiter (`fields.rim_defect`) checks a solution.
_RIM_POINTS = 256


@dataclass(frozen=True)
class LoadCase:
    """Remote principal stresses sigma1 >= along angle alpha, sigma2 across."""

    sigma1: float
    sigma2: float
    alpha: float

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.sigma1, self.sigma2, self.alpha)):
            raise InvalidArgumentError(f"{self} must be finite")

    # sigma_+, sigma_- and sigma_- e^(-+2i alpha) are formed once per load:
    # every field point reads them (cached_property fills the instance
    # __dict__ directly, which a frozen dataclass allows)
    @cached_property
    def sigma_plus(self) -> float:
        return 0.5 * (self.sigma1 + self.sigma2)

    @cached_property
    def sigma_minus(self) -> float:
        return 0.5 * (self.sigma1 - self.sigma2)

    @cached_property
    def minus_rotated(self) -> tuple[complex, complex]:
        """(sigma_- e^(-2i alpha), sigma_- e^(2i alpha)): minus the remote Psi,
        and the conj(z) factor of the remote displacement."""
        sm = self.sigma_minus
        return sm * cmath.exp(-2j * self.alpha), sm * cmath.exp(2j * self.alpha)

    @property
    def weights(self) -> tuple[float, float, float]:
        """(sigma_+, sigma_- cos 2alpha, sigma_- sin 2alpha): the solution,
        its rim defect and every field are real-linear in these three."""
        sm, ang = self.sigma_minus, self.alpha
        return self.sigma_plus, float(sm * np.cos(2 * ang)), float(sm * np.sin(2 * ang))


# Loads whose weights are, to rounding (cos(pi/2) = 6e-17), the unit vectors.
UNIT_LOADS = (LoadCase(1.0, 1.0, 0.0), LoadCase(1.0, -1.0, 0.0), LoadCase(1.0, -1.0, np.pi / 4))


@dataclass(frozen=True)
class ProblemSpec:
    """One perforated-plane problem: lattice, hole radius, load, truncation."""

    spec: LatticeSpec
    lam: float
    load: LoadCase
    K: int = 16

    def __post_init__(self):
        if not 0 < self.lam < self.spec.a / 2:
            raise InvalidArgumentError(
                f"hole radius {self.lam} must lie in (0, a/2) = (0, {self.spec.a / 2})"
            )
        if self.K < 4:
            raise InvalidArgumentError(f"truncation K must be >= 4, got {self.K}")


@dataclass(frozen=True, eq=False)
class SeriesTables:
    """r/rho coefficient tables and the d+- system matrices for one lam.

    r and rho are (T x T) with T = s_max (at least K + 2), rows/columns
    indexed from 0, in physical units (r[j, k] ~ a^-(2j+2k+2)); entries
    beyond the available sum order s = j+k+1 <= s_max are zero.  rhat is
    the dimensionless lam^(2j+2k+2) * r.

    dplus/dminus are the (K x K) weighted matrices lam^(2j+2k) d+-, with
    row/column j-1 for j = 1..K; they are dimensionless.

    powers are the series rows' exponents p of z0^(2p).

    Four load-independent parts are formed on first use and kept for
    the life of the tables, shared by every solution on them:
    - systems: the real and imaginary system matrices and their largest
      condition number (singular tables raise NumericalError on every
      solve, as a raising cached_property stores nothing);
    - basis: the solutions of the three UNIT_LOADS, ungated (residual
      NaN); a load's solution is its weights applied to them;
    - rim_points: the _RIM_POINTS rim angles theta, t = lam e^(i theta)
      and e^(2i theta);
    - rim_powers: (t^2)^p at those points, the rim arbiter's power
      matrix (~0.23 MB at T = 40, K = 16).
    """

    sums: LatticeSums
    lam: float
    K: int
    r: np.ndarray
    rho: np.ndarray
    rhat: np.ndarray
    b: float
    dplus: np.ndarray
    dminus: np.ndarray
    powers: np.ndarray

    @cached_property
    def systems(self) -> tuple[np.ndarray, np.ndarray, float]:
        K, b, rhat = self.K, self.b, self.rhat
        col, row = rhat[:K, 0], rhat[0, :K]  # lam^(2j) r[j-1, 0] and lam^(2k) r[0, k-1]
        # real parts: coupled to beta through the sigma_+ balance
        Mr = np.eye(K) + self.dminus + (2.0 / (b - 1.0)) * np.outer(col, row)
        Mr[0, 0] -= b
        # imaginary parts: decoupled homogeneous-looking system
        Mi = np.eye(K) - self.dplus
        Mi[0, 0] -= b
        try:
            cond = max(float(np.linalg.cond(Mr)), float(np.linalg.cond(Mi)))
        except np.linalg.LinAlgError as exc:  # SVD breakdown (non-finite entries)
            raise NumericalError(f"truncated system cannot be solved: {exc}") from exc
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(
                f"truncated system is numerically singular (cond ~ {cond:.3e})", condition=cond
            )
        Mr.flags.writeable = Mi.flags.writeable = False
        return Mr, Mi, cond

    @cached_property
    def basis(self) -> tuple[PotentialCoefficients, ...]:
        K, b, lam, r = self.K, self.b, self.lam, self.r
        Mr, Mi, cond = self.systems
        col, row = self.rhat[:K, 0], self.rhat[0, :K]
        # the unit loads' right-hand sides as columns
        sp, sm_cos, sm_sin = np.array([load.weights for load in UNIT_LOADS]).T
        rhs_r = -np.outer(col, sp) / (b - 1.0)
        rhs_r[0] -= sm_cos
        rhs_i = np.zeros((K, 3))
        rhs_i[0] = -sm_sin
        try:
            ar = np.linalg.solve(Mr, rhs_r)
            ai = np.linalg.solve(Mi, rhs_i)
        except np.linalg.LinAlgError as exc:  # factorisation breakdown (non-finite entries)
            raise NumericalError(f"truncated system cannot be solved: {exc}") from exc
        alpha = (ar + 1j * ai).T  # row i: UNIT_LOADS[i], as in every array below
        # beta_(j+1) = (2j+1) alpha_j + sum_k lam^(2j+2k) r[j, k-1] conj(alpha_k)
        beta = np.column_stack([
            (-sp - 2.0 * (row @ ar)) / (b - 1.0),
            (2 * np.arange(1, K + 1) + 1) * alpha + np.conj(alpha) @ self.rhat[1 : K + 1, :K].T,
        ])
        alpha0, beta0 = b / 2.0 * beta[:, 0], b * np.conj(alpha[:, 0])

        # Collapse the r/rho tables onto the coefficients.  Each row is one
        # power z^e of the Phi and Psi series; z*Phi' and the antiderivatives
        # over z take the factors e and 1/(e+1).
        e = 2.0 * self.powers
        pw = lam ** (2.0 * np.arange(1, K + 1))
        A, B = alpha * pw, beta[:, :K] * pw
        phi_rows = np.hstack([A @ r[:, :K].T, A])
        psi_rows = np.hstack([B @ r[:, :K].T - A @ self.rho[:, :K].T, B])
        series = np.stack([phi_rows, psi_rows, e * phi_rows, phi_rows / (e + 1), psi_rows / (e + 1)], -1)
        series[:, 0] += np.column_stack([alpha0, beta0, np.zeros(3), alpha0, beta0])
        alpha.flags.writeable = beta.flags.writeable = series.flags.writeable = False
        return tuple(
            PotentialCoefficients(
                alpha=alpha[i], beta=beta[i], alpha0=complex(alpha0[i]), beta0=complex(beta0[i]),
                condition=cond, residual=float("nan"), series=series[i], powers=self.powers,
            )
            for i in range(3)
        )

    @cached_property
    def rim_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta = np.linspace(0.0, 2 * np.pi, _RIM_POINTS, endpoint=False)
        return theta, self.lam * np.exp(1j * theta), np.exp(2j * theta)

    @cached_property
    def rim_powers(self) -> np.ndarray:
        t = self.rim_points[1]
        return np.power.outer(t * t, self.powers)


@dataclass(frozen=True, eq=False)
class PotentialCoefficients:
    """Solved series coefficients: alpha[k-1], beta[k-1] for k = 1..K(+1).

    series is the collapsed series matrix: at a point z0 of the central
    cell, (z0^2)^powers @ series gives (Phi, Psi, z0*Phi', phi/z0,
    psi/z0) of the corrective problem, where phi and psi are the
    term-wise antiderivatives of Phi and Psi (zero integration
    constant).  Its rows carry the powers z0^(2j), j < T (the first also
    carrying alpha0 and beta0), then z0^-(2k+2), k < K.
    """

    alpha: np.ndarray
    beta: np.ndarray
    alpha0: complex
    beta0: complex
    condition: float
    residual: float
    series: np.ndarray
    powers: np.ndarray


def series_tables(sums: LatticeSums, lam: float, K: int) -> SeriesTables:
    """Build the Laurent tables and system matrices for hole radius lam.

    Raises InvalidArgumentError unless 0 < lam < a/2 and lam^(-2K), the
    smallest rim power of the arbiter, is a finite double."""
    a = sums.spec.a
    if not 0 < lam < a / 2:
        raise InvalidArgumentError(f"hole radius {lam} out of range (0, {a / 2})")
    if sums.s_max < K + 2:
        raise ConfigurationError(
            f"lattice sums reach s_max = {sums.s_max}, need at least K+2 = {K + 2}"
        )
    # the positive powers of lam are bounded by the lattice range check
    try:
        lam ** (-2.0 * K)
    except OverflowError:
        raise InvalidArgumentError(
            f"truncation K = {K} is too large for the hole radius lambda = {lam:g}: "
            f"lambda^(-{2 * K}) is not a finite double"
        ) from None
    T = sums.s_max  # at least K + 2 by the check above
    jk = np.add.outer(np.arange(T), np.arange(T))
    j, k = np.nonzero((jk >= 1) & (jk < sums.s_max))  # orders 2 <= s = j+k+1 <= s_max
    s = j + k + 1
    log_fact = np.array([lgamma(n + 1) for n in range(2 * sums.s_max + 1)])
    quot_c = np.exp(log_fact[2 * k + 2 * j] - log_fact[2 * k + 1] - log_fact[2 * j])
    quot_d = np.exp(log_fact[2 * k + 2 + 2 * j] - log_fact[2 * k + 1] - log_fact[2 * j])
    c, d = sums.c[s], sums.d[s]
    lam2s = lam ** (2.0 * s)  # finite: lam < a/2, and a^(2 s_max) passed the range check
    r, rho, rhat, rhohat = (np.zeros((T, T)) for _ in range(4))
    r[j, k] = quot_c * c
    rho[j, k] = quot_d * d
    rhat[j, k] = quot_c * (c * lam2s)
    rhohat[j, k] = quot_d * (d * lam2s)

    b = 2 * np.pi * lam**2 / (np.sqrt(3) * a**2)
    # lam^(2j+2k) d+-[j, k] for j, k = 1..K; the cross sums run over m = 1..K
    jj = np.arange(1, K + 1)
    base = (1 - 2 * jj)[:, None] * rhat[1 : K + 1, :K] - (1 + 2 * jj) * rhat[:K, 1 : K + 1]
    base += rhohat[:K, :K]
    cross = rhat[:K, 1 : K + 1] @ rhat[1 : K + 1, :K]
    return SeriesTables(
        sums=sums, lam=lam, K=K, r=r, rho=rho, rhat=rhat, b=b,
        dplus=base + cross, dminus=base - cross,
        powers=np.concatenate([np.arange(T), -np.arange(1, K + 1)]),
    )


def solve_coefficients(prob: ProblemSpec, tables: SeriesTables) -> PotentialCoefficients:
    """All potential coefficients of one load case: its weights applied to
    the unit-load basis of the tables, then gated on their rim traction
    (ConsistencyError unless within 1e-6 of the load scale; NaN fails)."""
    if tables.K != prob.K or tables.lam != prob.lam:
        raise ConfigurationError("tables were built for a different (lam, K)")
    from . import fields  # deferred: fields depends on this module's types

    units, (w0, w1, w2) = tables.basis, prob.load.weights
    alpha, beta, alpha0, beta0, series = (
        w0 * getattr(units[0], name) + w1 * getattr(units[1], name) + w2 * getattr(units[2], name)
        for name in ("alpha", "beta", "alpha0", "beta0", "series")
    )
    coeffs = PotentialCoefficients(
        alpha=alpha, beta=beta, alpha0=alpha0, beta0=beta0, condition=units[0].condition,
        residual=float("nan"), series=series, powers=tables.powers,
    )
    res = gate_residual(fields.boundary_residual(prob, coeffs, tables), prob.load)
    return replace(coeffs, residual=res)


def gate_residual(res: float, load: LoadCase) -> float:
    """Return the rim residual res of a solution for load, or raise
    ConsistencyError unless it is within 1e-6 of the load scale (NaN fails)."""
    scale = max(abs(load.sigma1), abs(load.sigma2), 1e-300)
    if not res <= _RESIDUAL_TOL * scale:  # fails closed on NaN
        raise ConsistencyError(
            f"rim traction residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e} x load", residual=res
        )
    return res


def unit_load_coefficients(
    spec: LatticeSpec,
    lam: float,
    K: int = 16,
    *,
    sums: LatticeSums,
) -> tuple[PotentialCoefficients, PotentialCoefficients]:
    """Coefficient sets for the two unit loads at load angle 0.

    `plus` solves (sigma_+, sigma_-) = (1, 0) and `minus` (0, 1); these
    are the inputs to homogenization.  The structural zeros
    alpha_1+ = beta_0+ = 0 and alpha_0- = beta_1- = 0 are verified.
    """
    tables = series_tables(sums, lam, K)
    plus, minus = (
        solve_coefficients(ProblemSpec(spec, lam, load, K), tables) for load in UNIT_LOADS[:2]
    )
    scale = 1e-10
    if abs(plus.alpha[0]) > scale or abs(plus.beta0) > scale:
        raise ConsistencyError(
            f"plus unit load violates its structural zeros: "
            f"alpha1 = {plus.alpha[0]:.3e}, beta0 = {plus.beta0:.3e}"
        )
    if abs(minus.alpha0) > scale or abs(minus.beta[0]) > scale:
        raise ConsistencyError(
            f"minus unit load violates its structural zeros: "
            f"alpha0 = {minus.alpha0:.3e}, beta1 = {minus.beta[0]:.3e}"
        )
    return plus, minus
