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

Sign conventions that the source derivation leaves ambiguous (the
b*delta_j1 coupling in the imaginary system and the index on the
beta_{j+1} relation) are pinned by the boundary-residual arbiter in
`fields`: the assembled solution must cancel the imposed rim traction
to rounding accuracy, and does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, lgamma

import numpy as np

from .errors import ConfigurationError, ConsistencyError, InvalidArgumentError, NumericalError
from .lattice import LatticeSpec, LatticeSums

__all__ = [
    "LoadCase",
    "ProblemSpec",
    "SeriesTables",
    "PotentialCoefficients",
    "series_tables",
    "solve_coefficients",
    "unit_load_coefficients",
]

# Largest condition number accepted for the truncated systems.
_COND_LIMIT = 1e12
# Rim-traction residual accepted from a converged solution, relative to load.
_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class LoadCase:
    """Remote principal stresses sigma1 >= along angle alpha, sigma2 across."""

    sigma1: float
    sigma2: float
    alpha: float

    def __post_init__(self):
        if not all(isfinite(v) for v in (self.sigma1, self.sigma2, self.alpha)):
            raise InvalidArgumentError(f"{self} must be finite")

    @property
    def sigma_plus(self) -> float:
        return 0.5 * (self.sigma1 + self.sigma2)

    @property
    def sigma_minus(self) -> float:
        return 0.5 * (self.sigma1 - self.sigma2)


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

    r and rho are (T x T) with T = max(K+1, s_max), rows/columns
    indexed from 0, in physical units (r[j, k] ~ a^-(2j+2k+2)); entries
    beyond the available sum order s = j+k+1 <= s_max are zero.  rhat is
    the dimensionless lam^(2j+2k+2) * r.

    dplus/dminus are the (K x K) weighted matrices lam^(2j+2k) d+-, with
    row/column j-1 for j = 1..K; they are dimensionless.  inner_tail is
    the largest last term (m = K) of their cross sums over m, in the same
    dimensionless units: a bound on the size of the truncated couplings.
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
    inner_tail: float


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
    """Build the Laurent tables and system matrices for hole radius lam."""
    a = sums.spec.a
    if not 0 < lam < a / 2:
        raise InvalidArgumentError(f"hole radius {lam} out of range (0, {a / 2})")
    if sums.s_max < K + 2:
        raise ConfigurationError(
            f"lattice sums reach s_max = {sums.s_max}, need at least K+2 = {K + 2}"
        )
    T = max(K + 1, sums.s_max)
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
    inner_tail = float(np.max(np.abs(rhat[:K, K])) * np.max(np.abs(rhat[K, :K])))
    return SeriesTables(
        sums=sums, lam=lam, K=K, r=r, rho=rho, rhat=rhat, b=b,
        dplus=base + cross, dminus=base - cross, inner_tail=inner_tail,
    )


def _assemble_and_solve(tables: SeriesTables, load: LoadCase) -> tuple[np.ndarray, float, float]:
    """Solve the two real systems; returns (alpha_1..K complex, beta1, cond)."""
    K, b, rhat = tables.K, tables.b, tables.rhat
    sp, sm, ang = load.sigma_plus, load.sigma_minus, load.alpha
    col, row = rhat[:K, 0], rhat[0, :K]  # lam^(2j) r[j-1, 0] and lam^(2k) r[0, k-1]

    # real parts: coupled to beta through the sigma_+ balance
    Mr = np.eye(K) + tables.dminus + (2.0 / (b - 1.0)) * np.outer(col, row)
    Mr[0, 0] -= b
    rhs_r = -sp * col / (b - 1.0)
    rhs_r[0] -= sm * np.cos(2 * ang)

    # imaginary parts: decoupled homogeneous-looking system
    Mi = np.eye(K) - tables.dplus
    Mi[0, 0] -= b
    rhs_i = np.zeros(K)
    rhs_i[0] = -sm * np.sin(2 * ang)

    try:
        cond = max(float(np.linalg.cond(Mr)), float(np.linalg.cond(Mi)))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(
                f"truncated system is numerically singular (cond ~ {cond:.3e})", condition=cond
            )
        ar = np.linalg.solve(Mr, rhs_r)
        ai = np.linalg.solve(Mi, rhs_i)
    except np.linalg.LinAlgError as exc:  # SVD or factorisation breakdown (non-finite entries)
        raise NumericalError(f"truncated system cannot be solved: {exc}") from exc
    beta1 = (-sp - 2.0 * float(row @ ar)) / (b - 1.0)
    return ar + 1j * ai, beta1, cond


def solve_coefficients(
    prob: ProblemSpec, tables: SeriesTables, check_residual: bool = True
) -> PotentialCoefficients:
    """Solve for all potential coefficients of one load case.

    With check_residual (default) the rim traction of the assembled
    solution is evaluated and a ConsistencyError raised unless it is
    within 1e-6 of the load scale (a NaN residual fails).
    """
    if tables.K != prob.K or tables.lam != prob.lam:
        raise ConfigurationError("tables were built for a different (lam, K)")
    K, lam, b, r = prob.K, prob.lam, tables.b, tables.r
    alpha, beta1, cond = _assemble_and_solve(tables, prob.load)

    # beta_(j+1) = (2j+1) alpha_j + sum_k lam^(2j+2k) r[j, k-1] conj(alpha_k)
    beta = np.empty(K + 1, dtype=complex)
    beta[0] = beta1
    beta[1:] = (2 * np.arange(1, K + 1) + 1) * alpha + tables.rhat[1 : K + 1, :K] @ np.conj(alpha)
    alpha0 = complex(b / 2.0 * beta1)
    beta0 = complex(b * np.conj(alpha[0]))

    # Collapse the r/rho tables onto the coefficients.  Each row is one
    # power z^e of the Phi and Psi series; z*Phi' and the antiderivatives
    # over z take the factors e and 1/(e+1).
    powers = np.concatenate([np.arange(r.shape[0]), -np.arange(1, K + 1)])
    e = 2.0 * powers
    pw = lam ** (2.0 * np.arange(1, K + 1))
    A, B = alpha * pw, beta[:K] * pw
    phi_rows = np.concatenate([r[:, :K] @ A, A])
    psi_rows = np.concatenate([r[:, :K] @ B - tables.rho[:, :K] @ A, B])
    series = np.column_stack([phi_rows, psi_rows, e * phi_rows, phi_rows / (e + 1), psi_rows / (e + 1)])
    series[0] += [alpha0, beta0, 0.0, alpha0, beta0]
    coeffs = PotentialCoefficients(
        alpha=alpha, beta=beta, alpha0=alpha0, beta0=beta0,
        condition=cond, residual=float("nan"), series=series, powers=powers,
    )
    if check_residual:
        from . import fields  # deferred: fields depends on this module's types

        scale = max(abs(prob.load.sigma1), abs(prob.load.sigma2), 1e-300)
        res = fields.boundary_residual(prob, coeffs, tables)
        if not res <= _RESIDUAL_TOL * scale:  # fails closed on NaN
            raise ConsistencyError(
                f"rim traction residual {res:.3e} exceeds {_RESIDUAL_TOL:.0e} x load",
                residual=res,
            )
        coeffs = replace(coeffs, residual=res)
    return coeffs


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
    plus_load = LoadCase(sigma1=1.0, sigma2=1.0, alpha=0.0)  # sigma_+ = 1, sigma_- = 0
    minus_load = LoadCase(sigma1=1.0, sigma2=-1.0, alpha=0.0)  # sigma_+ = 0, sigma_- = 1
    plus = solve_coefficients(ProblemSpec(spec, lam, plus_load, K), tables)
    minus = solve_coefficients(ProblemSpec(spec, lam, minus_load, K), tables)
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
