"""Laurent coefficient tables and the truncated linear systems.

The boundary condition on the hole rim is reduced to two real K x K
systems for the real and imaginary parts of the alpha coefficients.
The remaining coefficients follow in closed form: beta_1 from the
sigma_+ balance, beta_{j+1} from the alpha's, and alpha_0/beta_0 from
the cyclic-constant relations.

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
from .lattice import LatticeSpec, LatticeSums, compute_lattice_sums

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

    r and rho are (T x T) with T = K+1 rows/columns indexed from 0;
    entries beyond the available sum order are zero (their couplings
    carry lambda^(2j+2k) weights and are negligible).  dplus/dminus are
    (K+1 x K+1) with rows/columns 1..K meaningful.
    """

    sums: LatticeSums
    lam: float
    K: int
    r: np.ndarray
    rho: np.ndarray
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


def _fact_quot(num: int, den1: int, den2: int) -> float:
    """num! / (den1! den2!) in floating point via log-gamma."""
    return float(np.exp(lgamma(num + 1) - lgamma(den1 + 1) - lgamma(den2 + 1)))


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
    r = np.zeros((T, T))
    rho = np.zeros((T, T))
    for j in range(T):
        for k in range(T):
            s = j + k + 1
            if 2 <= s <= sums.s_max:
                r[j, k] = _fact_quot(2 * k + 2 * j, 2 * k + 1, 2 * j) * sums.c[s]
                rho[j, k] = _fact_quot(2 * k + 2 + 2 * j, 2 * k + 1, 2 * j) * sums.d[s]

    b = 2 * np.pi * lam**2 / (np.sqrt(3) * a**2)
    lam2 = lam * lam
    dplus = np.zeros((K + 1, K + 1))
    dminus = np.zeros((K + 1, K + 1))
    mm = np.arange(1, K + 1)
    wts = lam ** (4.0 * mm)
    inner_tail = 0.0
    for j in range(1, K + 1):
        for k in range(1, K + 1):
            base = (1 - 2 * j) * r[j, k - 1] - (1 + 2 * k) * r[j - 1, k] + rho[j - 1, k - 1] / lam2
            inner = wts * r[j - 1, mm] * r[mm, k - 1]
            cross = float(np.sum(inner))
            if inner.size:
                inner_tail = max(inner_tail, abs(inner[-1]))
            dplus[j, k] = base + cross
            dminus[j, k] = base - cross
    return SeriesTables(
        sums=sums, lam=lam, K=K, r=r, rho=rho, b=b,
        dplus=dplus, dminus=dminus, inner_tail=inner_tail,
    )


def _assemble_and_solve(tables: SeriesTables, load: LoadCase) -> tuple[np.ndarray, float, float]:
    """Solve the two real systems; returns (alpha_1..K complex, beta1, cond)."""
    K, lam, b, r = tables.K, tables.lam, tables.b, tables.r
    sp, sm, ang = load.sigma_plus, load.sigma_minus, load.alpha

    j_idx = np.arange(1, K + 1)
    pw = lam ** (2.0 * j_idx)  # lam^(2j)
    wjk = np.outer(pw, pw)  # lam^(2j+2k)

    # real parts: coupled to beta through the sigma_+ balance
    Mr = np.eye(K) + wjk * (
        tables.dminus[1:, 1:] + (2.0 / (b - 1.0)) * np.outer(r[: K, 0], r[0, :K])
    )
    Mr[0, 0] -= b
    rhs_r = -sp * pw * r[: K, 0] / (b - 1.0)
    rhs_r[0] -= sm * np.cos(2 * ang)

    # imaginary parts: decoupled homogeneous-looking system
    Mi = np.eye(K) - wjk * tables.dplus[1:, 1:]
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
    beta1 = (-sp - 2.0 * float(np.sum(pw * r[0, :K] * ar))) / (b - 1.0)
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

    k_idx = np.arange(1, K + 1)
    pw = lam ** (2.0 * k_idx)
    beta = np.zeros(K + 1, dtype=complex)
    beta[0] = beta1
    for j in range(1, K + 1):
        beta[j] = (2 * j + 1) * alpha[j - 1] + lam ** (2.0 * j) * np.sum(
            pw * r[j, :K] * np.conj(alpha)
        )
    alpha0 = complex(b / 2.0 * beta1)
    beta0 = complex(b * np.conj(alpha[0]))

    # Collapse the r/rho tables onto the coefficients.  Each row is one
    # power z^e of the Phi and Psi series; z*Phi' and the antiderivatives
    # over z take the factors e and 1/(e+1).
    powers = np.concatenate([np.arange(r.shape[0]), -np.arange(1, K + 1)])
    e = 2.0 * powers
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
    sums: LatticeSums | None = None,
    shells: int = 64,
) -> tuple[PotentialCoefficients, PotentialCoefficients]:
    """Coefficient sets for the two unit loads at load angle 0.

    `plus` solves (sigma_+, sigma_-) = (1, 0) and `minus` (0, 1); these
    are the inputs to homogenization.  The structural zeros
    alpha_1+ = beta_0+ = 0 and alpha_0- = beta_1- = 0 are verified.
    """
    if sums is None:
        sums = compute_lattice_sums(spec, s_max=max(40, 2 * K + 2), shells=shells)
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
