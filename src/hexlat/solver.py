"""Laurent coefficient tables and the truncated linear system.

The boundary condition on the hole rim is reduced to a real K x K system
Mr for the real parts of the alpha coefficients.  The remaining
coefficients follow in closed form: beta_1 from the sigma_+ balance,
beta_{j+1} from the alpha's, and alpha_0/beta_0 from the cyclic-constant
relations.

Everything here is in cell units (lengths over a): the series are in
zeta = z/a and the hole radius enters as mu = lam/a alone.  Each lam is
a diagonal scaling rhat = D R D, D = diag(mu^(2j+1)), of the lattice's
one lambda-free table R (`LatticeSums.cell_tables`), as
mu^(2s) = mu^(2j+1) mu^(2k+1) at order s = j+k+1.

Mr does not depend on the load, and every coefficient is real-linear in
the load weights (sigma_+, sigma_- cos 2alpha, sigma_- sin 2alpha): the
three `UNIT_LOADS` are solved once per tables (`SeriesTables.basis`), and
each load weights that basis and is gated.  The lattice's 60 degree turn
fixes sigma_+ and turns sigma_- by exp(-+2i pi/3).  So Mr splits into the
class k = 0 (mod 3) of alpha_k, which sigma_+ alone loads, and the rest.
And the turn maps the sigma_- cos load onto the sigma_- sin one: the
imaginary parts' system is D Mr D on the rest, D = +1 on k = 1 and -1 on
k = 2 (mod 3), so its b*delta_j1 term is -b too and its alpha is i D
times sigma_- cos's.  The index on the beta_{j+1} relation, which the
source derivation leaves ambiguous, is pinned by the rim spectrum in
`fields`: the assembled solution must cancel the imposed rim-traction
modes -K+1..K to rounding accuracy, and does; with the index flipped
they stay at 2e-3 of the load or more (lam = a/5, K = 16).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import cached_property
from math import isfinite

import numpy as np

from .errors import ConfigurationError, ConsistencyError, InvalidArgumentError, NumericalError
from .lattice import _MAX_ORDER, LatticeSpec, LatticeSums

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

# Largest 2-norm condition number accepted for either class block of Mr.
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
        if not isfinite(2 * float(self.alpha)):  # the load enters through 2*alpha
            raise InvalidArgumentError(f"{self}: 2*alpha is not a finite double")
        if not (isfinite(self.sigma_plus) and isfinite(self.sigma_minus)):
            raise InvalidArgumentError(f"{self}: (sigma1 +- sigma2)/2 is not a finite double")

    # sigma_+, sigma_- and sigma_- e^(-+2i alpha) are formed once per load,
    # as Python numbers whatever the inputs: every field point reads them
    # (cached_property fills the instance __dict__ directly, which a frozen
    # dataclass allows)
    @cached_property
    def sigma_plus(self) -> float:
        return 0.5 * (float(self.sigma1) + float(self.sigma2))

    @cached_property
    def sigma_minus(self) -> float:
        return 0.5 * (float(self.sigma1) - float(self.sigma2))

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


def _check_truncation(K: int):
    """K's one rule: the system reads the lattice sums to order 2K, which the cap bounds."""
    if K < 4:
        raise InvalidArgumentError(f"truncation K must be >= 4, got {K}")
    if 2 * K > _MAX_ORDER:
        raise InvalidArgumentError(f"truncation K must be at most {_MAX_ORDER // 2}, got {K}")


def _check_hole(lam: float, a: float, K: int):
    if not 0 < lam < a / 2:
        raise InvalidArgumentError(f"hole radius {lam} must lie in (0, a/2) = (0, {a / 2})")
    _check_truncation(K)


@dataclass(frozen=True)
class ProblemSpec:
    """One perforated-plane problem: lattice, hole radius, load, truncation."""

    spec: LatticeSpec
    lam: float
    load: LoadCase
    K: int = 16

    def __post_init__(self):
        _check_hole(self.lam, self.spec.a, self.K)


@dataclass(frozen=True, eq=False)
class SeriesTables:
    """Scaled Laurent table and the system matrix for one hole radius.

    rhat is the (K+1)-square corner, indexed from 0, that the system and
    the beta relation read (c_s to s = 2K, d_s to 2K-1): rhat[j, k] =
    mu^(2j+2k+2) R[j, k], mu = lam/a, of the lambda-free `LatticeSums.cell_tables`.

    dminus is the (K x K) weighted matrix mu^(2j+2k) d-, with row/column
    j-1 for j = 1..K; all are dimensionless.

    powers are the series rows' exponents p of zeta^(2p), zeta = z0/a.

    The solutions of the three UNIT_LOADS (basis) are formed on first use
    and kept for the life of the tables, shared by every solution on them:
    ungated (residual NaN), from one solve per class block of the real
    system Mr, k = 0 (mod 3) and the rest, once the larger of the blocks'
    2-norm condition numbers passes (singular tables raise NumericalError
    on every solve, as a raising cached_property stores nothing); every
    off-class alpha_k, beta_k is an exact 0.0, and a load's solution is
    its weights applied to them.
    """

    sums: LatticeSums
    lam: float
    K: int
    rhat: np.ndarray
    b: float
    dminus: np.ndarray
    powers: np.ndarray

    @cached_property
    def basis(self) -> tuple[PotentialCoefficients, ...]:
        K, b, rhat = self.K, self.b, self.rhat
        col, row = rhat[:K, 0], rhat[0, :K]  # mu^(2j) R[j-1, 0] and mu^(2k) R[0, k-1]
        # real parts: coupled to beta through the sigma_+ balance; the classes meet in exact 0s
        Mr = np.eye(K) + self.dminus + (2.0 / (b - 1.0)) * np.outer(col, row)
        Mr[0, 0] -= b
        k = np.arange(1, K + 1)
        plus, rest = k % 3 == 0, k % 3 != 0
        plus_block, rest_block = Mr[np.ix_(plus, plus)], Mr[np.ix_(rest, rest)]
        # sigma_+ solves its class (col lies there) and sigma_- cos the rest (-e_1); sigma_- sin,
        # its turn, is D times it there (module docstring); every other alpha_k stays an exact 0
        alpha = np.zeros((3, K), dtype=complex)  # row i: UNIT_LOADS[i], as in every array below
        try:
            cond = float(np.max([np.linalg.cond(m) for m in (plus_block, rest_block)]))
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise NumericalError(
                    f"truncated system is numerically singular (cond ~ {cond:.3e})", condition=cond
                )
            alpha.real[0, plus] = np.linalg.solve(plus_block, -col[plus] / (b - 1.0))
            alpha.real[1, rest] = np.linalg.solve(rest_block, -np.eye(1, K - K // 3)[0])
        except np.linalg.LinAlgError as exc:  # SVD or factorisation breakdown (non-finite entries)
            raise NumericalError(f"truncated system cannot be solved: {exc}") from exc
        alpha.imag[2, rest] = np.where(k[rest] % 3 == 1, 1.0, -1.0) * alpha.real[1, rest]
        # beta_1 from the sigma_+ balance (weights sp), beta_(j+1) = (2j+1) alpha_j +
        # sum_k mu^(2j+2k) R[j, k-1] conj(alpha_k); off its class each product holds a 0
        sp = np.array([1.0, 0.0, 0.0])
        beta = np.column_stack([
            (-sp - 2.0 * (alpha.real @ row)) / (b - 1.0),
            (2 * k + 1) * alpha + np.conj(alpha) @ rhat[1 : K + 1, :K].T,
        ])
        alpha0, beta0 = b / 2.0 * beta[:, 0], b * np.conj(alpha[:, 0])

        # Collapse the lattice's lambda-free tables onto the coefficients.
        # Each row is one power zeta^e of the Phi and Psi series; z*Phi' and
        # the antiderivatives over z take the factors e and 1/(e+1).
        R, P = self.sums.cell_tables
        e = 2.0 * self.powers
        pw = (self.lam / self.sums.spec.a) ** (2.0 * np.arange(1, K + 1))
        A, B = alpha * pw, beta[:, :K] * pw
        phi_rows = np.hstack([A @ R[:, :K].T, A])
        psi_rows = np.hstack([B @ R[:, :K].T - A @ P[:, :K].T, B])
        series = np.stack(
            [phi_rows, psi_rows, e * phi_rows, phi_rows / (e + 1), psi_rows / (e + 1)], -1
        )
        series[:, 0] += np.column_stack([alpha0, beta0, np.zeros(3), alpha0, beta0])
        alpha.flags.writeable = beta.flags.writeable = series.flags.writeable = False
        return tuple(
            PotentialCoefficients(
                alpha=alpha[i], beta=beta[i], alpha0=complex(alpha0[i]), beta0=complex(beta0[i]),
                condition=cond, residual=float("nan"), series=series[i], powers=self.powers,
            )
            for i in range(3)
        )


@dataclass(frozen=True, eq=False)
class PotentialCoefficients:
    """Solved series coefficients: alpha[k-1], beta[k-1] for k = 1..K(+1).

    series is the collapsed series matrix: at a point z0 of the central
    cell, (zeta^2)^powers @ series with zeta = z0/a gives the dimensionless
    (Phi, Psi, z0*Phi', phi/z0, psi/z0) of the corrective problem, where
    phi and psi are the term-wise antiderivatives of Phi and Psi (zero
    integration constant).  Its rows carry the powers zeta^(2j), j < T
    (the first also carrying alpha0 and beta0), then zeta^-(2k+2), k < K.
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
    """Scale the lattice's tables to hole radius lam; build the system matrix.

    Raises InvalidArgumentError unless 0 < lam < a/2, 4 <= K <= 128 and
    (lam/a)^(-2K), by which the rim arbiter scales the series' most
    singular row, is a finite double; ConfigurationError unless the sums
    reach the order 2K that the system reads."""
    a = sums.spec.a
    _check_hole(lam, a, K)
    if sums.s_max < 2 * K:
        raise ConfigurationError(
            f"lattice sums reach s_max = {sums.s_max}, need at least 2K = {2 * K}"
        )
    mu = lam / a
    try:
        mu ** (-2.0 * K)
    except OverflowError:
        raise InvalidArgumentError(
            f"truncation K = {K} is too large for the hole radius lambda = {lam:g}: "
            f"(lambda/a)^(-{2 * K}) = {mu:g}^(-{2 * K}) is not a finite double"
        ) from None
    D = mu ** (2.0 * np.arange(K + 1) + 1.0)  # s_max >= 2K > K by the check above
    rhat, rhohat = (D[:, None] * table[: K + 1, : K + 1] * D for table in sums.cell_tables)

    b = 2 * np.pi * lam**2 / (np.sqrt(3) * a**2)
    # mu^(2j+2k) d-[j, k] for j, k = 1..K; the cross sum runs over m = 1..K
    jj = np.arange(1, K + 1)
    dminus = (1 - 2 * jj)[:, None] * rhat[1 : K + 1, :K] - (1 + 2 * jj) * rhat[:K, 1 : K + 1]
    dminus += rhohat[:K, :K]
    dminus -= rhat[:K, 1 : K + 1] @ rhat[1 : K + 1, :K]
    return SeriesTables(
        sums=sums, lam=lam, K=K, rhat=rhat, b=b, dminus=dminus,
        powers=np.concatenate([np.arange(sums.s_max), -np.arange(1, K + 1)]),
    )


def solve_coefficients(prob: ProblemSpec, tables: SeriesTables) -> PotentialCoefficients:
    """All potential coefficients of one load case: its weights applied to
    the unit-load basis of the tables, then gated on their rim traction
    (ConsistencyError unless within 1e-6 of the load scale; NaN fails).
    A solution or rim spectrum that overflows a double raises NumericalError."""
    got, want = tables.sums.spec, prob.spec  # by the periods: spec.alpha is a load angle
    if ((tables.K, tables.lam, got.omega1, got.omega2)
            != (prob.K, prob.lam, want.omega1, want.omega2)):
        raise ConfigurationError("tables were built for a different lattice, lam or K")
    from . import fields  # deferred: fields depends on this module's types

    (u0, u1, u2), (w0, w1, w2) = tables.basis, prob.load.weights
    try:
        with np.errstate(over="raise"):
            alpha, beta, alpha0, beta0, series = (
                w0 * getattr(u0, name) + w1 * getattr(u1, name) + w2 * getattr(u2, name)
                for name in ("alpha", "beta", "alpha0", "beta0", "series")
            )
            if not (cmath.isfinite(alpha0) and cmath.isfinite(beta0)):  # Python complex: no raise
                raise FloatingPointError
            coeffs = PotentialCoefficients(
                alpha=alpha, beta=beta, alpha0=alpha0, beta0=beta0, condition=u0.condition,
                residual=float("nan"), series=series, powers=tables.powers,
            )
            res = fields.boundary_residual(prob, coeffs, tables)
    except FloatingPointError:
        raise NumericalError(f"the solution for {prob.load} overflows a double") from None
    return replace(coeffs, residual=gate_residual(res, prob.load))


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

    `plus` solves (sigma_+, sigma_-) = (1, 0) and `minus` (0, 1), the inputs to
    homogenization.  Their structural zeros alpha_1+, beta_1-, beta_0+ and alpha_0-
    lie off their load's class, so they hold by construction (`SeriesTables.basis`).
    Raises ConfigurationError for sums of another lattice than spec.
    """
    tables = series_tables(sums, lam, K)
    return tuple(solve_coefficients(ProblemSpec(spec, lam, load, K), tables)
                 for load in UNIT_LOADS[:2])
