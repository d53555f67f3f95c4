"""Truncated systems, closed-form coefficient chains, structural zeros."""

import dataclasses
from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import errors, fields, lattice, solver


def _oracle_tables(sums, lam, K):
    """The per-entry formulas of the tables and the unweighted system
    matrices d+- (rows/columns 1..K of a (K+1) x (K+1) array)."""

    def fact_quot(num, den1, den2):
        return float(np.exp(lgamma(num + 1) - lgamma(den1 + 1) - lgamma(den2 + 1)))

    T = max(K + 1, sums.s_max)
    r = np.zeros((T, T))
    rho = np.zeros((T, T))
    for j in range(T):
        for k in range(T):
            s = j + k + 1
            if 2 <= s <= sums.s_max:
                r[j, k] = fact_quot(2 * k + 2 * j, 2 * k + 1, 2 * j) * sums.c[s]
                rho[j, k] = fact_quot(2 * k + 2 + 2 * j, 2 * k + 1, 2 * j) * sums.d[s]
    dplus = np.zeros((K + 1, K + 1))
    dminus = np.zeros((K + 1, K + 1))
    mm = np.arange(1, K + 1)
    for j in range(1, K + 1):
        for k in range(1, K + 1):
            base = (1 - 2 * j) * r[j, k - 1] - (1 + 2 * k) * r[j - 1, k] + rho[j - 1, k - 1] / lam**2
            cross = float(np.sum(lam ** (4.0 * mm) * r[j - 1, mm] * r[mm, k - 1]))
            dplus[j, k] = base + cross
            dminus[j, k] = base - cross
    return r, rho, dplus, dminus


class TestValidation:
    def test_hole_radius_bounds(self, spec):
        load = solver.LoadCase(1.0, 0.0, 0.0)
        with pytest.raises(errors.InvalidArgumentError):
            solver.ProblemSpec(spec, 0.6, load, 16)
        with pytest.raises(errors.InvalidArgumentError):
            solver.ProblemSpec(spec, 0.0, load, 16)

    def test_truncation_bounds(self, spec):
        with pytest.raises(errors.InvalidArgumentError):
            solver.ProblemSpec(spec, 0.2, solver.LoadCase(1.0, 0.0, 0.0), 2)

    def test_tables_need_enough_orders(self, sums):
        with pytest.raises(errors.ConfigurationError):
            solver.series_tables(sums, 0.2, sums.s_max)

    def test_mismatched_tables_rejected(self, spec, tables):
        prob = solver.ProblemSpec(spec, 0.1, solver.LoadCase(1.0, 0.0, 0.0), 16)
        with pytest.raises(errors.ConfigurationError):
            solver.solve_coefficients(prob, tables)


class TestTables:
    @pytest.mark.parametrize("lam, K", [(0.2, 16), (0.45, 38), (1e-3, 16)])
    def test_match_per_entry_oracle(self, sums, lam, K):
        t = solver.series_tables(sums, lam, K)
        r, rho, dplus, dminus = _oracle_tables(sums, lam, K)
        assert np.array_equal(t.r, r) and np.array_equal(t.rho, rho)
        s = np.add.outer(np.arange(len(r)), np.arange(len(r))) + 1
        assert np.allclose(t.rhat, lam ** (2.0 * s) * r, rtol=1e-14, atol=0)
        # the solver's matrices carry the weights lam^(2j+2k), j, k = 1..K
        jk = 2.0 * np.add.outer(np.arange(1, K + 1), np.arange(1, K + 1))
        for got, ref in ((t.dplus, dplus), (t.dminus, dminus)):
            want = lam**jk * ref[1:, 1:]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_scale_invariance_at_high_porosity(self):
        # lam = 0.45a needs K = 38; the system depends on lam/a alone, so the
        # dimensionless alpha, beta agree for every a (in physical units,
        # lam^(4K) overflows at a = 246)
        load = solver.LoadCase(2.0, 1.0, 0.3)
        solved = []
        for a in (1.0, 2.46, 246.0):
            spec = lattice.build_lattice(a, 1, 1)
            sums = lattice.compute_lattice_sums(spec, s_max=40, shells=64)
            prob = solver.ProblemSpec(spec, 0.45 * a, load, 38)
            solved.append(solver.solve_coefficients(prob, solver.series_tables(sums, 0.45 * a, 38)))
        ref = solved[0]
        for c in solved:
            assert c.residual <= 1e-12
            assert np.max(np.abs(c.alpha - ref.alpha)) <= 1e-12 * np.max(np.abs(ref.alpha))
            assert np.max(np.abs(c.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))


class TestLoadCase:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_rejected(self, bad, slot):
        args = [2.0, 1.0, 0.3]
        args[slot] = bad
        with pytest.raises(errors.InvalidArgumentError):
            solver.LoadCase(*args)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_plus_minus_decomposition(self, s1, s2):
        load = solver.LoadCase(s1, s2, 0.0)
        assert load.sigma_plus + load.sigma_minus == pytest.approx(s1, abs=1e-12)
        assert load.sigma_plus - load.sigma_minus == pytest.approx(s2, abs=1e-12)


class TestSolution:
    def test_nan_residual_fails_closed(self, spec, tables, monkeypatch):
        monkeypatch.setattr(fields, "boundary_residual", lambda *args, **kwargs: float("nan"))
        prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, 1.0, 0.0), 16)
        with pytest.raises(errors.ConsistencyError):
            solver.solve_coefficients(prob, tables)

    def test_linear_algebra_breakdown_is_numerical_error(self, spec, tables):
        # a NaN system entry makes numpy's SVD fail to converge
        dplus = tables.dplus.copy()
        dplus[1, 2] = np.nan
        broken = dataclasses.replace(tables, dplus=dplus)
        prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, 1.0, 0.0), 16)
        with pytest.raises(errors.NumericalError):
            solver.solve_coefficients(prob, broken)

    def test_boundary_residual_is_rounding_level(self, spec, tables):
        for ang in (0.0, np.pi / 8, np.pi / 4, -0.3):
            load = solver.LoadCase(2.0, 1.0, ang)
            prob = solver.ProblemSpec(spec, 0.2, load, 16)
            coeffs = solver.solve_coefficients(prob, tables)
            assert coeffs.residual < 1e-12

    def test_linearity_in_load(self, spec, tables):
        la = solver.LoadCase(2.0, 1.0, 0.3)
        lb = solver.LoadCase(1.0, -0.5, 0.3)
        lsum = solver.LoadCase(3.0, 0.5, 0.3)
        ca = solver.solve_coefficients(solver.ProblemSpec(spec, 0.2, la, 16), tables)
        cb = solver.solve_coefficients(solver.ProblemSpec(spec, 0.2, lb, 16), tables)
        cs = solver.solve_coefficients(solver.ProblemSpec(spec, 0.2, lsum, 16), tables)
        assert np.allclose(ca.alpha + cb.alpha, cs.alpha, rtol=0, atol=1e-12)
        assert np.allclose(ca.beta + cb.beta, cs.beta, rtol=0, atol=1e-12)
        assert ca.alpha0 + cb.alpha0 == pytest.approx(cs.alpha0, abs=1e-14)

    def test_unit_loads_need_sums(self, spec):
        with pytest.raises(TypeError):
            solver.unit_load_coefficients(spec, 0.2, 16)

    def test_structural_zeros_of_unit_loads(self, unit_sets):
        plus, minus = unit_sets
        assert abs(plus.alpha[0]) < 1e-12
        assert abs(plus.beta0) < 1e-12
        assert abs(minus.alpha0) < 1e-12
        assert abs(minus.beta[0]) < 1e-12

    def test_unit_coefficients_are_real(self, unit_sets):
        plus, minus = unit_sets
        for c in (plus, minus):
            assert np.max(np.abs(np.imag(c.alpha))) < 1e-12
            assert np.max(np.abs(np.imag(c.beta))) < 1e-12

    def test_angle_zero_gives_real_coefficients(self, spec, tables):
        prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, 1.0, 0.0), 16)
        coeffs = solver.solve_coefficients(prob, tables)
        assert np.max(np.abs(np.imag(coeffs.alpha))) < 1e-12

    def test_coefficient_decay(self, solved):
        _, coeffs = solved
        mags = np.abs(coeffs.alpha)
        assert mags[8] < 1e-6 * mags[0]


class TestDiluteLimit:
    def test_coefficients_approach_isolated_hole(self, spec, sums):
        tables = solver.series_tables(sums, 1e-3, 16)
        load = solver.LoadCase(2.0, 1.0, 0.3)
        prob = solver.ProblemSpec(spec, 1e-3, load, 16)
        coeffs = solver.solve_coefficients(prob, tables)
        sp, sm, ang = load.sigma_plus, load.sigma_minus, load.alpha
        assert coeffs.beta[0] == pytest.approx(sp, rel=1e-5)
        assert coeffs.alpha[0] == pytest.approx(-sm * np.exp(2j * ang), rel=1e-5)
        assert abs(coeffs.alpha[1]) < 1e-4 * abs(coeffs.alpha[0])


class TestTruncationStability:
    def test_K_drift(self, spec, sums):
        load = solver.LoadCase(2.0, 1.0, np.pi / 8)
        t16 = solver.series_tables(sums, 0.2, 16)
        t20 = solver.series_tables(sums, 0.2, 20)
        c16 = solver.solve_coefficients(solver.ProblemSpec(spec, 0.2, load, 16), t16)
        c20 = solver.solve_coefficients(solver.ProblemSpec(spec, 0.2, load, 20), t20)
        drift = np.max(np.abs(c16.alpha - c20.alpha[:16]))
        assert drift < 1e-6

    def test_stress_drift(self, spec, sums):
        load = solver.LoadCase(2.0, 1.0, np.pi / 8)
        out = []
        for K in (16, 20):
            t = solver.series_tables(sums, 0.2, K)
            prob = solver.ProblemSpec(spec, 0.2, load, K)
            c = solver.solve_coefficients(prob, t)
            f = fields.total_stress(0.31, 0.7, prob, c, t)
            out.append((f.sigma_r, f.tau_rtheta, f.sigma_theta))
        assert np.max(np.abs(np.array(out[0]) - np.array(out[1]))) < 1e-6
