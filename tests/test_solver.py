"""Truncated systems, closed-form coefficient chains, structural zeros."""

import dataclasses
import warnings
from math import lgamma
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import errors, fields, lattice, solver


def _oracle_quotients(c, d, T):
    """The per-entry formulas of the Laurent tables on the sums c, d:
    (2j+2k)!/((2k+1)!(2j)!) c_s and (2j+2k+2)!/((2k+1)!(2j)!) d_s at
    s = j+k+1, for 2 <= s <= len(c) - 1, in a T x T array."""

    def fact_quot(num, den1, den2):
        return float(np.exp(lgamma(num + 1) - lgamma(den1 + 1) - lgamma(den2 + 1)))

    r = np.zeros((T, T))
    rho = np.zeros((T, T))
    for j in range(T):
        for k in range(T):
            s = j + k + 1
            if 2 <= s < len(c):
                r[j, k] = fact_quot(2 * k + 2 * j, 2 * k + 1, 2 * j) * c[s]
                rho[j, k] = fact_quot(2 * k + 2 + 2 * j, 2 * k + 1, 2 * j) * d[s]
    return r, rho


def _oracle_tables(sums, lam, K):
    """The per-entry formulas of the physical-unit tables and the
    unweighted system matrices d+- (rows/columns 1..K of a (K+1) x (K+1)
    array)."""
    r, rho = _oracle_quotients(sums.c, sums.d, max(K + 1, sums.s_max))
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


def _oracle_systems(tables):
    """The full real and imaginary K x K systems, from the per-entry
    formulas of the cell-unit tables weighted by mu^(2j+2k), mu = lam/a:
    Mr = I + d- + 2/(b-1) col row^T and Mi = I - d+, each less b at [0, 0]."""
    K, b, sums = tables.K, tables.b, tables.sums
    mu = tables.lam / sums.spec.a
    cell = SimpleNamespace(c=sums.c_cell, d=sums.d_cell, s_max=sums.s_max)
    _, _, dplus, dminus = _oracle_tables(cell, mu, K)
    w = mu ** (2.0 * np.add.outer(np.arange(1, K + 1), np.arange(1, K + 1)))
    col, row = tables.rhat[:K, 0], tables.rhat[0, :K]
    Mr = np.eye(K) + w * dminus[1:, 1:] + (2.0 / (b - 1.0)) * np.outer(col, row)
    Mi = np.eye(K) - w * dplus[1:, 1:]
    Mr[0, 0] -= b
    Mi[0, 0] -= b
    return Mr, Mi


def _per_load_oracle(prob, tables):
    """One load solved on its own, independent of the unit-load basis and
    of the class blocks that `SeriesTables.basis` solves: the full real
    and imaginary systems (`_oracle_systems`) with this load's right-hand
    sides, the closed-form beta/alpha0/beta0 chains and the collapse of
    the lattice's lambda-free tables R, P onto the coefficients with the
    weights mu^(2k), mu = lam/a.
    Not gated: the residual is NaN.  The condition is the larger of those
    of Mr's two class blocks, k = 0 (mod 3) and the rest."""
    K, b = prob.K, tables.b
    R, P = tables.sums.cell_tables
    Mr, Mi = _oracle_systems(tables)
    sp, sm_cos, sm_sin = prob.load.weights
    col, row = tables.rhat[:K, 0], tables.rhat[0, :K]
    rhs_r = -sp * col / (b - 1.0)
    rhs_r[0] -= sm_cos
    rhs_i = np.zeros(K)
    rhs_i[0] = -sm_sin
    ar = np.linalg.solve(Mr, rhs_r)
    alpha = ar + 1j * np.linalg.solve(Mi, rhs_i)
    beta1 = (-sp - 2.0 * float(row @ ar)) / (b - 1.0)
    beta = np.empty(K + 1, dtype=complex)
    beta[0] = beta1
    beta[1:] = (2 * np.arange(1, K + 1) + 1) * alpha + tables.rhat[1 : K + 1, :K] @ np.conj(alpha)
    alpha0 = complex(b / 2.0 * beta1)
    beta0 = complex(b * np.conj(alpha[0]))
    e = 2.0 * tables.powers
    pw = (prob.lam / prob.spec.a) ** (2.0 * np.arange(1, K + 1))
    A, B = alpha * pw, beta[:K] * pw
    phi_rows = np.concatenate([R[:, :K] @ A, A])
    psi_rows = np.concatenate([R[:, :K] @ B - P[:, :K] @ A, B])
    series = np.column_stack([phi_rows, psi_rows, e * phi_rows, phi_rows / (e + 1), psi_rows / (e + 1)])
    series[0] += [alpha0, beta0, 0.0, alpha0, beta0]
    plus = np.arange(1, K + 1) % 3 == 0
    return solver.PotentialCoefficients(
        alpha=alpha, beta=beta, alpha0=alpha0, beta0=beta0,
        condition=max(np.linalg.cond(Mr[np.ix_(c, c)]) for c in (plus, ~plus)),
        residual=float("nan"), series=series, powers=tables.powers,
    )


def _assert_oracle_blocks(blocks, tables):
    """blocks are Mr's two class blocks, k = 0 (mod 3) and the rest, of
    `_oracle_systems`, each within 1e-14 of its largest entry; returns the
    oracle blocks' larger 2-norm condition number."""
    Mr = _oracle_systems(tables)[0]
    plus = np.arange(1, tables.K + 1) % 3 == 0
    want = [Mr[np.ix_(c, c)] for c in (plus, ~plus)]
    for got, ref in zip(blocks, want, strict=True):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    return max(np.linalg.cond(m) for m in want)


def _capture(monkeypatch, name):
    """Record every matrix np.linalg.<name> receives, and pass it on."""
    calls, fn = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda m, *args: calls.append(m) or fn(m, *args))
    return calls


# The fields of a coefficient set that are real-linear in the load weights.
_LINEAR = ("alpha", "beta", "alpha0", "beta0", "series")


def _combine(weights, units):
    """The weighted sum of unit-load coefficient sets, field by field."""
    return {name: sum(w * getattr(u, name) for w, u in zip(weights, units)) for name in _LINEAR}


def _to_2K(spec, sums, K):
    """The session sums, or, where K's system reads past them, the same
    lattice's sums (64 rings, as the session's) to the order 2K."""
    return sums if sums.s_max >= 2 * K else lattice.compute_lattice_sums(spec, s_max=2 * K, shells=64)


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

    @pytest.mark.parametrize("K", [-1, 0, 3])
    def test_tables_need_truncation_four(self, sums, K):
        with pytest.raises(errors.InvalidArgumentError, match="K must be >= 4"):
            solver.series_tables(sums, 0.2, K)

    def test_tables_need_enough_orders(self, sums):
        with pytest.raises(errors.ConfigurationError):
            solver.series_tables(sums, 0.2, sums.s_max)
        # the system reads the sums to order 2K: K = 21 reads 42 of the 40 orders
        with pytest.raises(errors.ConfigurationError, match="s_max = 40, need at least 2K = 42"):
            solver.series_tables(sums, 0.2, 21)
        assert solver.series_tables(sums, 0.2, 20).K == 20

    def test_mismatched_tables_rejected(self, spec, tables):
        prob = solver.ProblemSpec(spec, 0.1, solver.LoadCase(1.0, 0.0, 0.0), 16)
        with pytest.raises(errors.ConfigurationError):
            solver.solve_coefficients(prob, tables)

    def test_tables_of_another_lattice_rejected(self, tables):
        # a 0.2 hole on the a = 2 lattice is a 0.1a hole, not the a = 1 tables' 0.2a
        other = lattice.build_lattice(2.0, 1, 0)
        prob = solver.ProblemSpec(other, 0.2, solver.LoadCase(2.0, 1.0, 0.3), 16)
        with pytest.raises(errors.ConfigurationError, match="lattice"):
            solver.solve_coefficients(prob, tables)
        # the chirality is a load angle: a lattice of the same periods is accepted
        same = lattice.build_lattice(1.0, 2, 1)
        solver.solve_coefficients(solver.ProblemSpec(same, 0.2, prob.load, 16), tables)


class TestTables:
    @pytest.mark.parametrize("lam, K", [(0.2, 16), (0.45, 38), (1e-3, 16)])
    def test_match_per_entry_oracle(self, spec, sums, lam, K):
        sums = _to_2K(spec, sums, K)
        t = solver.series_tables(sums, lam, K)
        r, rho, _, dminus = _oracle_tables(sums, lam, K)
        R, P = sums.cell_tables
        assert sums.cell_tables is sums.cell_tables  # built once per lattice
        assert not (R.flags.writeable or P.flags.writeable)
        cell = _oracle_quotients(sums.c_cell, sums.d_cell, sums.s_max)
        assert np.array_equal(R, cell[0]) and np.array_equal(P, cell[1])
        # only the (K+1)-square corner that the system and the beta relation read
        s = np.add.outer(np.arange(K + 1), np.arange(K + 1)) + 1
        assert t.rhat.shape == (K + 1, K + 1)
        assert np.allclose(t.rhat, lam ** (2.0 * s) * r[: K + 1, : K + 1], rtol=1e-14, atol=0)
        # the solver's matrix carries the weights lam^(2j+2k), j, k = 1..K
        jk = 2.0 * np.add.outer(np.arange(1, K + 1), np.arange(1, K + 1))
        want = lam**jk * dminus[1:, 1:]
        assert np.max(np.abs(t.dminus - want)) <= 1e-13 * np.max(np.abs(want))

    def test_scale_invariance_at_high_porosity(self):
        # lam = 0.45a needs K = 48 on the 96 orders it reads (K = 38 leaves
        # 1.4e-11); the system depends on lam/a alone, so the dimensionless
        # alpha, beta agree for every a (in physical units, lam^(4K)
        # overflows at a = 246)
        load = solver.LoadCase(2.0, 1.0, 0.3)
        solved = []
        for a in (1.0, 2.46, 246.0):
            spec = lattice.build_lattice(a, 1, 1)
            sums = lattice.compute_lattice_sums(spec, s_max=96, shells=64)
            prob = solver.ProblemSpec(spec, 0.45 * a, load, 48)
            solved.append(solver.solve_coefficients(prob, solver.series_tables(sums, 0.45 * a, 48)))
        ref = solved[0]
        for c in solved:
            assert c.residual <= 1e-12
            assert np.max(np.abs(c.alpha - ref.alpha)) <= 1e-12 * np.max(np.abs(ref.alpha))
            assert np.max(np.abs(c.beta - ref.beta)) <= 1e-12 * np.max(np.abs(ref.beta))


    @pytest.mark.parametrize("ratio, K", [(0.2, 16), (0.45, 38), (0.05, 30)])
    def test_cell_units_do_not_depend_on_a(self, ratio, K):
        # one lambda-free table pair per lattice, the same array for every a;
        # a hole radius enters through lam/a alone, so the dimensionless
        # solution and its series agree to rounding from a = 0.01 to 246
        # with the a = 1 solution at the same mu = (ratio a)/a, which may
        # differ from ratio in its last bit
        load = solver.LoadCase(2.0, 1.0, 0.3)

        def solved(a, mu):
            spec = lattice.build_lattice(a, 1, 1)
            sums = lattice.compute_lattice_sums(spec, s_max=max(40, 2 * K), shells=48)
            prob = solver.ProblemSpec(spec, mu * a, load, K)
            return sums.cell_tables, solver.solve_coefficients(prob, solver.series_tables(sums, mu * a, K))

        for a in (0.01, 1.0, 246.0):
            (R, P), c = solved(a, ratio)
            (R1, P1), ref = solved(1.0, ratio * a / a)
            assert np.array_equal(R, R1) and np.array_equal(P, P1)
            for name, tol in (("alpha", 1e-13), ("beta", 1e-13), ("series", 1e-14)):
                got, want = getattr(c, name), getattr(ref, name)
                assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), name


class TestLoadCase:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_rejected(self, bad, slot):
        args = [2.0, 1.0, 0.3]
        args[slot] = bad
        with pytest.raises(errors.InvalidArgumentError):
            solver.LoadCase(*args)

    @pytest.mark.parametrize("sigma1, sigma2", [(1e308, -1e308), (1e308, 1e308), (-1.7e308, 1e308)])
    def test_overflowing_plus_minus_rejected(self, sigma1, sigma2):
        # (sigma1 +- sigma2)/2 overflows: the load cannot be carried
        with pytest.raises(errors.InvalidArgumentError):
            solver.LoadCase(sigma1, sigma2, 0.0)
        assert solver.LoadCase(sigma1, 0.0, 0.0).sigma_minus == sigma1 / 2

    @pytest.mark.parametrize("alpha", [1e308, -1e308, np.float64(9e307)])
    def test_angle_whose_double_overflows_rejected(self, alpha):
        # the load enters through 2*alpha (its weights, its remote Psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InvalidArgumentError, match="2\\*alpha"):
                solver.LoadCase(2.0, 1.0, alpha)
        assert solver.LoadCase(2.0, 1.0, 8.9e307).weights[0] == 1.5

    def test_numpy_scalar_stresses(self):
        # sigma_+- are formed from Python floats: numpy scalars that overflow
        # are refused, not warned of, and finite ones give the same load
        with pytest.raises(errors.InvalidArgumentError):
            solver.LoadCase(np.float64(1e308), np.float64(1e308), 0.0)
        load = solver.LoadCase(np.float64(2.5), np.float64(-0.7), np.float64(0.3))
        twin = solver.LoadCase(2.5, -0.7, 0.3)
        for name in ("sigma_plus", "sigma_minus", "minus_rotated"):
            assert repr(getattr(load, name)) == repr(getattr(twin, name)), name

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_plus_minus_decomposition(self, s1, s2):
        load = solver.LoadCase(s1, s2, 0.0)
        assert load.sigma_plus + load.sigma_minus == pytest.approx(s1, abs=1e-12)
        assert load.sigma_plus - load.sigma_minus == pytest.approx(s2, abs=1e-12)

    def test_weights(self):
        w = solver.LoadCase(2.0, 1.0, 0.3).weights
        assert w == pytest.approx((1.5, 0.5 * np.cos(0.6), 0.5 * np.sin(0.6)), rel=1e-15)
        # the unit loads are the unit weight vectors, up to cos(pi/2) = 6e-17
        units = np.array([load.weights for load in solver.UNIT_LOADS])
        assert np.allclose(units, np.eye(3), rtol=0, atol=1e-16)

    def test_gate_residual(self):
        load = solver.LoadCase(-2.0, 1.0, 0.3)  # gate 1e-6 x max(|sigma1|, |sigma2|)
        assert solver.gate_residual(2e-6, load) == 2e-6
        for res in (2.01e-6, float("nan"), float("inf")):
            with pytest.raises(errors.ConsistencyError) as exc:
                solver.gate_residual(res, load)
            assert exc.value.residual is res


class TestSystemCache:
    """The real system's two class blocks and their condition numbers do
    not depend on the load: one cond call per block serves every solve on
    the same tables."""

    def test_one_cond_per_matrix_for_many_loads(self, spec, sums, monkeypatch):
        conds, solves = _capture(monkeypatch, "cond"), _capture(monkeypatch, "solve")
        tables = solver.series_tables(sums, 0.2, 16)
        conditions = {
            solver.solve_coefficients(
                solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, -1.0, ang), 16), tables
            ).condition
            for ang in np.linspace(0.0, np.pi, 7)
        }
        monkeypatch.undo()
        assert len(conds) == 2
        # the gated blocks are the solved ones, and the oracle's
        assert all(np.array_equal(c, m) for c, m in zip(conds, solves, strict=True))
        _assert_oracle_blocks(conds, tables)
        assert conditions == {max(np.linalg.cond(m) for m in conds)}

    def test_singular_tables_raise_on_every_solve(self, spec, tables):
        nan_entry = tables.dminus.copy()
        nan_entry[1, 3] = np.nan  # in the block k = 1, 2 (mod 3): numpy's SVD fails to converge
        prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, 1.0, 0.0), 16)
        # dminus ~ -I leaves both blocks finite, factorisable and numerically
        # singular (cond ~ 1e13)
        for dminus in (nan_entry, -(1 - 1e-14) * np.eye(16)):
            broken = dataclasses.replace(tables, dminus=dminus)
            for _ in range(2):
                with pytest.raises(errors.NumericalError):
                    solver.solve_coefficients(prob, broken)


class TestBasis:
    """Every load is the weighted sum of one unit-load basis per tables."""

    @pytest.mark.parametrize("a", [1.0, 246.0])
    @pytest.mark.parametrize("ratio, K", [(0.2, 16), (0.4, 16), (0.45, 38), (0.45, 4)])
    def test_matches_per_load_oracle(self, a, ratio, K):
        spec = lattice.build_lattice(a, 1, 1)
        sums = lattice.compute_lattice_sums(spec, s_max=max(40, 2 * K), shells=48)
        tables = solver.series_tables(sums, ratio * a, K)

        def oracle(load):
            prob = solver.ProblemSpec(spec, ratio * a, load, K)
            coeffs = _per_load_oracle(prob, tables)
            return prob, coeffs, fields.boundary_residual(prob, coeffs, tables)

        gated = 0
        for load in (solver.LoadCase(2.0, 1.0, 0.3), solver.LoadCase(2.0, -0.5, 0.7),
                     solver.LoadCase(-1.0, 3.0, 2.9)):
            prob, want, res = oracle(load)
            scale = max(abs(load.sigma1), abs(load.sigma2))
            if res <= 1e-6 * scale:
                coeffs = solver.solve_coefficients(prob, tables)
                got = {name: getattr(coeffs, name) for name in _LINEAR}
                gated += 1
                # At lam = 0.45a, K = 38 the residual (~1e-13) is rounding
                # noise: the oracle's own moves by up to 2e-14 x load between
                # the load and its twins at alpha +- pi, whose weights differ
                # only in rounding.  The reported one lies within that spread,
                # widened by 1e-14 x load.
                twins = [res] + [oracle(dataclasses.replace(load, alpha=load.alpha + turn))[2]
                                 for turn in (np.pi, -np.pi)]
                assert min(twins) - 1e-14 * scale <= coeffs.residual <= max(twins) + 1e-14 * scale
            else:  # refused as the oracle's residual is; one far above
                # rounding (K = 4: up to 69) agrees to 1e-13 of itself
                with pytest.raises(errors.ConsistencyError) as exc:
                    solver.solve_coefficients(prob, tables)
                got = _combine(load.weights, tables.basis)
                assert abs(exc.value.residual - res) <= 1e-14 * scale + 1e-13 * res
            for name in _LINEAR:
                ref = getattr(want, name)
                assert np.max(np.abs(got[name] - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        assert (gated == 0) == (K == 4)

    @pytest.mark.parametrize("n_loads", [1, 7])
    def test_one_block_solve_per_unit_load_for_any_number_of_loads(self, spec, sums, monkeypatch,
                                                                   n_loads):
        # two solves per tables, both on class blocks of the real system Mr:
        # sigma_+ on its k = 0 (mod 3) block, sigma_- cos on the rest; sigma_- sin
        # is the 60 degree turn of sigma_- cos and solves nothing
        for K in (16, 18):
            conds, solves = _capture(monkeypatch, "cond"), _capture(monkeypatch, "solve")
            tables = solver.series_tables(sums, 0.2, K)
            for ang in np.linspace(0.0, np.pi, n_loads):
                prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, -1.0, ang), K)
                solver.solve_coefficients(prob, tables)
            monkeypatch.undo()
            assert [m.shape for m in solves] == [(n, n) for n in (K // 3, K - K // 3)]
            assert all(np.array_equal(m, c) for m, c in zip(solves, conds, strict=True))
            _assert_oracle_blocks(solves, tables)

    def test_unit_solutions_are_ungated_and_kept(self, monkeypatch):
        for a, ratio, K in ((1.0, 0.2, 16), (246.0, 0.4, 16), (1.0, 0.45, 38), (1.0, 0.2, 18)):
            spec = lattice.build_lattice(a, 1, 1)
            sums = lattice.compute_lattice_sums(spec, s_max=max(40, 2 * K), shells=48)
            tables = solver.series_tables(sums, ratio * a, K)
            conds = _capture(monkeypatch, "cond")
            units = tables.basis
            monkeypatch.undo()
            assert units is tables.basis and len(units) == 3 and len(conds) == 2
            # the condition is the larger of the two solved blocks', and the oracle's
            cond, want = max(np.linalg.cond(m) for m in conds), _assert_oracle_blocks(conds, tables)
            assert all(np.isnan(u.residual) and u.condition == cond for u in units)
            assert abs(cond - want) <= 1e-14 * want


class TestSolution:
    def test_nan_residual_fails_closed(self, spec, tables, monkeypatch):
        monkeypatch.setattr(fields, "boundary_residual", lambda *args, **kwargs: float("nan"))
        prob = solver.ProblemSpec(spec, 0.2, solver.LoadCase(2.0, 1.0, 0.0), 16)
        with pytest.raises(errors.ConsistencyError):
            solver.solve_coefficients(prob, tables)

    @pytest.mark.parametrize("lam, K, load", [
        (0.45, 38, (1e308, 0.0, 0.0)),  # alpha and beta overflow
        (0.2, 16, (1e307, 0.0, 0.0)),  # only a row of the collapsed series overflows
    ])
    def test_overflowing_solution_is_numerical_error(self, spec, sums, lam, K, load):
        # not a NaN residual (ConsistencyError), and no RuntimeWarning
        prob = solver.ProblemSpec(spec, lam, solver.LoadCase(*load), K)
        with pytest.raises(errors.NumericalError, match="overflows"):
            solver.solve_coefficients(prob, solver.series_tables(_to_2K(spec, sums, K), lam, K))

    def test_large_load_at_small_hole_solves(self, spec, sums):
        # the solution is finite, and so is every mode of its rim spectrum
        load = solver.LoadCase(1e308, 1e307, 0.0)
        prob = solver.ProblemSpec(spec, 0.01, load, 16)
        coeffs = solver.solve_coefficients(prob, solver.series_tables(sums, 0.01, 16))
        assert np.isfinite(coeffs.series).all()
        assert coeffs.residual <= 1e-6 * load.sigma1

    def test_overflowing_rim_spectrum_is_numerical_error(self, spec, tables):
        # a finite solution whose rim spectrum overflows as the series row of
        # zeta^-2 is scaled by (lam/a)^-2: not a ConsistencyError with an
        # infinite residual
        fresh = dataclasses.replace(tables)
        series = tables.basis[0].series.copy()
        series[list(tables.powers).index(-1), 0] = 1e308
        basis = (dataclasses.replace(tables.basis[0], series=series), *tables.basis[1:])
        fresh.__dict__["basis"] = basis
        prob = solver.ProblemSpec(spec, 0.2, solver.UNIT_LOADS[0], 16)
        with pytest.raises(errors.NumericalError, match="overflows"):
            solver.solve_coefficients(prob, fresh)
        with np.errstate(over="ignore"):
            assert fields.boundary_residual(prob, basis[0], fresh) == np.inf

    def test_linear_algebra_breakdown_is_numerical_error(self, spec, tables):
        # a NaN system entry makes numpy's SVD fail to converge
        dminus = tables.dminus.copy()
        dminus[1, 3] = np.nan
        broken = dataclasses.replace(tables, dminus=dminus)
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

    def test_unit_loads_superpose(self, spec, sums):
        # under-resolved (K = 4, lam = 0.45), so the rim spectrum is far above
        # rounding and its superposition is tested, not just its smallness
        lam, K = 0.45, 4
        tables = solver.series_tables(sums, lam, K)
        units = [
            (u, fields.rim_spectrum(solver.ProblemSpec(spec, lam, load, K), u, tables))
            for load, u in zip(solver.UNIT_LOADS, tables.basis)
        ]
        for load in (solver.LoadCase(2.0, -0.5, 0.7), solver.LoadCase(-1.0, 3.0, 2.9)):
            prob = solver.ProblemSpec(spec, lam, load, K)
            coeffs = _per_load_oracle(prob, tables)
            defect = fields.rim_spectrum(prob, coeffs, tables)
            w = load.weights
            for name, got in _combine(w, [u for u, _ in units]).items():
                want = getattr(coeffs, name)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            superposed = sum(wi * d for wi, (_, d) in zip(w, units))
            assert np.max(np.abs(defect)) > 1e-6
            assert np.max(np.abs(superposed - defect)) <= 1e-13 * np.max(np.abs(defect))

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


class TestSymmetryClasses:
    """The six-fold rotation fixes the sigma_+ load, so its basis column
    carries only alpha_k with k = 0 and beta_k with k = 1 (mod 3); it turns
    the sigma_- loads by exp(-+2i pi/3), so their columns carry the other
    classes.  The off-class coefficients are exact zeros by construction:
    each load solves its own class block, and every product of the beta
    relation off the class holds an exact zero.  The same turn maps the
    sigma_- cos load onto the sigma_- sin one: on the rest, the imaginary
    system is D Mr D, D = +1 on k = 1 and -1 on k = 2 (mod 3), and the
    sigma_- sin element is formed from the sigma_- cos one, not solved."""

    @pytest.mark.parametrize("a", [1.0, 246.0])
    @pytest.mark.parametrize("shells", [48, 64])
    def test_unit_load_basis_obeys_its_classes(self, a, shells):
        sums = lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=64, shells=shells)
        for ratio in (0.05, 0.2, 0.3, 0.4):
            for K in (16, 24, 32):
                ka, kb = np.arange(1, K + 1) % 3, np.arange(1, K + 2) % 3
                for i, u in enumerate(solver.series_tables(sums, ratio * a, K).basis):
                    plus = i == 0  # UNIT_LOADS[0] is sigma_+, the others sigma_-
                    off = np.concatenate([u.alpha[(ka != 0) == plus], u.beta[(kb != 1) == plus]])
                    assert np.all(off == 0.0), (ratio, K, i)
                    # and the class itself is loaded
                    assert np.abs(u.alpha[(ka != 0) != plus]).max() > 0, (ratio, K, i)

    @staticmethod
    def _turn_grid(a, shells):
        """Tables over the grid lam/a in {0.05, 0.2, 0.4, 0.45}, K in {16, 24, 32, 38}."""
        spec = lattice.build_lattice(a, 1, 1)
        sums = lattice.compute_lattice_sums(spec, s_max=76, shells=shells)
        for ratio in (0.05, 0.2, 0.4, 0.45):
            for K in (16, 24, 32, 38):
                yield spec, solver.series_tables(sums, ratio * a, K)

    @pytest.mark.parametrize("a", [1.0, 246.0])
    @pytest.mark.parametrize("shells", [48, 64])
    def test_imaginary_system_is_the_turned_real_one(self, a, shells):
        # on the independent systems, Mi[0, 0]'s -b included
        for _, tables in self._turn_grid(a, shells):
            ka = np.arange(1, tables.K + 1) % 3
            rest = ka != 0
            D = np.where(ka[rest] == 1, 1.0, -1.0)
            Mr, Mi = (m[np.ix_(rest, rest)] for m in _oracle_systems(tables))
            assert np.array_equal(Mi, D[:, None] * Mr * D), (tables.lam, tables.K)

    @pytest.mark.parametrize("a", [1.0, 246.0])
    @pytest.mark.parametrize("shells", [48, 64])
    def test_minus_sin_element_is_that_loads_own_solution(self, a, shells):
        for spec, tables in self._turn_grid(a, shells):
            prob = solver.ProblemSpec(spec, tables.lam, solver.UNIT_LOADS[2], tables.K)
            want = _per_load_oracle(prob, tables)
            for name in _LINEAR:
                ref, got = getattr(want, name), getattr(tables.basis[2], name)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (tables.lam, tables.K, name)


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
