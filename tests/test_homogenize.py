"""Moduli conversions, round trips, the raw jump-system oracle and the
physics of the two-number map."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import errors, homogenize, lattice


@pytest.fixture(scope="module")
def data(spec, sums):
    return homogenize.homogenization_data(spec, 0.2, sums=sums)


class TestConversions:
    def test_round_trip(self, data):
        E, nu = homogenize.bond_from_effective(1.0, 0.3, data)
        E_eff, nu_eff = homogenize.effective_from_bond(E, nu, data)
        assert E_eff == pytest.approx(1.0, abs=1e-8)
        assert nu_eff == pytest.approx(0.3, abs=1e-8)

    @given(st.floats(0.1, 0.45), st.floats(0.05, 0.225))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, spec, sums, nu_eff, lam):
        data = homogenize.homogenization_data(spec, lam, sums=sums)
        E, nu = homogenize.bond_from_effective(1.0, nu_eff, data)
        back = homogenize.effective_from_bond(E, nu, data)
        assert back[0] == pytest.approx(1.0, abs=1e-8)
        assert back[1] == pytest.approx(nu_eff, abs=1e-8)

    def test_dilute_identity(self, spec, sums):
        data = homogenize.homogenization_data(spec, 1e-3, sums=sums)
        E, nu = homogenize.bond_from_effective(1.0, 0.3, data)
        assert E == pytest.approx(1.0, abs=1e-4)
        assert nu == pytest.approx(0.3, abs=1e-4)

    def test_dilute_expansion(self, spec, sums):
        # leading-order corrections: E_eff/E = 1 - 3f, nu_eff = nu + f(1 - 3nu)
        lam = 0.01
        f = 2 * np.pi * lam**2 / np.sqrt(3)
        data = homogenize.homogenization_data(spec, lam, sums=sums)
        E_eff, nu_eff = homogenize.effective_from_bond(1.0, 0.3, data)
        assert E_eff == pytest.approx(1 / (1 + 3 * f), abs=3 * f * f)
        assert nu_eff == pytest.approx((0.3 + f) / (1 + 3 * f), abs=3 * f * f)

    def test_monotonic_trends(self, spec, sums):
        Es, nus = [], []
        for lam in np.linspace(0.05, 0.225, 8):
            data = homogenize.homogenization_data(spec, float(lam), sums=sums)
            E, nu = homogenize.bond_from_effective(1.0, 0.3, data)
            Es.append(E)
            nus.append(nu)
        assert all(b > a for a, b in zip(Es, Es[1:]))
        assert all(b < a for a, b in zip(nus, nus[1:]))

    def test_effective_decreasing(self, spec, sums):
        vals = []
        for lam in np.linspace(0.05, 0.225, 8):
            data = homogenize.homogenization_data(spec, float(lam), sums=sums)
            E_eff, nu_eff = homogenize.effective_from_bond(1.0, 0.2668, data)
            vals.append((E_eff, nu_eff))
        assert all(b[0] < a[0] for a, b in zip(vals, vals[1:]))
        assert all(b[1] > a[1] for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs(self, data):
        with pytest.raises(errors.InvalidArgumentError):
            homogenize.bond_from_effective(-1.0, 0.3, data)
        with pytest.raises(errors.InvalidArgumentError):
            homogenize.effective_from_bond(1.0, 1.2, data)

    def test_non_positive_modulus(self, data):
        with pytest.raises(errors.InvalidArgumentError, match="E must be positive"):
            homogenize.effective_from_bond(0.0, 0.3, data)
        with pytest.raises(errors.InvalidArgumentError, match="E must be positive"):
            homogenize.isotropy_check(data, E=0.0)

    def test_unreachable_nu_eff(self, data):
        # bond ratios in (-1, 1) reach exactly nu_eff in (c - e, c + e)
        lo, hi = data.c - data.e, data.c + data.e
        for nu_eff in (lo + 1e-9, hi - 1e-9):
            assert -1.0 < homogenize.bond_from_effective(1.0, nu_eff, data)[1] < 1.0
        for nu_eff in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(errors.InvalidArgumentError, match="nu_eff = .* unreachable"):
                homogenize.bond_from_effective(1.0, nu_eff, data)

    def test_affine_map(self, data):
        for nu in (-0.5, 0.0, 0.3):
            E_eff, nu_eff = homogenize.effective_from_bond(2.0, nu, data)
            assert E_eff == 2.0 * data.e
            assert nu_eff == pytest.approx(data.e * nu + data.c, abs=1e-15)
            E, nu_back = homogenize.bond_from_effective(E_eff, nu_eff, data)
            assert E == pytest.approx(2.0, rel=1e-15)
            assert nu_back == pytest.approx(nu, abs=1e-15)

    def test_degenerate_denominator(self, data):
        # 1 / e = 1 + b (p - 2q) at zero or below is not a sheet
        for den in (0.0, -1.0):
            p = 2 * data.alpha1_minus + (den - 1.0) / data.lam2delta
            bad = dataclasses.replace(data, beta1_plus=p)
            with pytest.raises(errors.NumericalError, match="degenerate"):
                homogenize.effective_from_bond(1.0, 0.3, bad)


class TestIsotropyOracle:
    def test_determinant(self, data):
        rep = homogenize.isotropy_check(data, E=1.0, nu=0.2668)
        assert rep.det_expected == pytest.approx(-12.0 * data.a**4)
        assert rep.det_rel_err < 1e-10

    def test_isotropy_collapse(self, data):
        rep = homogenize.isotropy_check(data, E=1.0, nu=0.2668)
        assert rep.split_plus < 1e-8
        assert rep.split_minus < 1e-8
        assert rep.imag_residual < 1e-10

    def test_matches_closed_form(self, data):
        rep = homogenize.isotropy_check(data, E=1.0, nu=0.2668)
        assert rep.closed_form_gap < 1e-8

    def test_two_paths_across_materials(self, data):
        for nu in (0.0, 0.15, 0.4):
            rep = homogenize.isotropy_check(data, E=2.5, nu=nu)
            assert rep.closed_form_gap < 1e-8


class TestCaching:
    def test_sums_required(self, spec):
        # the lattice sums are always passed in; there is no default set of them
        with pytest.raises(TypeError):
            homogenize.homogenization_data(spec, 0.16)

    def test_sums_of_another_lattice_rejected(self, sums):
        # the a = 1 sums cannot stand for a = 2: the record would carry a = 2
        # with the a = 1 lattice's delta and a 0.2a hole's coefficients
        with pytest.raises(errors.ConfigurationError, match="lattice"):
            homogenize.homogenization_data(lattice.build_lattice(2.0, 1, 0), 0.2, sums=sums)


def _oracle_moduli(data, nu):
    """(E_eff, nu_eff) for E = 1 from the 4x4 jump system's kappas alone."""
    rep = homogenize.isotropy_check(data, E=1.0, nu=nu)
    kp, km = rep.kappa_plus, rep.kappa_minus
    return 2.0 / (kp + km), (kp - km) / (kp + km)


class TestMapPhysics:
    """Oracles for E_eff = e E, nu_eff = e nu + c (Cherkaev-Lurie-Milton)."""

    @pytest.mark.parametrize("a", [1.0, 246.0])
    def test_solver_ties_the_four_coefficients(self, a):
        # alpha0+ = (b/2) beta1+ and beta0- = b alpha1-, which leave two numbers
        spec = lattice.build_lattice(a, 1, 1)
        sums = lattice.compute_lattice_sums(spec, s_max=40, shells=64)
        for ratio in np.linspace(0.02, 0.35, 8):
            d = homogenize.homogenization_data(spec, float(ratio * a), sums=sums)
            b = d.lam2delta
            assert d.alpha0_plus == pytest.approx(b / 2 * d.beta1_plus, rel=1e-14, abs=0)
            assert d.beta0_minus == pytest.approx(b * d.alpha1_minus, rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.225])
    def test_clm_invariance(self, spec, sums, lam):
        # through the 4x4 oracle only: E_eff/E is the same for every bond nu,
        # and nu_eff is affine in nu with slope E_eff/E
        data = homogenize.homogenization_data(spec, lam, sums=sums)
        nus = np.array([-0.5, 0.0, 0.2668, 0.45])
        E_eff, nu_eff = np.array([_oracle_moduli(data, nu) for nu in nus]).T
        assert np.ptp(E_eff) <= 1e-12
        assert np.max(np.abs(nu_eff - nu_eff[1] - E_eff[1] * nus)) <= 1e-12
        # and the map's two numbers are the oracle's slope and offset
        assert data.e == pytest.approx(E_eff[1], abs=1e-12)
        assert data.c == pytest.approx(nu_eff[1], abs=1e-12)

    def test_hashin_shtrikman_bound(self, spec, sums):
        # 2D upper bound for holes: E_eff/E <= (1 - f)/(1 + 2f), f the hole fraction
        sums64 = lattice.compute_lattice_sums(spec, s_max=64, shells=64)  # the 2K orders of K = 32
        for ratio in np.linspace(0.01, 0.4, 14):
            K = 32 if ratio >= 0.35 else 16
            data = homogenize.homogenization_data(spec, float(ratio), K=K, sums=sums64 if K == 32 else sums)
            f = 2 * np.pi * ratio**2 / np.sqrt(3)
            assert data.e <= (1 - f) / (1 + 2 * f) + 1e-14

    @pytest.mark.parametrize("lam", [0.005, 0.01, 0.02, 0.05])
    def test_dilute_fixed_point(self, spec, sums, lam):
        # nu* = c/(1 - e) solves nu* = e nu* + c; dilute holes pull nu_eff to 1/3
        data = homogenize.homogenization_data(spec, lam, sums=sums)
        assert data.c / (1 - data.e) == pytest.approx(1 / 3, abs=1e-6)


def _dilute_gaps(spec, sums):
    """(f, HS - e, nu* - 1/3) at lambda/a in {0.02, 0.03, 0.04, 0.06}: f the hole
    fraction, HS = (1 - f)/(1 + 2f) and nu* = c/(1 - e) the map's fixed point."""
    rows = []
    for ratio in (0.02, 0.03, 0.04, 0.06):
        data = homogenize.homogenization_data(spec, ratio * spec.a, sums=sums)
        f = 2 * np.pi * ratio**2 / np.sqrt(3)
        rows.append((f, (1 - f) / (1 + 2 * f) - data.e, data.c / (1 - data.e) - 1 / 3))
    return np.array(rows).T


def _slope(f, gap):
    return np.polyfit(np.log(f), np.log(gap), 1)[0]


class TestDiluteOrders:
    """Hexagonal arrays interact late (c2 = g2 = 0), so criterion 1's map
    meets its dilute limits at high order in the hole fraction f.  The bound,
    the fixed point to 1e-6 and the O(f) expansion at 3f^2 above pass a
    defect of order f^2 to f^4 there; these orders pin it."""

    def test_map_meets_the_hashin_shtrikman_bound_at_order_f5(self, spec, sums):
        # HS - e ~ 17.5 f^5: fitted slope 4.97 in f
        f, hs_gap, _ = _dilute_gaps(spec, sums)
        assert 4.8 <= _slope(f, hs_gap) <= 5.1

    def test_fixed_point_leaves_one_third_at_order_f4(self, spec, sums):
        # nu* - 1/3 ~ 3.9 f^4: fitted slope 3.99 in f
        f, _, nu_gap = _dilute_gaps(spec, sums)
        assert 3.9 <= _slope(f, nu_gap) <= 4.1
