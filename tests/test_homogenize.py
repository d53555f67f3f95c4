"""Moduli conversions, round trips, and the raw jump-system oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import errors, homogenize


@pytest.fixture(scope="module")
def data(spec, sums):
    return homogenize.homogenization_data(spec, 0.2, sums=sums)


class TestModuliSet:
    def test_derived_quantities(self):
        m = homogenize.ModuliSet(E=2.0, nu=0.25, E_eff=1.5, nu_eff=0.3)
        assert m.G == pytest.approx(0.8)
        assert m.kappa == pytest.approx(2.2)
        assert m.kappa_plus == pytest.approx(1.3 / 1.5)
        assert m.kappa_minus == pytest.approx(0.7 / 1.5)

    def test_validation(self):
        with pytest.raises(errors.InvalidArgumentError):
            homogenize.ModuliSet(E=-1.0, nu=0.3, E_eff=1.0, nu_eff=0.3)
        with pytest.raises(errors.InvalidArgumentError):
            homogenize.ModuliSet(E=1.0, nu=0.6, E_eff=1.0, nu_eff=0.3)


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
