"""Lattice geometry, chiral angle, and lattice-sum constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import errors, lattice


class TestChiralAngle:
    def test_armchair_is_zero(self):
        assert abs(lattice.chiral_angle(1, 1)) < 1e-15
        assert abs(lattice.chiral_angle(3, 3)) < 1e-14

    def test_zigzag_branches(self):
        assert lattice.chiral_angle(0, 1) == pytest.approx(np.pi / 6, abs=1e-15)
        assert lattice.chiral_angle(1, 0) == pytest.approx(-np.pi / 6, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(errors.InvalidArgumentError):
            lattice.chiral_angle(0, 0)

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_range_for_standard_indices(self, m, n):
        if m == 0 and n == 0:
            return
        ang = lattice.chiral_angle(m, n)
        assert -np.pi / 6 - 1e-12 <= ang <= np.pi / 6 + 1e-12


class TestGeometry:
    def test_periods_are_conjugate(self):
        spec = lattice.build_lattice(2.5, 1, 1)
        assert spec.omega2 == np.conj(spec.omega1)
        assert abs(spec.omega1) == pytest.approx(2.5)

    def test_cell_area(self):
        spec = lattice.build_lattice(1.0, 1, 1)
        area = abs(np.imag(spec.omega1 * np.conj(spec.omega2)))
        assert area == pytest.approx(np.sqrt(3) / 2, rel=1e-15)

    def test_bad_constant(self):
        with pytest.raises(errors.InvalidArgumentError):
            lattice.build_lattice(-1.0, 1, 1)


class TestHexRings:
    def test_counts(self):
        # ring r holds 6r points: total 3 N (N+1)
        for N in (1, 2, 5):
            m, n, ring = lattice.hex_ring_indices(N)
            assert len(m) == 3 * N * (N + 1)
            for r in range(1, N + 1):
                assert int(np.sum(ring == r)) == 6 * r

    @given(st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_sixfold_invariance(self, N):
        # the index region must map onto itself under (m, n) -> (-n, m+n)
        m, n, _ = lattice.hex_ring_indices(N)
        pts = set(zip(m.tolist(), n.tolist()))
        rotated = {(-b, a + b) for a, b in pts}
        assert rotated == pts


class TestLatticeSums:
    def test_zero_patterns(self, sums):
        s = np.arange(2, sums.s_max + 1)
        c_scale = abs(sums.c[3])
        d_scale = abs(sums.d[2])
        assert np.max(np.abs(sums.c[s][s % 3 != 0])) < 1e-12 * c_scale
        assert np.max(np.abs(sums.d[s][s % 3 != 2])) < 1e-12 * d_scale

    def test_invariants(self, sums):
        assert sums.g2 == pytest.approx(20 * sums.c[2], abs=1e-18)
        assert sums.g3 == pytest.approx(28 * sums.c[3], rel=1e-15)
        assert abs(sums.g2) < 1e-12 * abs(sums.g3)

    def test_recursion_matches_direct(self, spec):
        # the comparison is limited by the c_3 tail (~shells^-4), so use a
        # better-converged direct sum than the session default
        fine = lattice.compute_lattice_sums(spec, s_max=12, shells=128, method="direct")
        crec = lattice.recursion_c(fine.c[3], fine.s_max)
        for s in (6, 9, 12):
            assert crec[s] == pytest.approx(fine.c[s], rel=1e-8)

    def test_legendre_identity(self, sums):
        res = sums.delta1 * sums.spec.omega2 - sums.delta2 * sums.spec.omega1
        assert abs(res - 2j * np.pi) < 1e-10 * 2 * np.pi

    def test_delta_real_and_conjugate_structure(self, sums):
        # delta_j = delta * conj(omega_j) with one real constant delta
        d = np.conj(sums.delta1) / sums.spec.omega1
        assert abs(np.imag(d)) < 1e-10
        assert sums.delta2 == pytest.approx(np.conj(sums.delta1), rel=1e-12)
        assert sums.delta == pytest.approx(2 * np.pi / np.sqrt(3), rel=1e-9)

    def test_gamma_defects_vanish(self, sums):
        assert abs(sums.gamma1) < 1e-7
        assert abs(sums.gamma2) < 1e-7

    def test_scaling_laws(self):
        sa = lattice.compute_lattice_sums(lattice.build_lattice(2.0, 1, 1), s_max=9, shells=16)
        sb = lattice.compute_lattice_sums(lattice.build_lattice(246.0, 1, 1), s_max=9, shells=16)
        assert sa.c[3] / sb.c[3] == pytest.approx(123.0**6, rel=1e-10)
        assert sa.d[2] / sb.d[2] == pytest.approx(123.0**4, rel=1e-10)
        assert sa.delta / sb.delta == pytest.approx(123.0**2, rel=1e-10)

    def test_starved_run_raises_precision(self, spec):
        with pytest.raises(errors.PrecisionError) as exc:
            lattice.compute_lattice_sums(spec, s_max=3, shells=4)
        assert exc.value.tail is not None

    @pytest.mark.parametrize("a, s_max", [(1e5, 40), (1e-5, 40), (1e150, 3), (np.inf, 3)])
    def test_unrepresentable_scale_rejected(self, a, s_max):
        # a^(+-2 s_max) must be a finite, normal double
        with pytest.raises(errors.InvalidArgumentError, match="out of range"):
            lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=s_max, shells=8)

    @pytest.mark.parametrize("shells", [513, 10**7])
    def test_ring_count_out_of_range(self, spec, shells):
        with pytest.raises(errors.InvalidArgumentError, match="shells"):
            lattice.compute_lattice_sums(spec, s_max=9, shells=shells)

    def test_large_constant_with_few_orders_accepted(self):
        sums = lattice.compute_lattice_sums(lattice.build_lattice(1e5, 1, 1), s_max=9, shells=16)
        assert np.isfinite(sums.c).all() and sums.c[9] != 0.0

    def test_bad_method(self, spec):
        with pytest.raises(errors.InvalidArgumentError):
            lattice.compute_lattice_sums(spec, method="magic")

    def test_hybrid_agrees_with_direct(self, sums, sums_direct):
        s = np.arange(2, 25)
        scale = np.abs(sums_direct.c[s]) + abs(sums_direct.c[3]) * 1e-8
        assert np.max(np.abs(sums.c[s] - sums_direct.c[s]) / scale) < 1e-7
