"""Lattice geometry, chiral angle, and lattice-sum constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import elliptic, errors, lattice


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
            m, n, ring = elliptic.hex_ring_indices(N)
            assert len(m) == 3 * N * (N + 1)
            for r in range(1, N + 1):
                assert int(np.sum(ring == r)) == 6 * r

    @given(st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_sixfold_invariance(self, N):
        # the index region must map onto itself under (m, n) -> (-n, m+n)
        m, n, _ = elliptic.hex_ring_indices(N)
        pts = set(zip(m.tolist(), n.tolist()))
        rotated = {(-b, a + b) for a, b in pts}
        assert rotated == pts

    @pytest.mark.parametrize("N", range(1, 9))
    def test_sextant_tiles_the_rings(self, N):
        # the sextant S = {m >= 1, n >= 0, m+n <= N} as `_raw_sums` forms it: its
        # six turns (m, n) -> (-n, m+n) hold every point of N rings once
        n, ring = np.triu_indices(N + 1, 1)
        m = ring - n
        sextant = list(zip(m.tolist(), n.tolist()))
        assert set(sextant) == {(i, j) for i in range(1, N + 1) for j in range(N + 1 - i)}
        assert np.array_equal(ring, np.maximum(np.maximum(np.abs(m), np.abs(n)), np.abs(m + n)))
        turns = []
        for _ in range(6):
            turns += sextant
            sextant = [(-j, i + j) for i, j in sextant]
        hm, hn, _ = elliptic.hex_ring_indices(N)
        assert len(turns) == len(set(turns)) == 3 * N * (N + 1)
        assert set(turns) == set(zip(hm.tolist(), hn.tolist()))


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
        crec = elliptic.recursion_c(fine.c[3], fine.s_max)
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
        # reading c or d needs a^(+-2 s_max) as a finite, normal double;
        # at s_max = 3 that is a^(+-6), which forming the sums already needs
        spec = lattice.build_lattice(a, 1, 1)
        with pytest.raises(errors.InvalidArgumentError, match="out of range"):
            lattice.compute_lattice_sums(spec, s_max=s_max, shells=16).c
        with pytest.raises(errors.InvalidArgumentError, match="out of range"):
            lattice.compute_lattice_sums(spec, s_max=s_max, shells=16).d

    @pytest.mark.parametrize("a", [5.4e-52, 1.88e51])
    def test_any_order_is_formed_while_a6_is_representable(self, a):
        # a^(+-6) bounds every power of a that the solve and the fields take
        # (delta ~ a^-2 at most); c and d at s_max = 40 need a^(+-80) on read
        sums = lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=40, shells=16)
        assert all(math.isfinite(v) for v in (sums.delta, abs(sums.delta1), abs(sums.delta2)))
        with pytest.raises(errors.InvalidArgumentError, match=r"a\^\(\+-80\)"):
            sums.c

    @pytest.mark.parametrize("a", [5.2e-52, 1.9e51, 1e150, np.inf])
    def test_sums_refused_when_a6_is_not_representable(self, a):
        with pytest.raises(errors.InvalidArgumentError, match=r"a\^\(\+-6\)"):
            lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=40, shells=16)

    def test_overflowing_physical_values_refused(self):
        # a^(+-6) is a finite, normal double at a = 5.4e-52, but c_3 a^-6 and
        # g3 = 28 c_3/a^6 overflow: reading either raises, with no overflow warning
        sums = lattice.compute_lattice_sums(lattice.build_lattice(5.4e-52, 1, 1), s_max=3, shells=16)
        for name in ("c", "g3"):
            with pytest.raises(errors.InvalidArgumentError, match="out of range"):
                getattr(sums, name)

    @pytest.mark.parametrize("a", [2.46, 246.0])
    def test_cell_sums_do_not_depend_on_a(self, a):
        # only the a = 1 sums are formed, whatever the lattice constant
        one, other = (lattice.compute_lattice_sums(lattice.build_lattice(x, 1, 1), s_max=40, shells=32)
                      for x in (1.0, a))
        assert np.array_equal(one.c_cell, other.c_cell)
        assert np.array_equal(one.d_cell, other.d_cell)
        assert one.tail == other.tail

    @pytest.mark.parametrize("a", [1.0, 2.46, 246.0])
    def test_physical_values_are_formed_on_read(self, a):
        # the same expressions, so the same bits, as when the sums formed them
        sums = lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=40, shells=32)
        c, d = sums.c_cell, sums.d_cell
        scale = a ** (-2.0 * np.arange(41))
        assert np.array_equal(sums.c, c * scale) and np.array_equal(sums.d, d * scale)
        delta = 2.0 * math.pi / math.sqrt(3)
        delta1, delta2 = (delta * w.conjugate() for w in lattice._periods(1.0))
        assert (sums.delta, sums.delta1, sums.delta2) == (delta / a**2, delta1 / a, delta2 / a)
        assert (sums.g2, sums.g3) == (20.0 * c[2] / a**4, 28.0 * c[3] / a**6)
        # c and d are formed once and read-only
        assert sums.c is sums.c and sums.d is sums.d
        assert not (sums.c.flags.writeable or sums.d.flags.writeable)

    def test_laurent_evaluator_refuses_unrepresentable_sums(self):
        sums = lattice.compute_lattice_sums(lattice.build_lattice(1e5, 1, 1), s_max=40, shells=16)
        with pytest.raises(errors.InvalidArgumentError, match="out of range"):
            elliptic.make_evaluator(sums)

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

    def test_c3_and_its_multiples_match_the_closed_form(self, sums):
        # c_3 = 5 G_6 = -Gamma(1/3)^18 / ((2 pi)^6 28) at a = 1 (DLMF 23.5(v)); the
        # ring sum's c_3 is off by its truncation (3e-9 at 64 rings), while each
        # c_3s is its own ring sum, right to rounding
        C3 = -math.gamma(1 / 3) ** 18 / ((2 * math.pi) ** 6 * 28)
        assert C3 == pytest.approx(-29.315158467127066, rel=1e-15)
        assert abs(sums.c_cell[3] / C3 - 1) <= 5e-9
        exact = elliptic.recursion_c(C3, 40)
        for s in range(6, 41, 3):
            assert abs(sums.c_cell[s] / exact[s] - 1) <= 2e-15 * s, s

    @pytest.mark.parametrize("shells", [4, 16, 64])
    def test_tail_is_the_outermost_ring_share_of_d2(self, spec, shells):
        try:
            tail = lattice.compute_lattice_sums(spec, s_max=3, shells=shells).tail
        except errors.PrecisionError as exc:  # 4 rings fail the monitor
            tail = exc.tail
        m, n, ring = elliptic.hex_ring_indices(shells)
        w = m * spec.omega1 + n * spec.omega2  # spec.a = 1
        terms = np.real(np.conj(w) / w**5)  # d_2 = sum' conj(w) w^-5
        want = abs(np.sum(terms[ring == shells])) / abs(np.sum(terms))
        assert tail == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("shells", [2, 5, 16])
    def test_one_pass_matches_exactly_rounded_sums(self, shells):
        # math.fsum over the same translates, each term a Python complex power:
        # c_s = (2s-1) Re sum' w^-2s and d_s = Re sum' conj(w) w^-(2s+1)
        s_max = 12
        c, d, _ = lattice._raw_sums(s_max, shells)
        omega1, omega2 = lattice._periods(1.0)
        w = [int(m) * omega1 + int(n) * omega2 for m, n, _ in zip(*elliptic.hex_ring_indices(shells))]
        for s in range(2, s_max + 1):
            want_c = math.fsum((2 * s - 1) * (v ** (-2 * s)).real for v in w)
            want_d = math.fsum((v.conjugate() * v ** (-2 * s - 1)).real for v in w)
            for got, want, allowed, unit in ((c[s], want_c, s % 3 == 0, c[3]),
                                             (d[s], want_d, s % 3 == 2, d[2])):
                scale = abs(want) if allowed else abs(unit)
                assert abs(got - want) <= 1e-14 * scale, (s, got, want)

    @pytest.mark.parametrize("s_max, shells", [(42, 16), (256, 4)])
    def test_sextant_sums_match_full_ring_fsum(self, s_max, shells):
        # the check of the six-fold symmetry that the sextant sums rest on:
        # math.fsum over every translate of the full rings, each term a Python
        # complex power.  The allowed orders (c_s at s = 0, d_s at s = 2 mod 3)
        # agree to 1e-14; every other order is an exact zero, not rounding noise
        c, d, _ = lattice._raw_sums(s_max, shells)
        omega1, omega2 = lattice._periods(1.0)
        w = [int(m) * omega1 + int(n) * omega2 for m, n, _ in zip(*elliptic.hex_ring_indices(shells))]
        for s in range(s_max + 1):
            if s % 3 == 0 and s > 0:
                want = math.fsum((2 * s - 1) * (v ** (-2 * s)).real for v in w)
                assert abs(c[s] - want) <= 1e-14 * abs(want), (s, c[s], want)
            else:
                assert c[s] == 0.0, s
            if s % 3 == 2:
                want = math.fsum((v.conjugate() * v ** (-2 * s - 1)).real for v in w)
                assert abs(d[s] - want) <= 1e-14 * abs(want), (s, d[s], want)
            else:
                assert d[s] == 0.0, s

    @pytest.mark.parametrize("a", [1.0, 2.46, 246.0])
    def test_g2_is_an_exact_zero(self, a):
        # g2 = 20 c_2/a^4, and c_2 is a forbidden order
        sums = lattice.compute_lattice_sums(lattice.build_lattice(a, 1, 1), s_max=40, shells=32)
        assert sums.g2 == 0.0


def _extrapolated_gammas(spec, levels=(16, 32, 64, 128)):
    """gamma_j = N(z0 + omega_j) - N(z0) - conj(omega_j) p(z0) from direct
    sums over each ring count in levels, extrapolated to infinitely many
    rings in the powers 0, -2, -3, -4 of the ring count (Richardson)."""
    z0 = (0.137 + 0.289j) * spec.a  # generic probe point, away from lattice sites
    rows = []
    for shells in levels:
        nz = elliptic.natanzon_deriv_direct(z0, 0, spec, shells)
        wp = elliptic.wp_deriv_direct(z0, 0, spec, shells)
        rows.append([
            elliptic.natanzon_deriv_direct(z0 + w, 0, spec, shells) - nz - np.conj(w) * wp
            for w in (spec.omega1, spec.omega2)
        ])
    van = np.array([[float(shells) ** p for p in (0, -2, -3, -4)] for shells in levels])
    return np.linalg.solve(van, np.array(rows))[0]


class TestCyclicConstantOracle:
    """The closed-form cyclic constants against the direct sums of
    `elliptic`, which share nothing with the closed form."""

    @pytest.mark.parametrize("a", [1.0, 246.0])
    def test_delta_matches_direct_zeta(self, a):
        # delta_j = 2 zeta(omega_j/2); the six-fold ring truncation of the
        # direct sum converges like shells^-4 (gap 1.9e-11 at 128 rings)
        spec = lattice.build_lattice(a, 1, 1)
        sums = lattice.compute_lattice_sums(spec, s_max=9, shells=16)
        for w, delta_j in ((spec.omega1, sums.delta1), (spec.omega2, sums.delta2)):
            direct = 2 * elliptic.zeta_direct(w / 2, spec, shells=128)
            assert abs(delta_j - direct) < 1e-10 * abs(direct)
            assert sums.delta == pytest.approx(np.real(np.conj(direct) / w), rel=1e-10)

    @pytest.mark.parametrize("a", [1.0, 246.0])
    def test_gamma_matches_extrapolated_direct(self, a):
        # the direct defects converge only like shells^-2 (3.7e-9 and 6.9e-9
        # after extrapolation); the bound is that of test_gamma_defects_vanish
        spec = lattice.build_lattice(a, 1, 1)
        sums = lattice.compute_lattice_sums(spec, s_max=9, shells=16)
        gamma = _extrapolated_gammas(spec)
        assert abs(gamma[0] - sums.gamma1) * a < 1e-7
        assert abs(gamma[1] - sums.gamma2) * a < 1e-7
