"""Laurent evaluators against the direct-sum oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexlat import elliptic, errors, lattice


@pytest.fixture(scope="module")
def ev(sums):
    return elliptic.make_evaluator(sums)


def _annulus_points(ev, n, seed=7):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1 * ev.sums.spec.a, ev.r_max, n)
    th = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.exp(1j * th)


class TestWp:
    def test_derivatives_match_direct(self, ev, spec):
        for z in _annulus_points(ev, 12):
            for k in range(5):
                lau = elliptic.wp_deriv(z, k, ev)
                direct = elliptic.wp_deriv_direct(z, k, spec)
                scale = max(abs(direct), abs(z) ** (-(k + 2)))
                assert abs(lau - direct) < 1e-8 * scale, (z, k)

    def test_evenness(self, ev):
        for z in _annulus_points(ev, 6, seed=1):
            assert elliptic.wp_deriv(z, 0, ev) == pytest.approx(
                elliptic.wp_deriv(-z, 0, ev), rel=1e-12
            )

    def test_differential_equation(self, ev, sums):
        # (p')^2 = 4 p^3 - g2 p - g3
        for z in _annulus_points(ev, 6, seed=3):
            p = elliptic.wp_deriv(z, 0, ev)
            dp = elliptic.wp_deriv(z, 1, ev)
            lhs = dp**2
            rhs = 4 * p**3 - sums.g2 * p - sums.g3
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs), 1.0)

    def test_pole_rejected(self, ev, spec):
        with pytest.raises(errors.PoleError):
            elliptic.wp_deriv_direct(0.0, 0, spec)

    def test_annulus_enforced(self, ev):
        with pytest.raises(errors.DomainError):
            elliptic.wp_deriv(0.49 * ev.sums.spec.a, 0, ev)


class TestZeta:
    def test_matches_direct(self, ev, spec):
        for z in _annulus_points(ev, 8, seed=5):
            lau = elliptic.zeta_fn(z, ev)
            direct = elliptic.zeta_direct(z, spec)
            assert abs(lau - direct) < 1e-8 * max(abs(direct), 1.0)

    def test_quasi_periodicity(self, ev, sums):
        z = 0.11 + 0.07j
        for m, n, d in ((1, 0, sums.delta1), (0, 1, sums.delta2), (1, 1, sums.delta1 + sums.delta2)):
            w = m * sums.spec.omega1 + n * sums.spec.omega2
            jump = elliptic.zeta_fn(z + w, ev) - elliptic.zeta_fn(z, ev)
            assert abs(jump - d) < 1e-9

    def test_oddness(self, ev):
        z = 0.13 - 0.21j
        assert elliptic.zeta_fn(z, ev) == pytest.approx(-elliptic.zeta_fn(-z, ev), rel=1e-12)


class TestNatanzon:
    def test_derivatives_match_direct(self, ev, spec):
        for z in _annulus_points(ev, 12, seed=9):
            for k in range(4):
                lau = elliptic.natanzon_deriv(z, k, ev)
                direct = elliptic.natanzon_deriv_direct(z, k, spec)
                scale = max(abs(direct), 1.0)
                assert abs(lau - direct) < 1e-8 * scale, (z, k)

    def test_vanishes_at_origin_limit(self, ev):
        # N(z) -> 0 as z -> 0 (holomorphic with N(0) = 0)
        for r in (0.05, 0.02, 0.01):
            v = elliptic.natanzon_deriv(r * np.exp(0.4j), 0, ev)
            assert abs(v) < 10 * r  # linear vanishing

    def test_quasi_period_defect_is_wp(self, ev, spec, sums):
        # N(z + w) - N(z) = conj(w) * p(z) + gamma_j, gamma_j ~ 0
        z = 0.12 + 0.18j
        w = spec.omega1
        lhs = elliptic.natanzon_deriv_direct(z + w, 0, spec, shells=96) - elliptic.natanzon_deriv_direct(
            z, 0, spec, shells=96
        )
        rhs = np.conj(w) * elliptic.wp_deriv_direct(z, 0, spec, shells=96)
        assert abs(lhs - rhs) < 5e-4  # direct sums converge slowly for this defect


class TestFolding:
    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_fold_lands_in_cell(self, spec, x, y):
        z = complex(x, y)
        z0, m, n = elliptic.fold_point(z, spec)
        w = m * spec.omega1 + n * spec.omega2
        assert abs(z - w - z0) < 1e-12
        # representative no farther than any neighboring translate
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                wn = (m + dm) * spec.omega1 + (n + dn) * spec.omega2
                assert abs(z0) <= abs(z - wn) + 1e-9

    def test_origin(self, spec):
        z0, m, n = elliptic.fold_point(0j, spec)
        assert (m, n) == (0, 0) and z0 == 0j

    def test_array_fold_matches_brute_force(self, spec):
        a, w1, w2 = spec.a, spec.omega1, spec.omega2
        # exact ties: origin, edge midpoints, cell vertex; then their translates
        ties = [0j, w1 / 2, -w1 / 2, (w1 + w2) / 3, a / 2, -a / 2, 0.5j * a, -0.5j * a]
        shifted = [t + m * w1 + n * w2 for t in ties for m in (-2, 1) for n in (-1, 2)]
        rng = np.random.default_rng(17)
        rand = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        near = _near_voronoi_boundary(spec)
        z = np.array(ties + shifted + list(rand) + near)
        z0, m, n = elliptic.fold_point(z, spec)
        for i, zi in enumerate(z):
            ref = _fold_brute_force(zi, spec)
            assert (m[i], n[i]) == ref[1:], zi
            assert z0[i] == ref[0]
            assert elliptic.fold_point(zi, spec) == (z0[i], m[i], n[i])

    def test_scalar_and_shaped_returns(self, spec):
        z0, m, n = elliptic.fold_point(1.3 - 0.4j, spec)
        assert type(z0) is complex and type(m) is int and type(n) is int
        grid = np.array([[0.1, 1.3 - 0.4j], [2.0j, -1.7]])
        z0s, ms, ns = elliptic.fold_point(grid, spec)
        assert z0s.shape == ms.shape == ns.shape == grid.shape
        assert elliptic.fold_point(grid[0, 1], spec) == (z0s[0, 1], ms[0, 1], ns[0, 1])

    @pytest.mark.parametrize("a", [1e200, 1e-200])
    def test_extreme_lattice_constant(self, spec, a):
        # the cell coordinates are formed in units of a, so a^2 never appears
        big = lattice.build_lattice(a, 1, 1)
        z = np.array([3.0 + 1.0j, -0.2 + 2.9j, 0.25j])
        z0, m, n = elliptic.fold_point(z * a, big)
        z0_unit, m_unit, n_unit = elliptic.fold_point(z, spec)
        assert np.array_equal(m, m_unit) and np.array_equal(n, n_unit)
        assert np.allclose(z0 / a, z0_unit, rtol=0, atol=1e-14)
        for i, zi in enumerate(z * a):
            assert elliptic.fold_point(complex(zi), big)[1:] == (m[i], n[i])

    def test_non_finite_rejected(self, spec):
        for bad in (complex(np.nan, 0.0), np.array([0.1, np.inf])):
            with pytest.raises(errors.DomainError):
                elliptic.fold_point(bad, spec)


def _near_voronoi_boundary(spec):
    """Points within 1e-13 a of the Voronoi edges and vertices of the
    cell around the origin, and of one translate of that cell."""
    a, w1, w2 = spec.a, spec.omega1, spec.omega2
    eps = (1e-13, -1e-13, 3e-14, -4e-15)
    pts = []
    for k in range(6):
        mid = 0.5j * a * np.exp(1j * np.pi / 3 * k)  # edge midpoint, normal direction mid/|mid|
        normal, tangent = mid / abs(mid), 1j * mid / abs(mid)
        half = a / (2 * np.sqrt(3))  # half the edge length
        for t in (-0.999999, -0.5, 0.0, 0.37, 0.999999):
            pts += [mid + t * half * tangent + e * a * normal for e in eps]
        vertex = a / np.sqrt(3) * np.exp(1j * np.pi / 3 * k)
        pts += [vertex + 1e-13 * a * np.exp(1j * (np.pi / 4 * j + 0.1)) for j in range(8)]
    return pts + [p + 2 * w1 - w2 for p in pts]


def _fold_brute_force(z, spec):
    """Nearest translate over a 7x7 window around the fractional
    coordinates, ties broken by (|z0|/a to 12 decimals, m, n)."""
    w1, w2 = spec.omega1, spec.omega2
    u, v = np.linalg.solve([[w1.real, w2.real], [w1.imag, w2.imag]], [z.real, z.imag])
    keys = []
    for m in range(int(round(u)) - 3, int(round(u)) + 4):
        for n in range(int(round(v)) - 3, int(round(v)) + 4):
            z0 = z - m * w1 - n * w2
            keys.append((round(abs(z0) / spec.a, 12), m, n, z0))
    _, m, n, z0 = min(keys, key=lambda k: k[:3])
    return z0, m, n


class TestEvaluatorConstruction:
    def test_adaptive_term_count(self, sums):
        ev = elliptic.make_evaluator(sums)
        assert 4 <= ev.laurent_terms <= sums.s_max

    def test_invalid_annulus(self, sums):
        with pytest.raises(errors.InvalidArgumentError):
            elliptic.EllipticEvaluator(sums=sums, laurent_terms=10, r_min=0.1, r_max=0.6)
