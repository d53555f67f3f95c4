"""Shared fixtures: one set of lattice sums serves the whole session."""

import numpy as np
import pytest

from hexlat import lattice, solver

A = 1.0
LAM = 0.2
K = 16


@pytest.fixture(scope="session")
def spec():
    return lattice.build_lattice(A, 1, 1)


@pytest.fixture(scope="session")
def sums(spec):
    return lattice.compute_lattice_sums(spec, s_max=40, shells=64)


@pytest.fixture(scope="session")
def tables(sums):
    return solver.series_tables(sums, LAM, K)


@pytest.fixture(scope="session")
def solved(spec, tables):
    """One representative solved load case (sigma1=2, sigma2=1, alpha=pi/8)."""
    load = solver.LoadCase(2.0, 1.0, np.pi / 8)
    prob = solver.ProblemSpec(spec, LAM, load, K)
    coeffs = solver.solve_coefficients(prob, tables)
    return prob, coeffs


@pytest.fixture(scope="session")
def unit_sets(spec, sums):
    return solver.unit_load_coefficients(spec, LAM, K=K, sums=sums)
