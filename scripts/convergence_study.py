#!/usr/bin/env python3
"""Truncation study: how K and the lattice-sum ring count move the answers.

Prints the bond moduli at lambda = a/5, nu_eff = 0.3 and a probe stress
for a ladder of truncation orders K and ring counts, with the drift
against the finest level.  Per ring count it also prints the relative gap
between the direct sum 2*zeta(omega1/2) over that many rings and the
closed-form cyclic constant delta1.
"""

import numpy as np

from hexlat import elliptic, fields, homogenize, lattice, solver
from hexlat.errors import ConsistencyError


def moduli_at(spec, sums, K):
    data = homogenize.homogenization_data(spec, spec.a / 5, K=K, sums=sums)
    return homogenize.bond_from_effective(1.0, 0.3, data)


def probe_stress(spec, sums, K):
    load = solver.LoadCase(2.0, 1.0, np.pi / 8)
    tables = solver.series_tables(sums, spec.a / 5, K)
    prob = solver.ProblemSpec(spec, spec.a / 5, load, K)
    coeffs = solver.solve_coefficients(prob, tables)
    f = fields.total_stress(0.31, 0.7, prob, coeffs, tables)
    return f.sigma_theta


def main():
    spec = lattice.build_lattice(1.0, 1, 1)
    print("== truncation order K (shells = 64) ==")
    sums = lattice.compute_lattice_sums(spec, s_max=60, shells=64)
    for K in (6, 8, 12, 16, 20, 24):
        try:
            E, nu = moduli_at(spec, sums, K)
            st = probe_stress(spec, sums, K)
        except ConsistencyError as exc:
            print(f"K={K:3d}: rejected by the boundary-residual arbiter ({exc})")
            continue
        print(f"K={K:3d}: E/E0={E:.10f} nu={nu:.10f} sigma_theta={st:.10f}")
    print()
    print("== ring count (K = 16) ==")
    for shells in (16, 32, 64, 128):
        s = lattice.compute_lattice_sums(spec, s_max=40, shells=shells)
        E, nu = moduli_at(spec, s, 16)
        # truncation of the direct zeta sum against the closed-form delta1
        zeta_gap = abs(2 * elliptic.zeta_direct(spec.omega1 / 2, spec, shells) - s.delta1) / abs(
            s.delta1
        )
        print(
            f"shells={shells:4d}: E/E0={E:.10f} nu={nu:.10f} "
            f"zeta_gap={zeta_gap:.2e} tail={s.tail:.2e}"
        )


if __name__ == "__main__":
    main()
