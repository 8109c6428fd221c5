#!/usr/bin/env python3
"""Scan the two-electron joint spatial density as the packets separate.

For each separation, reports the largest exchange (cross) term relative to
the direct density, confirms the exclusion zero on the diagonal, and runs
the emergent-particle detector on the two-fermion state of the same packets
sampled on the same grid: its verdict and 1 - fidelity.
"""

import numpy as np

from identicals import (
    ExchangeSector,
    GaussianPacket,
    OneParticleBasis,
    Verdict,
    detect_emergent_particles,
    joint_spatial_density,
    symmetrized_product,
)
from identicals.emergence import TAU_FID

ANTI = ExchangeSector.ANTISYMMETRIC


def fermion_report(packets, x):
    """The detector's report on the antisymmetrized packets, sampled on x."""
    basis = OneParticleBasis(tuple(f"x{k}" for k in range(len(x))))
    orbitals = [p.amplitudes(x) for p in packets]
    state = symmetrized_product(
        [psi / np.linalg.norm(psi) for psi in orbitals], ANTI, basis
    )
    return detect_emergent_particles(state, ANTI)


def main():
    print(
        f"{'separation/sigma':>16} {'cross_term_max':>16} {'max|rho(x,x)|':>14} "
        f"{'integral':>10} {'fermions':>24} {'1-fidelity':>11}"
    )
    individuals = True
    for sep in np.linspace(0.5, 10.0, 20):
        packets = (GaussianPacket(0.0, 1.0), GaussianPacket(float(sep), 1.0))
        grid = joint_spatial_density(*packets, -6.0, float(sep) + 6.0, 160)
        diag = np.max(np.abs(np.diag(grid.values)))
        report = fermion_report(packets, grid.x)
        individuals &= report.verdict is Verdict.PARTICLE_DECOMPOSITION
        print(
            f"{sep:16.2f} {grid.cross_term_max:16.6e} {diag:14.2e} "
            f"{grid.integral():10.6f} {report.verdict.value:>24} "
            f"{1.0 - report.fidelity:11.1e}"
        )
    print()
    print("The exchange term dies off Gaussianly with separation; the density")
    print("becomes indistinguishable from two independent localized particles.")
    if individuals:
        print("At every separation the detector finds two individual fermions:")
        print(f"PARTICLE_DECOMPOSITION with 1 - fidelity <= TAU_FID = {TAU_FID:g}.")
    else:
        print("The detector does not find two individual fermions at every separation.")


if __name__ == "__main__":
    main()
