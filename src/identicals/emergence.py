"""Deciding whether a sector state describes individual particles.

A state of N identical particles either decomposes into N singly occupied
orthogonal one-particle states (individual particles), puts two or more
excitations into one mode (a single undifferentiated object), or admits no
such decomposition at all.  The candidate one-particle states are the
eigenvectors of the one-particle reduced density matrix.

One detection projects the state onto its sector once.  Every slot of a
sector state has the same reduced density matrix, so slot 0 gives it.  The
candidate (anti)symmetrized product of the natural orbitals is never built:
for orthonormal orbitals phi_i with occupations n_i its fidelity with the
state is the closed form |<phi_1 x ... x phi_N | P psi>|^2 N! / prod n_i!,
N contractions of the projection with one orbital each.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import exchange
from .exchange import ExchangeSector
from .states import TAU_ORTH, TAU_PSD, LabeledState, check_unitary, fix_phase

#: |N*lambda_i - round(N*lambda_i)| must stay below this for a decomposition
DELTA_OCC = 0.05
TAU_FID = 1e-8
SLATER_SV_THRESHOLD = 1e-9


class Verdict(enum.Enum):
    PARTICLE_DECOMPOSITION = "PARTICLE_DECOMPOSITION"
    CONDENSED_OBJECT = "CONDENSED_OBJECT"
    NO_PARTICLE_DECOMPOSITION = "NO_PARTICLE_DECOMPOSITION"


@dataclass(frozen=True)
class EmergenceReport:
    verdict: Verdict
    defining_states: list[tuple[np.ndarray, int]] = field(default_factory=list)
    fidelity: float = 0.0
    natural_spectrum: list[float] = field(default_factory=list)


def natural_orbitals(rdm: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a one-particle reduced density matrix, eigenvalue-descending.

    Eigenvector phases are fixed (first significant component real positive);
    degenerate eigenvalues are ordered by the flat index of that component.
    """
    rdm = np.asarray(rdm, dtype=complex)
    herm_dev = np.max(np.abs(rdm - rdm.conj().T))
    if herm_dev > TAU_PSD:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3g})")
    evals, evecs = np.linalg.eigh(rdm)
    evals, vecs = evals[::-1], evecs.T[::-1]
    fix_phase(vecs)
    lead = np.argmax(np.abs(vecs) > 1e-9, axis=1)
    order = np.lexsort((lead, -np.round(evals / 1e-9)))
    return [(float(evals[i]), vecs[i]) for i in order]


def detect_emergent_particles(
    state: LabeledState, sector: ExchangeSector
) -> EmergenceReport:
    """Classify a sector state and extract its defining one-particle states."""
    projected = exchange._sector_projection(state, sector)
    if projected is None:
        raise ValueError(f"state is not in the {sector.value} sector")
    n, d = state.n_slots, state.basis.dim
    slot = projected.reshape(d, -1)
    orbitals = natural_orbitals(slot @ slot.conj().T)
    spectrum = [lam for lam, _ in orbitals]

    occupations = []
    for lam, _ in orbitals:
        n_i = int(round(n * lam))
        if abs(n * lam - n_i) > DELTA_OCC:
            return EmergenceReport(
                Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum
            )
        occupations.append(n_i)
    if sum(occupations) != n:
        return EmergenceReport(Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum)

    # |<psi|cand>|^2 without building cand = P(x)phi / |P(x)phi|: for
    # orthonormal phi_i, <psi|P(x)phi> = <P psi|(x)phi> and |P(x)phi|^2 = prod n_i! / N!
    overlap = projected
    for (lam, vec), n_i in zip(orbitals, occupations):
        for _ in range(n_i):
            overlap = vec.conj() @ overlap.reshape(d, -1)
    multinomial = math.factorial(n) // math.prod(map(math.factorial, occupations))
    fidelity = abs(overlap.item()) ** 2 * multinomial
    defining = [
        (vec, n_i) for (lam, vec), n_i in zip(orbitals, occupations) if n_i > 0
    ]
    if fidelity < 1.0 - TAU_FID:
        return EmergenceReport(
            Verdict.NO_PARTICLE_DECOMPOSITION, [], fidelity, spectrum
        )
    if all(n_i <= 1 for n_i in occupations):
        return EmergenceReport(
            Verdict.PARTICLE_DECOMPOSITION, defining, fidelity, spectrum
        )
    return EmergenceReport(Verdict.CONDENSED_OBJECT, defining, fidelity, spectrum)


def slater_rank_two_fermions(state: LabeledState) -> int:
    """Number of antisymmetrized product terms needed for a two-fermion state.

    Rank 1 means the state is a single Slater determinant, i.e. two
    individual, perfectly distinguishable particles.
    """
    if state.n_slots != 2:
        raise ValueError("Slater rank is defined here for two-slot states only")
    if not exchange.is_in_sector(state, ExchangeSector.ANTISYMMETRIC):
        raise ValueError("state is not antisymmetric")
    d = state.basis.dim
    w = state.amplitudes.reshape(d, d)
    sv = np.linalg.svd(w, compute_uv=False)
    # singular values of an antisymmetric matrix come in equal pairs
    return int(np.count_nonzero(sv > SLATER_SV_THRESHOLD)) // 2


def genidentity_track(
    initial_states: list[np.ndarray], u: np.ndarray
) -> list[np.ndarray]:
    """Transport pairwise orthogonal one-particle states through a unitary.

    Orthogonality is preserved, so each state keeps tracing out its own
    distinguishable path.
    """
    vecs = [np.asarray(v, dtype=complex) for v in initial_states]
    if not vecs:
        return []
    d = vecs[0].shape[0]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if abs(np.vdot(vecs[i], vecs[j])) > TAU_ORTH:
                raise ValueError(f"states {i} and {j} are not orthogonal")
    u = check_unitary(u, d)
    return [u @ v for v in vecs]
