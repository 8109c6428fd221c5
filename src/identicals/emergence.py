"""Deciding whether a sector state describes individual particles.

A state of N identical particles either decomposes into N singly occupied
orthogonal one-particle states (individual particles), puts two or more
excitations into one mode (a single undifferentiated object), or admits no
such decomposition at all.  The candidate one-particle states are the
eigenvectors of the one-particle reduced density matrix.

One detection projects the state onto its sector once.  Every slot of a
sector state has the same reduced density matrix, so slot 0 gives it.  Its
spectrum comes from eigvalsh, and the occupations are read off it; only the
r <= N occupied orbitals are then needed.  When the eigenvalues past the r
occupied ones sum to at most TAU_RANK, the 1-RDM is rank r and those
orbitals come from r steps of pivoted Cholesky and the eigh of an r x r
Gram matrix, with no d x d eigenvectors; any other state falls back to the
full natural_orbitals.  The candidate (anti)symmetrized product of the
natural orbitals is never built: for orthonormal orbitals phi_i with
occupations n_i its fidelity with the state is the closed form
|<phi_1 x ... x phi_N | P psi>|^2 N! / prod n_i!, N contractions of the
projection with one orbital each.

An occupation state needs none of this.  Its 1-RDM is diag(n_m / N), so its
natural orbitals are its modes, its natural spectrum is its occupations
over N, and the state is itself the (anti)symmetrized product of its
occupied modes: fidelity 1.  occupation_report writes that report in closed
form, on the standard library alone; numpy, `exchange` and `states` are
imported inside the functions that use them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .counting import ExchangeSector
from .fock import VACUUM

#: |N*lambda_i - round(N*lambda_i)| must stay below this for a decomposition
DELTA_OCC = 0.05
TAU_FID = 1e-8
SLATER_SV_THRESHOLD = 1e-9
#: a 1-RDM whose eigenvalues past its r occupied ones sum to at most this in
#: absolute value is taken as rank r, its orbitals from r pivoted-Cholesky
#: steps; rounding leaves tails under 4e-16 on rank-r states up to d = 256
TAU_RANK = 1e-13


class Verdict(enum.Enum):
    PARTICLE_DECOMPOSITION = "PARTICLE_DECOMPOSITION"
    CONDENSED_OBJECT = "CONDENSED_OBJECT"
    NO_PARTICLE_DECOMPOSITION = "NO_PARTICLE_DECOMPOSITION"


@dataclass(frozen=True)
class EmergenceReport:
    """A verdict, the defining one-particle states with their occupations, and evidence.

    A defining state is a vector over the modes, or, in occupation_report,
    the 0-based index m of the mode's unit vector e_m.
    """

    verdict: Verdict
    defining_states: list[tuple[np.ndarray | int, int]] = field(default_factory=list)
    fidelity: float = 0.0
    natural_spectrum: list[float] = field(default_factory=list)


def _decomposed(occupations) -> Verdict:
    """The verdict on a state that is the product of orbitals with these occupations."""
    if all(n_i <= 1 for n_i in occupations):
        return Verdict.PARTICLE_DECOMPOSITION
    return Verdict.CONDENSED_OBJECT


def _hermitian(rdm) -> np.ndarray:
    """rdm as a complex array, or ValueError if it is not Hermitian to TAU_PSD."""
    import numpy as np

    from .states import TAU_PSD

    rdm = np.asarray(rdm, dtype=complex)
    herm_dev = np.max(np.abs(rdm - rdm.conj().T))
    if herm_dev > TAU_PSD:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3g})")
    return rdm


def _ordered(evals: np.ndarray, vecs: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs from descending eigenvalues and their eigenvectors as rows.

    Each vector's phase is fixed in place (first significant component real
    positive); eigenvalues equal to 1e-9 are ordered by the flat index of
    that component.
    """
    import numpy as np

    from .states import fix_phase

    fix_phase(vecs)
    lead = np.argmax(np.abs(vecs) > 1e-9, axis=1)
    order = np.lexsort((lead, -np.round(evals / 1e-9)))
    return [(float(evals[i]), vecs[i]) for i in order]


def natural_orbitals(rdm: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a one-particle reduced density matrix, eigenvalue-descending.

    All d eigenpairs, from one full eigh.  Eigenvector phases are fixed
    (first significant component real positive); degenerate eigenvalues are
    ordered by the flat index of that component.  detect_emergent_particles
    calls this only for a 1-RDM that is not of the rank its occupations
    claim; otherwise it needs the occupied orbitals alone.
    """
    import numpy as np

    evals, evecs = np.linalg.eigh(_hermitian(rdm))
    return _ordered(evals[::-1], evecs.T[::-1])


def _occupied_orbitals(rdm: np.ndarray, r: int) -> list[tuple[float, np.ndarray]]:
    """The r eigenpairs of nonzero eigenvalue of a rank-r 1-RDM, as natural_orbitals orders them.

    r steps of pivoted Cholesky (pivot: the largest residual diagonal, the
    first on ties) give rdm = L L^dagger with L d x r; the eigh of the r x r
    Gram matrix L^dagger L = U diag(lam) U^dagger then gives the orbitals
    L U lam^(-1/2).  An exactly diagonal rdm has scaled unit vectors for
    columns of L and a diagonal Gram matrix, so its orbitals are exact unit
    vectors.
    """
    import numpy as np

    chol = np.zeros((len(rdm), r), dtype=complex)
    residual = rdm.diagonal().real.copy()
    for k in range(r):
        p = int(np.argmax(residual))
        chol[:, k] = (rdm[:, p] - chol[:, :k] @ chol[p, :k].conj()) / math.sqrt(residual[p])
        residual -= np.abs(chol[:, k]) ** 2
    lam, u = np.linalg.eigh(chol.conj().T @ chol)
    vecs = (chol @ u / np.sqrt(lam)).T
    return _ordered(lam[::-1], vecs[::-1])


def detect_emergent_particles(
    state: LabeledState, sector: ExchangeSector
) -> EmergenceReport:
    """Classify a sector state and extract its defining one-particle states."""
    import numpy as np

    from . import exchange

    projected = exchange._sector_projection(state, sector)
    if projected is None:
        raise ValueError(f"state is not in the {sector.value} sector")
    n, d = state.n_slots, state.basis.dim
    slot = projected.reshape(d, -1)
    rdm = _hermitian(slot @ slot.conj().T)
    spectrum = np.linalg.eigvalsh(rdm)[::-1].tolist()

    occupations = []
    for lam in spectrum:
        n_i = int(round(n * lam))
        if abs(n * lam - n_i) > DELTA_OCC:
            return EmergenceReport(
                Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum
            )
        occupations.append(n_i)
    if sum(occupations) != n:
        return EmergenceReport(Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum)

    # the spectrum descends, so the r occupied orbitals come first
    r = sum(n_i > 0 for n_i in occupations)
    if abs(sum(spectrum[r:])) <= TAU_RANK:
        orbitals = _occupied_orbitals(rdm, r)
    else:
        # not of rank r, so its fidelity is at most 1 - tail: reported as the
        # full eigendecomposition gives it
        orbitals = natural_orbitals(rdm)[:r]

    # |<psi|cand>|^2 without building cand = P(x)phi / |P(x)phi|: for
    # orthonormal phi_i, <psi|P(x)phi> = <P psi|(x)phi> and |P(x)phi|^2 = prod n_i! / N!
    overlap = projected
    for (_, vec), n_i in zip(orbitals, occupations):
        for _ in range(n_i):
            overlap = vec.conj() @ overlap.reshape(d, -1)
    multinomial = math.factorial(n) // math.prod(map(math.factorial, occupations))
    fidelity = abs(overlap.item()) ** 2 * multinomial
    if fidelity < 1.0 - TAU_FID:
        return EmergenceReport(
            Verdict.NO_PARTICLE_DECOMPOSITION, [], fidelity, spectrum
        )
    defining = [(vec, n_i) for (_, vec), n_i in zip(orbitals, occupations)]
    return EmergenceReport(_decomposed(occupations), defining, fidelity, spectrum)


def occupation_report(occ: OccupationState) -> EmergenceReport:
    """The report of detect_emergent_particles on an occupation state, in closed form.

    The defining states are the occupied modes m, ordered by (-n_m, m); the
    natural spectrum is n_m / N in that order, then a 0 per empty mode; the
    fidelity is exactly 1.  No labeled state is built.
    """
    n = occ.total
    if n == 0:
        raise ValueError(VACUUM)
    occupied = sorted(
        ((m, n_m) for m, n_m in enumerate(occ.occupations) if n_m), key=lambda t: -t[1]
    )
    spectrum = [n_m / n for _, n_m in occupied]
    spectrum += [0.0] * (occ.n_modes - len(occupied))
    return EmergenceReport(
        _decomposed(n_m for _, n_m in occupied), occupied, 1.0, spectrum
    )


def slater_rank_two_fermions(state: LabeledState) -> int:
    """Number of antisymmetrized product terms needed for a two-fermion state.

    Rank 1 means the state is a single Slater determinant, i.e. two
    individual, perfectly distinguishable particles.
    """
    import numpy as np

    from . import exchange

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
    import numpy as np

    from .states import TAU_ORTH, check_unitary

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
