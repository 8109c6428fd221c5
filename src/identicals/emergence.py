"""Deciding whether a sector state describes individual particles.

A state of N identical particles either decomposes into N singly occupied
orthogonal one-particle states (individual particles), puts two or more
excitations into one mode (a single undifferentiated object), or admits no
such decomposition at all.  The candidate one-particle states are the
eigenvectors of the one-particle reduced density matrix.

One detection projects the state onto its sector once.  Every slot of a
sector state has the same reduced density matrix gamma = slot slot^dagger,
with slot the projection reshaped to (d, d^(N-1)).  A state of individual
particles has a gamma of rank r <= N, so detection goes rank first: at
most N steps of pivoted Cholesky on slot, one column of gamma each, with
gamma never formed.  When the residual trace falls to TAU_RANK after
k <= N steps, gamma ~ L L^dagger (L d x k), and the eigh of the k x k Gram
matrix L^dagger L gives the spectrum (k eigenvalues, then d - k exact
zeros) and the occupied orbitals; no d x d matrix is built.  Any other
state builds gamma and takes its spectrum from eigvalsh and its orbitals
from the full natural_orbitals.  The occupations are read off the
spectrum.  The candidate (anti)symmetrized product of the natural
orbitals is never built: for orthonormal orbitals phi_i with occupations
n_i its fidelity with the state is the closed form
|<phi_1 x ... x phi_N | P psi>|^2 N! / prod n_i!, N contractions of the
projection with one orbital each.  slater_rank_two_fermions reuses the
same Cholesky steps.

An occupation state needs none of this: counting.occupation_report writes
its report in closed form, without numpy.  The verdicts, the report and
that closed form live in `counting`; this module binds their names too.
"""

from __future__ import annotations

import math

import numpy as np

from . import exchange
from .counting import EmergenceReport, ExchangeSector, Verdict, _decomposed, occupation_report
from .states import TAU_ORTH, TAU_PSD, check_unitary, fix_phase, norm

#: |N*lambda_i - round(N*lambda_i)| must stay below this for a decomposition
DELTA_OCC = 0.05
TAU_FID = 1e-8
SLATER_SV_THRESHOLD = 1e-9
#: a 1-RDM whose pivoted-Cholesky residual trace falls to at most this within
#: N steps is taken as rank k <= N, its spectrum and orbitals from the k x k
#: Gram matrix; rounding leaves residuals under 4e-16 on rank-k states up to
#: d = 256
TAU_RANK = 1e-13


def _ordered(evals: np.ndarray, vecs: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs from descending eigenvalues and their eigenvectors as rows.

    Each vector's phase is fixed in place (first significant component real
    positive); eigenvalues equal to 1e-9 are ordered by the flat index of
    that component.
    """
    fix_phase(vecs)
    lead = np.argmax(np.abs(vecs) > 1e-9, axis=1)
    order = np.lexsort((lead, -np.round(evals / 1e-9)))
    return [(float(evals[i]), vecs[i]) for i in order]


def natural_orbitals(rdm: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a one-particle reduced density matrix, eigenvalue-descending.

    All d eigenpairs, from one full eigh.  Eigenvector phases are fixed
    (first significant component real positive); degenerate eigenvalues are
    ordered by the flat index of that component.  detect_emergent_particles
    calls this only for a 1-RDM of rank above N; otherwise the rank-first
    path gives the occupied orbitals alone.  A non-finite entry is refused
    before the Hermiticity check; a deviation that overflows is refused by it.
    A matrix that is not square is refused before either.
    """
    rdm = np.asarray(rdm, dtype=complex)
    if rdm.ndim != 2 or rdm.shape[0] != rdm.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rdm.shape}")
    if not np.isfinite(rdm).all():
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        herm_dev = np.max(np.abs(rdm - rdm.conj().T))
    if not herm_dev <= TAU_PSD:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_dev:.3g})")
    evals, evecs = np.linalg.eigh(rdm)
    return _ordered(evals[::-1], evecs.T[::-1])


def _pivoted_cholesky(psi: np.ndarray) -> tuple[list[int], np.ndarray] | None:
    """Pivots and L (d x k, k <= N) with gamma ~ L L^dagger for a slot tensor psi, or None.

    gamma = slot slot^dagger is the 1-RDM of psi, slot = psi reshaped to
    (d, d^(N-1)).  Rank-revealing pivoted Cholesky (Harbrecht, Peters &
    Schneider, Appl. Numer. Math. 62, 2012) with gamma never formed: its
    diagonal is the squared row norms of slot, and each step computes the
    one column slot @ slot[p].conj() at the pivot p, the largest residual
    diagonal (the first on ties).  It stops as soon as the residual trace is
    at most TAU_RANK, and returns None if N steps do not get there.  An
    exactly diagonal gamma has scaled unit vectors for columns of L.

    The residual trace after N steps is at least the sum of gamma's
    eigenvalues past the N-th, so it is None at once when the (N+1)-th
    exceeds TAU_RANK.  For any N + 1 columns C of slot, gamma >= C C^dagger,
    so that eigenvalue is at least the smallest one of the Gram matrix
    C^dagger C, itself at least det / trace^N of it.  The columns are the
    adjacent psi[:, 0, 1, ..., N-3, x] for x = N-2..2N-2, nonzero in either
    sector: a dense state far from rank N is refused from (N+1) d
    amplitudes.
    """
    d, n = len(psi), psi.ndim
    slot = psi.reshape(d, -1)
    if n > 1 and d >= 2 * n - 1:
        # the flat column index of (0, 1, ..., N-2); the next N columns raise its last index
        start = sum(t * d ** (n - 2 - t) for t in range(n - 1))
        probe = slot[:, start : start + n + 1]
        gram = probe.conj().T @ probe
        if np.linalg.det(gram).real > TAU_RANK * np.trace(gram).real ** n:
            return None
    residual = norm(slot, rows=True)
    chol = np.zeros((d, n), dtype=complex)
    pivots: list[int] = []
    for k in range(n):
        if residual.sum() <= TAU_RANK:
            return pivots, chol[:, :k]
        p = int(np.argmax(residual))
        pivots.append(p)
        column = slot @ slot[p].conj() - chol[:, :k] @ chol[p, :k].conj()
        chol[:, k] = column / math.sqrt(residual[p])
        residual -= np.abs(chol[:, k]) ** 2
    return (pivots, chol) if residual.sum() <= TAU_RANK else None


def detect_emergent_particles(
    state: LabeledState, sector: ExchangeSector
) -> EmergenceReport:
    """Classify a sector state and extract its defining one-particle states."""
    projected = exchange._sector_projection(state, sector)
    if projected is None:
        raise ValueError(f"state is not in the {sector.value} sector")
    n, d = state.n_slots, state.basis.dim
    found = _pivoted_cholesky(projected)
    if found is not None:
        # gamma = L L^dagger has the nonzero eigenvalues of the k x k Gram
        # matrix L^dagger L = U diag(lam) U^dagger, eigenvectors L U lam^(-1/2)
        chol = found[1]
        lam, u = np.linalg.eigh(chol.conj().T @ chol)
        lam, u = lam[::-1], u[:, ::-1]
        spectrum = lam.tolist() + [0.0] * (d - len(lam))
    else:
        slot = projected.reshape(d, -1)
        # Hermitian by construction; natural_orbitals checks the matrices callers pass
        rdm = slot @ slot.conj().T
        spectrum = np.linalg.eigvalsh(rdm)[::-1].tolist()

    occupations = []
    for lam_i in spectrum:
        n_i = int(round(n * lam_i))
        if abs(n * lam_i - n_i) > DELTA_OCC:
            return EmergenceReport(
                Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum
            )
        occupations.append(n_i)
    if sum(occupations) != n:
        return EmergenceReport(Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum)

    # the spectrum descends, so the r occupied orbitals come first
    r = sum(n_i > 0 for n_i in occupations)
    if found is not None:
        orbitals = _ordered(lam[:r], (chol @ u[:, :r] / np.sqrt(lam[:r])).T)
    else:
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


def slater_rank_two_fermions(state: LabeledState) -> int:
    """Number of antisymmetrized product terms needed for a two-fermion state.

    Rank 1 means the state is a single Slater determinant, i.e. two
    individual, perfectly distinguishable particles.  The rank is half the
    number of singular values above SLATER_SV_THRESHOLD of the d x d
    amplitude matrix w (Schliemann, Cirac, Kus, Lewenstein & Loss, PRA 64,
    022303, 2001).  Two pivoted-Cholesky steps on w w^dagger give Q, an
    orthonormal basis of the pivot rows of w, and w = M Q + R with M = w Q^dagger
    (d x k) and R formed explicitly.  By Weyl's inequality each singular
    value of w is within |R|_F of the same one of M Q, whose nonzero ones
    are M's; M's come from the eigh of its k x k Gram matrix.  When that
    settles every singular value on one side of the threshold, the count is
    the full SVD's.

    Otherwise, at even d, w may have full rank: Cholesky runs once on
    w w^dagger with shift = tau^2 + 4 (d + 2) eps tr(w w^dagger) taken off
    its diagonal in place (tau = SLATER_SV_THRESHOLD, eps the machine
    epsilon).  The rounding of the product and Cholesky's backward error
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5) are
    each within about (d + 1) eps tr of it, so a Cholesky that completes
    puts every sigma^2 of w above tau^2 + 2 (d + 2) eps tr: far above the
    threshold by much more than the SVD's own error, and the count is d / 2.
    An antisymmetric w of odd d is singular and skips the certificate; it,
    and a Cholesky that fails, leave the count to the full SVD.
    """
    if state.n_slots != 2:
        raise ValueError("Slater rank is defined here for two-slot states only")
    if not exchange.is_in_sector(state, ExchangeSector.ANTISYMMETRIC):
        raise ValueError("state is not antisymmetric")
    d = state.basis.dim
    w = state.amplitudes.reshape(d, d)
    found = _pivoted_cholesky(w)
    if found is not None:
        # orthonormal rows spanning the pivot rows of w
        q = np.linalg.qr(w[found[0]].T)[0].T
        m = w @ q.conj().T
        residual = m @ q
        np.subtract(w, residual, out=residual)
        gram = m.conj().T @ m
        sv = np.sqrt(np.clip(np.linalg.eigh(gram)[0], 0.0, None))
        # rounding of the length-d products and of the SVD itself, then of
        # each sigma taken as the square root of a Gram eigenvalue
        eps = d * np.finfo(float).eps
        tail = norm(residual) + eps
        spread = tail + math.sqrt(eps * np.trace(gram).real)
        if tail < SLATER_SV_THRESHOLD and np.all(np.abs(sv - SLATER_SV_THRESHOLD) > spread):
            return int(np.count_nonzero(sv > SLATER_SV_THRESHOLD)) // 2
    if d % 2 == 0:
        # full rank if w w^dagger - shift I is positive definite; shifted in place
        gram = w @ w.conj().T
        shift = SLATER_SV_THRESHOLD ** 2 + 4 * (d + 2) * np.finfo(float).eps * np.trace(gram).real
        gram.flat[:: d + 1] -= shift
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            pass
        else:
            return d // 2
    sv = np.linalg.svd(w, compute_uv=False)
    # singular values of an antisymmetric matrix come in equal pairs
    return int(np.count_nonzero(sv > SLATER_SV_THRESHOLD)) // 2


def genidentity_track(
    initial_states: list[np.ndarray], u: np.ndarray
) -> list[np.ndarray]:
    """Transport pairwise orthogonal one-particle states through a unitary.

    Orthogonality is preserved, so each state keeps tracing out its own
    distinguishable path.  The states must be vectors of one length d, and
    u a d x d unitary.  A state of another shape, or with an entry that is
    not finite, is refused before the orthogonality check.
    """
    vecs = [np.asarray(v, dtype=complex) for v in initial_states]
    if not vecs:
        return []
    shapes = [v.shape for v in vecs]
    if len(shapes[0]) != 1 or shapes.count(shapes[0]) != len(shapes):
        raise ValueError(f"states must be vectors of one length, got shapes {shapes}")
    (d,) = shapes[0]
    for i, v in enumerate(vecs):
        if not np.isfinite(v).all():
            raise ValueError(f"state {i} has an entry that is not finite")
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if not abs(np.vdot(vecs[i], vecs[j])) <= TAU_ORTH:
                raise ValueError(f"states {i} and {j} are not orthogonal")
    u = check_unitary(u, d)
    return [u @ v for v in vecs]
