"""The detector's rank-first path and its fallback, and the Slater-rank certificate.

detect_emergent_particles runs at most N steps of pivoted Cholesky on the
projected state, with the 1-RDM never formed.  When the residual trace
falls to TAU_RANK, the spectrum and the occupied orbitals come from the
eigh of a k x k Gram matrix (k <= N), and no d x d matrix is built; any
other state goes through the 1-RDM, eigvalsh and the full natural_orbitals.
Both paths are held to the reference pipeline of
test_emergence_equivalence and to the closed-form occupation report, at
sizes beyond those two files compare.  slater_rank_two_fermions counts
from two Cholesky steps when Weyl's inequality settles the count, or, at
even d, from one Cholesky of w w^dagger less a shift that certifies full
rank, and must then give the full SVD's count.
"""

import tracemalloc

import numpy as np
import pytest

from identicals import (
    LabeledState,
    cli,
    emergence,
    exchange,
    inner_product,
    slater_rank_two_fermions,
    symmetrized_product,
)
from identicals.counting import Verdict, occupation_report, parse_symbol
from identicals.emergence import SLATER_SV_THRESHOLD, TAU_RANK
from identicals.fock import occupation_to_labeled
from identicals.states import OneParticleBasis

from conftest import random_sector_state, random_unitary

from test_emergence_equivalence import (
    ANTI,
    KIND_SECTORS,
    SYM,
    assert_same_report,
    condensate,
    make_state,
    reference_detect,
    slater,
)
from test_occupation_report import dense_report, symbols


def spy_on_solver(monkeypatch, name="eigh") -> list[tuple[int, ...]]:
    """Record the shape of every matrix np.linalg.<name> is called on."""
    shapes = []
    solver = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return shapes


@pytest.mark.parametrize("d,n", [(64, 2), (16, 3)])
@pytest.mark.parametrize("kind", ["slater", "condensate"])
def test_a_rank_r_state_runs_no_eigh_larger_than_n_by_n(monkeypatch, kind, d, n):
    rng = np.random.default_rng(10 * d + n)
    if kind == "slater":
        sector, state, verdict = ANTI, slater(rng, d, n), Verdict.PARTICLE_DECOMPOSITION
    else:
        # occupations (2) and (2, 1): a non-degenerate occupied spectrum
        occupations = [2] if n == 2 else [2, 1]
        sector, state, verdict = SYM, condensate(rng, d, occupations), Verdict.CONDENSED_OBJECT
    shapes = spy_on_solver(monkeypatch)
    report = emergence.detect_emergent_particles(state, sector)
    assert report.verdict is verdict
    assert shapes and all(max(shape) <= n for shape in shapes), shapes
    monkeypatch.undo()
    assert_same_report(state, sector)


def test_a_state_not_of_its_occupations_rank_keeps_the_natural_orbital_fidelity(monkeypatch):
    state = make_state("superposition", 2, 2, SYM, np.random.default_rng(1))
    verdict, _, fidelity, spectrum = reference_detect(state, SYM)
    # occupations (2, 0) pass the screen, but the unoccupied eigenvalue is no rounding error
    assert [round(2 * lam) for lam in spectrum] == [2, 0]
    assert spectrum[1] > TAU_RANK
    shapes = spy_on_solver(monkeypatch)
    report = emergence.detect_emergent_particles(state, SYM)
    assert shapes == [(2, 2)]
    assert report.verdict is verdict is Verdict.NO_PARTICLE_DECOMPOSITION
    assert report.fidelity == pytest.approx(fidelity, rel=0, abs=1e-12)
    assert report.fidelity == pytest.approx(0.98133, rel=0, abs=1e-5)
    monkeypatch.undo()
    assert_same_report(state, SYM)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [8, 16, 24])
@pytest.mark.parametrize("kind,sector", KIND_SECTORS, ids=[f"{k}-{s.value}" for k, s in KIND_SECTORS])
def test_larger_states_match_the_reference(kind, sector, d, n):
    rng = np.random.default_rng(1000 * d + 10 * n + KIND_SECTORS.index((kind, sector)))
    for _ in range(2):
        assert_same_report(make_state(kind, d, n, sector, rng), sector)


@pytest.mark.parametrize("sector", [SYM, ANTI], ids=["symmetric", "antisymmetric"])
def test_every_symbol_at_larger_sizes_matches_the_dense_report(sector):
    compared = 0
    for d, n in [(16, 3), (8, 4)]:
        for text in symbols(d, n, sector):
            cfg = {"symbol": text, "d": d, "sector": sector.value}
            assert cli.cmd_analyze(cfg, "json") == dense_report(text, d, sector), cfg
            compared += 1
    assert compared == {SYM: 816 + 330, ANTI: 560 + 70}[sector]


@pytest.mark.parametrize(
    "text,d,sector",
    [
        ("f_{e1e2e5e5}", 8, SYM),
        ("f_{e4e4e7e7}", 8, SYM),
        ("f_{e2e9e9}", 16, SYM),
        ("f_{e3e7e16}", 16, ANTI),
        ("f_{e1e3e6e8}", 8, ANTI),
    ],
)
def test_degenerate_symbols_have_exact_unit_vector_orbitals(text, d, sector):
    occ = parse_symbol(text, d, sector)
    state = occupation_to_labeled(occ, OneParticleBasis.default(d))
    report = emergence.detect_emergent_particles(state, sector)
    want = occupation_report(occ)
    assert report.verdict is want.verdict
    assert [n_i for _, n_i in report.defining_states] == [n_m for _, n_m in want.defining_states]
    for (vec, _), (m, _) in zip(report.defining_states, want.defining_states):
        assert np.array_equal(vec, np.eye(d)[m])


# ------------------------------------------------ rank-first path against the full path


def embedded_state(rng, d, n, sector, k):
    """A random sector state on a random k-dimensional one-particle subspace, and its basis u."""
    u = random_unitary(rng, d)[:, :k]
    psi = random_sector_state(rng, k, n, sector).amplitudes.reshape((k,) * n)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [axis])), 0, axis)
    return LabeledState(n, OneParticleBasis.default(d), psi.reshape(-1)), u


def planted_state(rng, d, n, sector, tail):
    """A rank-N sector state plus a component adding `tail` to its 1-RDM past rank N.

    The component is a product of orbitals orthogonal to the state's, so no
    cross term reaches the 1-RDM: one eigenvalue `tail` for bosons (the
    orbital N times), N eigenvalues tail / N for fermions (N orbitals; a
    fermion 1-RDM cannot have rank N + 1).
    """
    base, u = embedded_state(rng, d, n, sector, n)
    z = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
    outside = np.linalg.qr(np.hstack([u, z]))[0][:, n:].T
    factors = [outside[0]] * n if sector is SYM else list(outside)
    extra = symmetrized_product(factors, sector, base.basis).amplitudes
    amps = np.sqrt(1 - tail) * base.amplitudes + np.sqrt(tail) * extra
    return LabeledState(n, base.basis, amps / np.linalg.norm(amps))


def assert_matches_the_full_path(monkeypatch, state, sector, rank_first, spectrum_tol=1e-14):
    """The report against reference_detect, and which path produced it."""
    verdict, defining, fidelity, spectrum = reference_detect(state, sector)
    full = spy_on_solver(monkeypatch, "eigvalsh")
    report = emergence.detect_emergent_particles(state, sector)
    monkeypatch.undo()
    assert (not full) == rank_first
    assert report.verdict is verdict
    np.testing.assert_allclose(report.natural_spectrum, spectrum, rtol=0, atol=spectrum_tol)
    assert report.fidelity == pytest.approx(fidelity, rel=0, abs=1e-12)
    assert [n_i for _, n_i in report.defining_states] == [n_i for _, n_i in defining]
    if report.defining_states:
        factors = [vec for vec, n_i in report.defining_states for _ in range(n_i)]
        rebuilt = symmetrized_product(factors, sector, state.basis)
        assert abs(inner_product(state, rebuilt)) ** 2 == pytest.approx(report.fidelity, abs=1e-12)


@pytest.mark.parametrize("d,n", [(4, 2), (8, 2), (5, 3), (8, 3), (6, 4), (8, 4)])
@pytest.mark.parametrize("sector", [SYM, ANTI], ids=["symmetric", "antisymmetric"])
def test_rank_first_matches_the_full_path_at_every_rank(monkeypatch, sector, d, n):
    rng = np.random.default_rng(100 * d + n)
    # fermions need k >= N orbitals; on N + 1 of them they are one Slater determinant
    ranks = range(1, n + 2) if sector is SYM else range(n, n + 3)
    for k in (k for k in ranks if k <= d):
        for _ in range(3):
            state, _ = embedded_state(rng, d, n, sector, k)
            rank = k if sector is SYM or k != n + 1 else n
            assert_matches_the_full_path(monkeypatch, state, sector, rank_first=rank <= n)


@pytest.mark.parametrize("tail", [1e-14, 1e-12])
@pytest.mark.parametrize("d,n", [(4, 2), (6, 3), (8, 4)])
@pytest.mark.parametrize("sector", [SYM, ANTI], ids=["symmetric", "antisymmetric"])
def test_a_planted_tail_takes_the_path_its_size_calls_for(monkeypatch, sector, d, n, tail):
    rng = np.random.default_rng(int(1e3 * d + n + 1e15 * tail))
    for _ in range(3):
        state = planted_state(rng, d, n, sector, tail)
        rank_first = tail <= TAU_RANK
        # the rank-first spectrum is off by at most the Cholesky residual it
        # drops: a trace of a few times the tail, never past TAU_RANK
        tol = TAU_RANK if rank_first else 1e-14
        assert_matches_the_full_path(monkeypatch, state, sector, rank_first, tol)


def test_the_rank_first_path_allocates_no_state_sized_buffer():
    rng = np.random.default_rng(7)
    state = slater(rng, 64, 2)
    state_bytes = state.amplitudes.nbytes
    emergence.detect_emergent_particles(state, ANTI)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    projection = peak(lambda: exchange._sector_projection(state, ANTI))
    detection = peak(lambda: emergence.detect_emergent_particles(state, ANTI))
    # the projection's own buffers set the peak; the rest is O(d N)
    assert detection - projection < state_bytes // 4, (detection, projection)


# ------------------------------------------------ the Slater-rank certificate


def full_svd_rank(state):
    d = state.basis.dim
    sv = np.linalg.svd(state.amplitudes.reshape(d, d), compute_uv=False)
    return int(np.count_nonzero(sv > SLATER_SV_THRESHOLD)) // 2


def slater_sum(rng, d, weights):
    """sum_i weights[i] A|a_i b_i> over orthonormal a_i, b_i: Slater rank len(weights)."""
    basis = OneParticleBasis.default(d)
    orbitals = random_unitary(rng, d)[:, : 2 * len(weights)].T
    amps = sum(
        w * symmetrized_product([orbitals[2 * i], orbitals[2 * i + 1]], ANTI, basis).amplitudes
        for i, w in enumerate(weights)
    )
    return LabeledState(2, basis, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("d", [6, 12, 64])
def test_slater_rank_is_the_full_svd_count(monkeypatch, rank, d):
    rng = np.random.default_rng(10 * d + rank)
    for _ in range(3):
        state = slater_sum(rng, d, rng.uniform(0.3, 1.0, rank))
        svd = spy_on_solver(monkeypatch, "svd")
        got = slater_rank_two_fermions(state)
        monkeypatch.undo()
        # a single Slater determinant, and a full-rank state, are counted without the SVD
        assert (svd == []) == (rank in (1, d // 2))
        assert got == full_svd_rank(state) == rank


@pytest.mark.parametrize("side,want", [(1 + 1e-6, 2), (1 - 1e-6, 1)])
def test_a_singular_pair_at_the_threshold_falls_back_to_the_svd(monkeypatch, side, want):
    # w's second pair of singular values is weight / sqrt(2) = 1e-9 (1 +- 1e-6)
    weight = np.sqrt(2) * SLATER_SV_THRESHOLD * side
    state = slater_sum(np.random.default_rng(5), 8, [np.sqrt(1 - weight ** 2), weight])
    svd = spy_on_solver(monkeypatch, "svd")
    rank = slater_rank_two_fermions(state)
    monkeypatch.undo()
    assert svd == [(8, 8)]
    assert rank == full_svd_rank(state) == want


@pytest.mark.parametrize("d", [4, 6, 64, 256])
def test_a_random_antisymmetric_state_is_certified_full_rank_without_the_svd(monkeypatch, d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        state = random_sector_state(rng, d, 2, ANTI)
        svd = spy_on_solver(monkeypatch, "svd")
        chol = spy_on_solver(monkeypatch, "cholesky")
        rank = slater_rank_two_fermions(state)
        monkeypatch.undo()
        assert svd == [] and chol == [(d, d)]
        assert rank == full_svd_rank(state) == d // 2


@pytest.mark.parametrize("d", [5, 7])
def test_odd_d_never_runs_the_full_rank_certificate(monkeypatch, d):
    # an antisymmetric matrix of odd size is singular
    rng = np.random.default_rng(d)
    for state in [random_sector_state(rng, d, 2, ANTI), slater_sum(rng, d, [0.8, 0.6])]:
        chol = spy_on_solver(monkeypatch, "cholesky")
        svd = spy_on_solver(monkeypatch, "svd")
        rank = slater_rank_two_fermions(state)
        monkeypatch.undo()
        assert chol == [] and svd == [(d, d)]
        assert rank == full_svd_rank(state)


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("side", [1 + 1e-6, 1 - 1e-6])
def test_a_full_rank_state_with_a_pair_at_the_threshold_falls_back_to_the_svd(
    monkeypatch, d, side
):
    # the last pair of singular values is weight / sqrt(2) = 1e-9 (1 +- 1e-6)
    rng = np.random.default_rng(d)
    weights = rng.uniform(0.3, 1.0, d // 2)
    weights[-1] = 0.0
    weights *= np.sqrt(1 - 2 * (SLATER_SV_THRESHOLD * side) ** 2) / np.linalg.norm(weights)
    weights[-1] = np.sqrt(2) * SLATER_SV_THRESHOLD * side
    state = slater_sum(rng, d, weights)
    chol = spy_on_solver(monkeypatch, "cholesky")
    svd = spy_on_solver(monkeypatch, "svd")
    rank = slater_rank_two_fermions(state)
    monkeypatch.undo()
    assert chol == [(d, d)] and svd == [(d, d)]
    assert rank == full_svd_rank(state) == (d // 2 if side > 1 else d // 2 - 1)


def test_a_slater_pair_runs_no_d_by_d_eigensolve_or_svd(monkeypatch):
    state = slater(np.random.default_rng(256), 256, 2)
    shapes = {name: spy_on_solver(monkeypatch, name) for name in ("eigh", "eigvalsh", "svd")}
    report = emergence.detect_emergent_particles(state, ANTI)
    rank = slater_rank_two_fermions(state)
    assert report.verdict is Verdict.PARTICLE_DECOMPOSITION and rank == 1
    assert shapes["eigvalsh"] == shapes["svd"] == []
    assert shapes["eigh"] and all(max(shape) <= 2 for shape in shapes["eigh"])
