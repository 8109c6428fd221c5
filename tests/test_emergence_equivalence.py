"""The emergent-particle detector against the pipeline it replaced.

The reference below is the detector as first written: a membership test
that builds the projected state, the 1-RDM averaged over all slots, one
phase fix per eigenvector, and the fidelity read off the explicitly built
(anti)symmetrized product of the natural orbitals.  It lives in the tests
only, as the yardstick for the one-projection detector of the package.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from identicals import (
    ExchangeSector,
    LabeledState,
    OneParticleBasis,
    Verdict,
    detect_emergent_particles,
    inner_product,
    is_in_sector,
    natural_orbitals,
    reduce_one_particle,
    symmetrized_product,
    tensor_product,
)
from identicals import exchange, states
from identicals.emergence import DELTA_OCC, TAU_FID
from identicals.exchange import TAU_SECTOR, _project_raw

from conftest import (
    perturbed,
    random_orthonormal_set,
    random_sector_state,
    random_unit_vector,
    random_unitary,
)

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
TOL = 1e-12


def reference_fix_phase(amps):
    """Make the first significant amplitude (flat-index order) real and positive."""
    idx = np.flatnonzero(np.abs(amps) > 1e-12)
    if idx.size == 0:
        return amps
    lead = amps[idx[0]]
    return amps * (abs(lead) / lead)


def reference_natural_orbitals(rdm):
    rdm = np.asarray(rdm, dtype=complex)
    evals, evecs = np.linalg.eigh(rdm)
    pairs = []
    for lam, vec in zip(evals[::-1], evecs.T[::-1]):
        vec = reference_fix_phase(vec.copy())
        lead = int(np.flatnonzero(np.abs(vec) > 1e-9)[0])
        pairs.append((float(lam), vec, lead))
    pairs.sort(key=lambda p: (-round(p[0] / 1e-9), p[2]))
    return [(lam, vec) for lam, vec, _ in pairs]


def reference_detect(state, sector):
    """(verdict, defining states, fidelity, spectrum) by the replaced pipeline."""
    if not is_in_sector(state, sector):
        raise ValueError(f"state is not in the {sector.value} sector")
    n = state.n_slots
    orbitals = reference_natural_orbitals(reduce_one_particle(state))
    spectrum = [lam for lam, _ in orbitals]
    occupations = []
    for lam, _ in orbitals:
        n_i = int(round(n * lam))
        if abs(n * lam - n_i) > DELTA_OCC:
            return Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum
        occupations.append(n_i)
    if sum(occupations) != n:
        return Verdict.NO_PARTICLE_DECOMPOSITION, [], 0.0, spectrum
    factors = [vec for (_, vec), n_i in zip(orbitals, occupations) for _ in range(n_i)]
    candidate = symmetrized_product(factors, sector, state.basis)
    fidelity = abs(inner_product(state, candidate)) ** 2
    defining = [(vec, n_i) for (_, vec), n_i in zip(orbitals, occupations) if n_i > 0]
    if fidelity < 1.0 - TAU_FID:
        return Verdict.NO_PARTICLE_DECOMPOSITION, [], fidelity, spectrum
    if all(n_i <= 1 for n_i in occupations):
        return Verdict.PARTICLE_DECOMPOSITION, defining, fidelity, spectrum
    return Verdict.CONDENSED_OBJECT, defining, fidelity, spectrum


def assert_same_report(state, sector):
    verdict, defining, fidelity, spectrum = reference_detect(state, sector)
    report = detect_emergent_particles(state, sector)
    assert report.verdict is verdict
    np.testing.assert_allclose(report.natural_spectrum, spectrum, rtol=0, atol=TOL)
    assert report.fidelity == pytest.approx(fidelity, rel=0, abs=TOL)
    assert [n_i for _, n_i in report.defining_states] == [n_i for _, n_i in defining]
    # an eigenvector is a function of the matrix only where its eigenvalue is
    # isolated; the two pipelines reduce to matrices equal to rounding only
    lam = np.array(spectrum)
    for k, ((got, _), (want, _)) in enumerate(zip(report.defining_states, defining)):
        if np.all(np.abs(np.delete(lam, k) - lam[k]) > 1e-3):
            np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    return report


#: partitions of N into distinct parts: a non-degenerate occupied spectrum
CONDENSATE_OCCUPATIONS = {1: [[1]], 2: [[2]], 3: [[3], [2, 1]], 4: [[4], [3, 1]]}


def condensate(rng, d, occupations):
    orbitals = random_orthonormal_set(rng, d, len(occupations))
    factors = [v for v, n_i in zip(orbitals, occupations) for _ in range(n_i)]
    return symmetrized_product(factors, SYM, OneParticleBasis.default(d))


def slater(rng, d, n):
    return symmetrized_product(random_orthonormal_set(rng, d, n), ANTI, OneParticleBasis.default(d))


def make_state(kind, d, n, sector, rng):
    basis = OneParticleBasis.default(d)
    if kind == "slater":
        return slater(rng, d, n)
    if kind == "condensate":
        choices = CONDENSATE_OCCUPATIONS[n]
        return condensate(rng, d, choices[rng.integers(len(choices))])
    if kind == "product":
        factors = [random_unit_vector(rng, d) for _ in range(n)]
        return symmetrized_product(factors, sector, basis)
    if kind == "random":
        return random_sector_state(rng, d, n, sector)
    # unequal superposition of two products of the sector's own kind
    make = slater if sector is ANTI else lambda r, dd, nn: condensate(r, dd, [nn])
    theta = rng.uniform(0.2, 0.6)
    amps = math.cos(theta) * make(rng, d, n).amplitudes + math.sin(theta) * make(rng, d, n).amplitudes
    return LabeledState(n, basis, amps / np.linalg.norm(amps))


# Slater determinants are antisymmetric; condensates symmetric.  Symmetric
# products of distinct orthonormal orbitals are left out: their 1-RDM is
# degenerate, so their verdict depends on the eigenbasis eigh returns.
KIND_SECTORS = [
    ("slater", ANTI), ("condensate", SYM),
    ("product", SYM), ("product", ANTI),
    ("random", SYM), ("random", ANTI),
    ("superposition", SYM), ("superposition", ANTI),
]


class TestDetectorMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        kind_sector=st.sampled_from(KIND_SECTORS),
        d=st.integers(2, 5),
        n=st.integers(1, 4),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_verdict_spectrum_fidelity_and_states(self, kind_sector, d, n, seed):
        kind, sector = kind_sector
        assume(sector is SYM or n <= d)
        state = make_state(kind, d, n, sector, np.random.default_rng(seed))
        assume(state is not None)
        assert_same_report(state, sector)

    @pytest.mark.parametrize("occupations", [[1, 1, 1], [2, 1], [3]])
    def test_near_sector_state_keeps_the_reference_verdict(self, rng, occupations):
        d, n = 4, 3
        if occupations == [1, 1, 1]:
            sector, clean = ANTI, slater(rng, d, n)
        else:
            sector, clean = SYM, condensate(rng, d, occupations)
        state = perturbed(clean, sector, 0.5 * TAU_SECTOR, rng)
        residual = np.linalg.norm(state.amplitudes - clean.amplitudes)
        assert residual == pytest.approx(0.5 * TAU_SECTOR, rel=1e-3)
        report = assert_same_report(state, sector)
        assert report.verdict is not Verdict.NO_PARTICLE_DECOMPOSITION

    def test_state_just_outside_the_sector_raises_like_the_reference(self, rng):
        state = perturbed(slater(rng, 4, 3), ANTI, 2 * TAU_SECTOR, rng)
        with pytest.raises(ValueError, match="not in the antisymmetric sector"):
            reference_detect(state, ANTI)
        with pytest.raises(ValueError, match="not in the antisymmetric sector"):
            detect_emergent_particles(state, ANTI)

    @pytest.mark.parametrize("sector", [SYM, ANTI])
    def test_non_sector_state_raises_the_same_value_error(self, sector):
        basis = OneParticleBasis(("A", "B"))
        bare = tensor_product([np.eye(2)[0], np.eye(2)[1]], basis)
        message = f"state is not in the {sector.value} sector"
        with pytest.raises(ValueError) as want:
            reference_detect(bare, sector)
        with pytest.raises(ValueError) as got:
            detect_emergent_particles(bare, sector)
        assert str(got.value) == str(want.value) == message


class TestNaturalOrbitalsMatchLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 6),
        pool=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=3),
        seed=st.integers(0, 2 ** 32 - 1),
        rotate=st.booleans(),
    )
    def test_same_pairs_in_the_same_order(self, d, pool, seed, rotate):
        rng = np.random.default_rng(seed)
        # eigenvalues drawn from a small pool: most spectra are degenerate
        w = rng.choice(pool, d)
        u = random_unitary(rng, d) if rotate else np.eye(d)
        assert_same_orbitals(u @ np.diag(w) @ u.conj().T)

    @pytest.mark.parametrize("n", [2, 3])
    def test_degenerate_slater_reductions(self, rng, n):
        for _ in range(5):
            assert_same_orbitals(reduce_one_particle(slater(rng, 5, n)))

    def test_fixed_basis_degeneracies(self):
        for rdm in (np.diag([0.5, 0.5]), np.diag([0.25] * 4), np.diag([0.5, 0.0, 0.5, 0.0])):
            assert_same_orbitals(rdm)


def assert_same_orbitals(rdm):
    got, want = natural_orbitals(rdm), reference_natural_orbitals(rdm)
    assert [lam for lam, _ in got] == [lam for lam, _ in want]
    for (_, a), (_, b) in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


class TestFixPhase:
    def test_rows_match_the_per_vector_rule(self, rng):
        rows = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        rows[1, :2] = 0.0
        rows[2, 0] = 1e-13  # below the significance threshold
        rows[3] = 0.0  # nothing significant: left as it is
        want = np.array([reference_fix_phase(r.copy()) for r in rows])
        states.fix_phase(rows)
        np.testing.assert_allclose(rows, want, rtol=0, atol=1e-15)

    def test_vector_in_place(self, rng):
        v = random_unit_vector(rng, 4)
        want = reference_fix_phase(v.copy())
        states.fix_phase(v)
        np.testing.assert_allclose(v, want, rtol=0, atol=1e-15)
        assert abs(v[0].imag) < 1e-15 and v[0].real > 0


def test_detection_projects_once_and_builds_no_candidate(rng, monkeypatch):
    state = condensate(rng, 5, [2, 1])
    calls = []

    def counted(arr, sector):
        calls.append(arr.shape)
        return _project_raw(arr, sector)

    def forbidden(*args, **kwargs):
        raise AssertionError("called by the detector")

    monkeypatch.setattr(exchange, "_project_raw", counted)
    for name in ("symmetrized_product", "sector_project", "is_in_sector", "tensor_product"):
        monkeypatch.setattr(exchange, name, forbidden)
    monkeypatch.setattr(states, "reduce_one_particle", forbidden)
    report = detect_emergent_particles(state, SYM)
    assert report.verdict is Verdict.CONDENSED_OBJECT
    assert calls == [(5, 5, 5)]
