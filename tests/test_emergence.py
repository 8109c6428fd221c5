import math

import numpy as np
import pytest

from identicals import (
    ExchangeSector,
    LabeledState,
    OneParticleBasis,
    Verdict,
    apply_one_particle_unitary,
    detect_emergent_particles,
    genidentity_track,
    inner_product,
    natural_orbitals,
    reduce_one_particle,
    sector_basis,
    slater_rank_two_fermions,
    symmetrized_product,
    tensor_product,
)

from conftest import random_orthonormal_set, random_sector_state, random_unitary

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC


def south_north_state():
    """Antisymmetrized pair of two orthogonal localized modes, d=2."""
    basis = OneParticleBasis(("S", "N"))
    return symmetrized_product([np.eye(2)[0], np.eye(2)[1]], ANTI, basis)


def two_slater_superposition():
    """Equal superposition of two Slater determinants on disjoint mode pairs."""
    basis = OneParticleBasis.default(4)
    eye = np.eye(4, dtype=complex)
    a = symmetrized_product([eye[0], eye[1]], ANTI, basis)
    b = symmetrized_product([eye[2], eye[3]], ANTI, basis)
    amps = (a.amplitudes + b.amplitudes) / math.sqrt(2)
    return LabeledState(2, basis, amps)


class TestNaturalOrbitals:
    def test_maximally_mixed(self):
        pairs = natural_orbitals(np.diag([0.5, 0.5]))
        assert [lam for lam, _ in pairs] == pytest.approx([0.5, 0.5])

    def test_two_thirds_one_third(self):
        basis = sector_basis(2, 3, SYM)
        pairs = natural_orbitals(reduce_one_particle(basis[1]))
        assert pairs[0][0] == pytest.approx(2 / 3, abs=1e-12)
        assert pairs[1][0] == pytest.approx(1 / 3, abs=1e-12)
        np.testing.assert_allclose(pairs[0][1], [1, 0], atol=1e-12)
        np.testing.assert_allclose(pairs[1][1], [0, 1], atol=1e-12)

    def test_pure_condensate(self):
        pairs = natural_orbitals(np.diag([1.0, 0.0]))
        assert [lam for lam, _ in pairs] == pytest.approx([1.0, 0.0])

    def test_eigenvectors_orthonormal_with_fixed_phase(self, rng):
        for _ in range(10):
            u = random_unitary(rng, 4)
            w = rng.dirichlet(np.ones(4))
            rdm = u @ np.diag(w) @ u.conj().T
            pairs = natural_orbitals(rdm)
            vecs = np.array([v for _, v in pairs])
            np.testing.assert_allclose(vecs @ vecs.conj().T, np.eye(4), atol=1e-10)
            for _, v in pairs:
                lead = v[np.flatnonzero(np.abs(v) > 1e-9)[0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            natural_orbitals(np.array([[0.5, 0.1], [0.3, 0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)], ids=str)
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_rejects_non_finite_entries_without_a_warning(self, bad, where):
        rdm = np.diag([0.5, 0.5]).astype(complex)
        rdm[where] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            natural_orbitals(rdm)

    def test_a_deviation_that_overflows_is_not_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian .max deviation inf"):
            natural_orbitals(np.array([[0.5, 1e308], [-1e308, 0.5]]))


class TestDetectEmergentParticles:
    def test_south_north_pair(self):
        report = detect_emergent_particles(south_north_state(), ANTI)
        assert report.verdict is Verdict.PARTICLE_DECOMPOSITION
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert sorted(n for _, n in report.defining_states) == [1, 1]
        # the two defining states span the original orthogonal modes
        vecs = np.array([v for v, _ in report.defining_states])
        np.testing.assert_allclose(
            np.abs(vecs @ vecs.conj().T), np.eye(2), atol=1e-10
        )

    def test_condensate_is_one_object(self):
        basis = OneParticleBasis(("A", "B"))
        aaa = tensor_product([np.eye(2)[0]] * 3, basis)
        report = detect_emergent_particles(aaa, SYM)
        assert report.verdict is Verdict.CONDENSED_OBJECT
        assert len(report.defining_states) == 1
        vec, occ = report.defining_states[0]
        assert occ == 3
        np.testing.assert_allclose(vec, [1, 0], atol=1e-12)

    def test_two_slater_superposition_has_no_particles(self):
        report = detect_emergent_particles(two_slater_superposition(), ANTI)
        assert report.verdict is Verdict.NO_PARTICLE_DECOMPOSITION
        assert report.natural_spectrum == pytest.approx([0.25] * 4, abs=1e-10)

    def test_partial_condensation_counts_as_condensed(self):
        basis = OneParticleBasis(("A", "B"))
        state = sector_basis(2, 3, SYM)[1]  # occupation (2, 1)
        report = detect_emergent_particles(state, SYM)
        assert report.verdict is Verdict.CONDENSED_OBJECT
        assert sorted(n for _, n in report.defining_states) == [1, 2]

    def test_round_trip_random_factor_sets(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                n = int(rng.integers(1, min(d, 3) + 1))
                factors = random_orthonormal_set(rng, d, n)
                sector, expected = ANTI, Verdict.PARTICLE_DECOMPOSITION
                occs = [1] * n
            else:
                # distinct occupations keep the natural spectrum non-degenerate
                k = int(rng.integers(1, 3))
                occs = [3, 1][:k] if k == 2 else [2]
                factors = random_orthonormal_set(rng, d, k)
                sector = SYM
                expected = Verdict.CONDENSED_OBJECT
            spread = [v for v, n_i in zip(factors, occs) for _ in range(n_i)]
            state = symmetrized_product(spread, sector, OneParticleBasis.default(d))
            report = detect_emergent_particles(state, sector)
            assert report.verdict is expected
            assert report.fidelity >= 1 - 1e-9
            assert sorted(n for _, n in report.defining_states) == sorted(occs)

    def test_global_phase_invariance(self):
        state = south_north_state()
        rotated = LabeledState(
            2, state.basis, state.amplitudes * np.exp(0.7j)
        )
        a = detect_emergent_particles(state, ANTI)
        b = detect_emergent_particles(rotated, ANTI)
        assert a.verdict is b.verdict
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
        assert a.natural_spectrum == pytest.approx(b.natural_spectrum, abs=1e-12)

    def test_unitary_equivariance(self, rng):
        state = two_slater_superposition()
        u = random_unitary(rng, 4)
        rotated = apply_one_particle_unitary(state, u)
        a = detect_emergent_particles(state, ANTI)
        b = detect_emergent_particles(rotated, ANTI)
        assert a.verdict is b.verdict
        assert a.natural_spectrum == pytest.approx(b.natural_spectrum, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a boson product with a degenerate 1-RDM is judged "
        "by an arbitrary eigenbasis of the degenerate multiplet",
    )
    def test_unitary_equivariance_of_a_boson_product(self):
        basis = OneParticleBasis.default(4)
        eye = np.eye(4, dtype=complex)
        state = symmetrized_product([eye[0], eye[1]], SYM, basis)
        a = detect_emergent_particles(state, SYM)
        assert a.verdict is Verdict.PARTICLE_DECOMPOSITION
        rng = np.random.default_rng(2401)
        for _ in range(20):
            rotated = apply_one_particle_unitary(state, random_unitary(rng, 4))
            b = detect_emergent_particles(rotated, SYM)
            assert b.verdict is a.verdict
            assert b.fidelity == pytest.approx(a.fidelity, abs=1e-9)
            assert b.natural_spectrum == pytest.approx(a.natural_spectrum, abs=1e-9)

    def test_fermion_spectrum_is_flat(self, rng):
        for _ in range(5):
            factors = random_orthonormal_set(rng, 4, 3)
            state = symmetrized_product(factors, ANTI, OneParticleBasis.default(4))
            report = detect_emergent_particles(state, ANTI)
            occupied = report.natural_spectrum[:3]
            assert occupied == pytest.approx([1 / 3] * 3, abs=1e-10)

    def test_sector_violation(self):
        basis = OneParticleBasis(("A", "B"))
        bare = tensor_product([np.eye(2)[0], np.eye(2)[1]], basis)
        with pytest.raises(ValueError):
            detect_emergent_particles(bare, ANTI)


class TestSlaterRank:
    def test_south_north_is_rank_one(self):
        assert slater_rank_two_fermions(south_north_state()) == 1

    def test_two_mode_singlet(self):
        basis = OneParticleBasis(("u", "d"))
        singlet = LabeledState(
            2, basis, np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        )
        assert slater_rank_two_fermions(singlet) == 1

    def test_two_block_superposition_is_rank_two(self):
        assert slater_rank_two_fermions(two_slater_superposition()) == 2

    def test_agrees_with_detection(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 6))
            state = random_sector_state(rng, d, 2, ANTI)
            rank = slater_rank_two_fermions(state)
            verdict = detect_emergent_particles(state, ANTI).verdict
            assert (rank == 1) == (verdict is Verdict.PARTICLE_DECOMPOSITION)

    def test_requires_two_fermions(self):
        basis = OneParticleBasis(("A", "B"))
        aaa = tensor_product([np.eye(2)[0]] * 3, basis)
        with pytest.raises(ValueError):
            slater_rank_two_fermions(aaa)


class TestGenidentityTrack:
    def test_identity_transport(self):
        out = genidentity_track([np.eye(2)[0], np.eye(2)[1]], np.eye(2))
        np.testing.assert_allclose(out[0], [1, 0])
        np.testing.assert_allclose(out[1], [0, 1])

    def test_beam_splitter_transport(self):
        u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        out = genidentity_track([np.eye(2)[0], np.eye(2)[1]], u)
        np.testing.assert_allclose(out[0], np.array([1, 1]) / math.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(out[1], np.array([1, -1]) / math.sqrt(2), atol=1e-12)
        assert abs(np.vdot(out[0], out[1])) < 1e-12

    def test_orthogonality_preserved_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, d + 1))
            vecs = random_orthonormal_set(rng, d, k)
            out = genidentity_track(vecs, random_unitary(rng, d))
            for i in range(k):
                for j in range(i + 1, k):
                    assert abs(np.vdot(out[i], out[j])) < 1e-10

    def test_rejects_non_orthogonal_inputs(self):
        v = np.array([1, 1], dtype=complex) / math.sqrt(2)
        with pytest.raises(ValueError):
            genidentity_track([np.eye(2)[0], v], np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 1)], ids=str)
    @pytest.mark.parametrize("count", [1, 2])
    def test_rejects_non_finite_states_without_a_warning(self, bad, count):
        vecs = [np.eye(2, dtype=complex)[k] for k in range(count)]
        vecs[-1][1] = bad
        with pytest.raises(ValueError, match=f"state {count - 1} has an entry that is not finite"):
            genidentity_track(vecs, np.eye(2))
