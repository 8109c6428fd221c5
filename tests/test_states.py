import math

import numpy as np
import pytest

from identicals import (
    CapExceeded,
    ExchangeSector,
    LabeledState,
    OneParticleBasis,
    Permutation,
    apply_one_particle_unitary,
    apply_permutation,
    inner_product,
    reduce_one_particle,
    sector_basis,
    tensor_product,
)
from identicals.states import compose

from conftest import random_sector_state, random_unitary, random_unit_vector

AB = OneParticleBasis(("A", "B"))
E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


class TestBasisAndPermutation:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            OneParticleBasis(("A", "A"))

    def test_energies_length(self):
        with pytest.raises(ValueError):
            OneParticleBasis(("A", "B"), energies=(1.0,))

    def test_permutation_parity(self):
        assert Permutation.identity(4).parity == 1
        assert Permutation.swap(3, 0, 1).parity == -1
        assert Permutation((1, 2, 0)).parity == 1

    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))


class TestTensorProduct:
    def test_all_A(self):
        s = tensor_product([E0, E0, E0], AB)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_ABA_index(self):
        s = tensor_product([E0, E1, E0], AB)
        assert abs(s.amplitudes[2] - 1.0) < 1e-15
        assert np.count_nonzero(s.amplitudes) == 1

    def test_plus_minus_expansion(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        s = tensor_product([plus, minus], AB)
        np.testing.assert_allclose(s.amplitudes, [0.5, -0.5, 0.5, -0.5], atol=1e-15)

    def test_rejects_zero_norm_factor(self):
        with pytest.raises(ValueError):
            tensor_product([np.zeros(2)], AB)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product([np.array([1.0, 0.0, 0.0])], AB)

    def test_desk_scale_cap(self):
        with pytest.raises(CapExceeded):
            LabeledState(25, AB, np.zeros(2**25))


class TestInnerProduct:
    def test_normalization(self):
        for state in sector_basis(2, 3, ExchangeSector.SYMMETRIC):
            assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_sector_basis_states_orthogonal(self):
        basis = sector_basis(2, 3, ExchangeSector.SYMMETRIC)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(inner_product(basis[i], basis[j])) < 1e-12

    def test_conjugate_linear_first_argument(self, rng):
        a = random_sector_state(rng, 2, 2, ExchangeSector.SYMMETRIC)
        b = random_sector_state(rng, 2, 2, ExchangeSector.SYMMETRIC)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-12
        )

    def test_dimension_mismatch(self):
        a = tensor_product([E0], AB)
        b = tensor_product([E0, E0], AB)
        with pytest.raises(ValueError):
            inner_product(a, b)


class TestApplyPermutation:
    def test_swap_product_state(self):
        ab = tensor_product([E0, E1], AB)
        ba = tensor_product([E1, E0], AB)
        swapped = apply_permutation(ab, Permutation.swap(2, 0, 1))
        np.testing.assert_allclose(swapped.amplitudes, ba.amplitudes)

    def test_symmetric_state_invariant(self):
        import itertools

        aaa = tensor_product([E0, E0, E0], AB)
        for mapping in itertools.permutations(range(3)):
            out = apply_permutation(aaa, Permutation(mapping))
            np.testing.assert_allclose(out.amplitudes, aaa.amplitudes)

    def test_antisymmetric_sign_flip(self):
        singlet = LabeledState(
            2, AB, np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        )
        swapped = apply_permutation(singlet, Permutation.swap(2, 0, 1))
        np.testing.assert_allclose(swapped.amplitudes, -singlet.amplitudes, atol=1e-15)

    def test_group_action(self, rng):
        import itertools

        state = random_sector_state(rng, 2, 3, ExchangeSector.SYMMETRIC)
        state = apply_one_particle_unitary(state, random_unitary(rng, 2))
        for pm, qm in itertools.product(itertools.permutations(range(3)), repeat=2):
            p, q = Permutation(pm), Permutation(qm)
            via_two = apply_permutation(apply_permutation(state, p), q)
            via_one = apply_permutation(state, compose(q, p))
            np.testing.assert_allclose(
                via_two.amplitudes, via_one.amplitudes, atol=1e-12
            )

    def test_identity_is_noop(self, rng):
        state = random_sector_state(rng, 3, 2, ExchangeSector.ANTISYMMETRIC)
        out = apply_permutation(state, Permutation.identity(2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_inner_product_permutation_invariant(self, rng):
        p = Permutation((2, 0, 1))
        a = random_sector_state(rng, 2, 3, ExchangeSector.SYMMETRIC)
        u = random_unitary(rng, 2)
        b = apply_one_particle_unitary(a, u)
        assert inner_product(
            apply_permutation(a, p), apply_permutation(b, p)
        ) == pytest.approx(inner_product(a, b), abs=1e-12)

    def test_size_mismatch(self):
        s = tensor_product([E0, E1], AB)
        with pytest.raises(ValueError):
            apply_permutation(s, Permutation.identity(3))


class TestOneParticleUnitary:
    def test_identity(self):
        s = tensor_product([E0, E1], AB)
        out = apply_one_particle_unitary(s, np.eye(2))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_beam_splitter_on_single_slot(self):
        u = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        out = apply_one_particle_unitary(tensor_product([E0], AB), u)
        np.testing.assert_allclose(
            out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15
        )

    def test_norm_preserved(self, rng):
        for _ in range(10):
            s = random_sector_state(rng, 3, 2, ExchangeSector.SYMMETRIC)
            out = apply_one_particle_unitary(s, random_unitary(rng, 3))
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_commutes_with_permutation(self, rng):
        s = random_sector_state(rng, 2, 3, ExchangeSector.SYMMETRIC)
        u = random_unitary(rng, 2)
        p = Permutation((1, 2, 0))
        a = apply_permutation(apply_one_particle_unitary(s, u), p)
        b = apply_one_particle_unitary(apply_permutation(s, p), u)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_rejects_non_unitary(self):
        s = tensor_product([E0], AB)
        with pytest.raises(ValueError):
            apply_one_particle_unitary(s, np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestReduceOneParticle:
    def test_condensate(self):
        rdm = reduce_one_particle(tensor_product([E0, E0, E0], AB))
        np.testing.assert_allclose(rdm, np.diag([1.0, 0.0]), atol=1e-15)

    def test_singlet_is_maximally_mixed(self):
        singlet = LabeledState(
            2, AB, np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        )
        np.testing.assert_allclose(
            reduce_one_particle(singlet), np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_two_A_one_B(self):
        basis = sector_basis(2, 3, ExchangeSector.SYMMETRIC)
        # occupation (2, 1) is the second basis vector in enumeration order
        rdm = reduce_one_particle(basis[1])
        np.testing.assert_allclose(rdm, np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_trace_hermiticity_positivity(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            state = tensor_product(
                [random_unit_vector(rng, d) for _ in range(n)],
                OneParticleBasis.default(d),
            )
            rdm = reduce_one_particle(state)
            assert abs(np.trace(rdm) - 1.0) < 1e-10
            np.testing.assert_allclose(rdm, rdm.conj().T, atol=1e-12)
            evals = np.linalg.eigvalsh(rdm)
            assert evals.min() > -1e-10
            assert evals.max() < 1 + 1e-10


def reference_check(n_slots, basis, amplitudes):
    """The LabeledState checks as two finiteness tests and two norms."""
    if n_slots < 1:
        raise ValueError("n_slots must be positive")
    dim = basis.dim ** n_slots
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
    if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
        raise ValueError("amplitudes must be finite")
    if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
        raise ValueError(f"state norm {np.linalg.norm(amps)} deviates from 1")


def raised(check, *args):
    with pytest.raises(Exception) as info:
        check(*args)
    return type(info.value), str(info.value)


class TestLabeledStateValidation:
    HALF = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)

    @pytest.mark.parametrize(
        "amps,message",
        [
            (HALF + [np.nan, 0, 0, 0], "amplitudes must be finite"),
            (HALF + [0, 1j * np.nan, 0, 0], "amplitudes must be finite"),
            (HALF + [0, 0, np.inf, 0], "amplitudes must be finite"),
            (HALF + [0, 0, 0, -np.inf], "amplitudes must be finite"),
            (HALF + [0, 0, 0, 1j * np.inf], "amplitudes must be finite"),
            (np.array([np.nan, 1.0, 0.0]), "expected 4 amplitudes, got shape (3,)"),
            (HALF * (1 + 1e-6), f"state norm {np.linalg.norm(HALF * (1 + 1e-6))} deviates from 1"),
        ],
        ids=["nan_real", "nan_imag", "inf", "minus_inf", "inf_imag", "shape", "norm_1e-6"],
    )
    def test_same_errors_as_separate_checks(self, amps, message):
        expected = raised(reference_check, 2, AB, amps)
        assert raised(LabeledState, 2, AB, amps) == expected == (ValueError, message)

    def test_norm_message_prints_the_norm(self):
        with pytest.raises(ValueError, match=r"^state norm 1\.000001\d* deviates from 1$"):
            LabeledState(1, AB, E0 * (1 + 1e-6))

    def test_norm_within_tolerance_is_accepted(self):
        amps = E0 * (1 + 0.5e-10)
        assert abs(np.linalg.norm(amps) - 1) == pytest.approx(0.5e-10, rel=1e-3)
        reference_check(1, AB, amps)
        assert LabeledState(1, AB, amps).amplitudes[0] == amps[0]
