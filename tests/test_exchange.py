import itertools
import math
import time

import numpy as np
import pytest

from identicals import (
    ExchangeSector,
    OneParticleBasis,
    Permutation,
    StatisticsKind,
    apply_permutation,
    count_microstates,
    enumerate_distributions,
    inner_product,
    is_in_sector,
    reduce_one_particle,
    sector_basis,
    sector_project,
    symmetrized_product,
    tensor_product,
)
from identicals import exchange
from identicals.errors import VACUUM, CapExceeded

from conftest import random_orthonormal_set, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
AB = OneParticleBasis(("A", "B"))
E = np.eye(2, dtype=complex)


class TestSectorProject:
    def test_ABA_projects_to_two_A_one_B(self):
        projected = sector_project(tensor_product([E[0], E[1], E[0]], AB), SYM)
        expected = np.zeros(8)
        for idx in (1, 2, 4):  # AAB, ABA, BAA
            expected[idx] = 1 / math.sqrt(3)
        np.testing.assert_allclose(projected.amplitudes, expected, atol=1e-12)

    def test_pauli_annihilation_returns_zero(self):
        assert sector_project(tensor_product([E[0], E[0]], AB), ANTI) is None

    def test_antisymmetrized_pair_with_normalization(self):
        projected = sector_project(tensor_product([E[0], E[1]], AB), ANTI)
        np.testing.assert_allclose(
            projected.amplitudes,
            np.array([0, 1, -1, 0]) / math.sqrt(2),
            atol=1e-12,
        )

    def test_idempotent(self, rng):
        from identicals.exchange import _project_raw

        for sector in (SYM, ANTI):
            for _ in range(5):
                state = random_sector_state(rng, 3, 2, sector)
                once = _project_raw(state.tensor(), sector)
                twice = _project_raw(once, sector)
                np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_projection_is_permutation_eigenvector(self, rng):
        for sector in (SYM, ANTI):
            state = random_sector_state(rng, 3, 3, sector)
            for mapping in itertools.permutations(range(3)):
                p = Permutation(mapping)
                permuted = apply_permutation(state, p)
                sign = 1 if sector is SYM else p.parity
                np.testing.assert_allclose(
                    permuted.amplitudes, sign * state.amplitudes, atol=1e-10
                )


class TestSymmetrizedProduct:
    def test_three_A_condensate(self):
        s = symmetrized_product([E[0]] * 3, SYM, AB)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)

    def test_two_mode_singlet_is_forced(self):
        s = symmetrized_product([E[0], E[1]], ANTI, AB)
        np.testing.assert_allclose(
            np.abs(s.amplitudes), np.abs(np.array([0, 1, -1, 0]) / math.sqrt(2)),
            atol=1e-12,
        )

    def test_dependent_antisymmetric_factors_raise(self):
        with pytest.raises(ValueError):
            symmetrized_product([E[0], E[0]], ANTI, AB)
        v = np.array([1.0, 1e-8]) / math.sqrt(1 + 1e-16)
        with pytest.raises(ValueError):
            symmetrized_product([E[0], v], ANTI, AB)

    def test_matches_project_of_tensor_product(self, rng):
        basis = OneParticleBasis.default(3)
        factors = random_orthonormal_set(rng, 3, 3)
        direct = symmetrized_product(factors, ANTI, basis)
        via_projection = sector_project(tensor_product(factors, basis), ANTI)
        np.testing.assert_allclose(
            direct.amplitudes, via_projection.amplitudes, atol=1e-12
        )

    def test_factor_reordering_covariance(self, rng):
        basis = OneParticleBasis.default(4)
        factors = random_orthonormal_set(rng, 4, 3)
        base = symmetrized_product(factors, ANTI, basis)
        base_sym = symmetrized_product(factors, SYM, basis)
        for mapping in itertools.permutations(range(3)):
            p = Permutation(mapping)
            reordered = [factors[i] for i in mapping]
            anti = symmetrized_product(reordered, ANTI, basis)
            np.testing.assert_allclose(
                anti.amplitudes, p.parity * base.amplitudes, atol=1e-10
            )
            sym = symmetrized_product(reordered, SYM, basis)
            np.testing.assert_allclose(
                sym.amplitudes, base_sym.amplitudes, atol=1e-10
            )


class TestSectorBasis:
    def test_symmetric_2_3_reproduces_the_four_states(self):
        basis = sector_basis(2, 3, SYM)
        assert len(basis) == 4
        by_occ = {
            tuple(np.rint(3 * np.diag(reduce_one_particle(s)).real).astype(int)): s
            for s in basis
        }
        sqrt3 = 1 / math.sqrt(3)
        expected = {
            (3, 0): {0: 1.0},
            (0, 3): {7: 1.0},
            (2, 1): {1: sqrt3, 2: sqrt3, 4: sqrt3},
            (1, 2): {3: sqrt3, 5: sqrt3, 6: sqrt3},
        }
        for occ, amp_map in expected.items():
            full = np.zeros(8)
            for idx, v in amp_map.items():
                full[idx] = v
            np.testing.assert_allclose(by_occ[occ].amplitudes, full, atol=1e-12)

    def test_antisymmetric_2_3_is_empty(self):
        assert sector_basis(2, 3, ANTI) == []

    def test_antisymmetric_4_2_orthonormal(self):
        basis = sector_basis(4, 2, ANTI)
        assert len(basis) == 6
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b) - expected) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_cardinality_matches_counting(self, d, n):
        assert len(sector_basis(d, n, SYM)) == count_microstates(
            StatisticsKind.BOSE_EINSTEIN, n, d
        )
        assert len(sector_basis(d, n, ANTI)) == count_microstates(
            StatisticsKind.FERMI_DIRAC, n, d
        )

    @pytest.mark.parametrize(
        "d,n,sector",
        [(2, 10 ** 11, SYM), (10 ** 6, 10 ** 11, SYM), (10 ** 6, 10 ** 5, ANTI), (1, 64, SYM)],
    )
    def test_past_the_slot_cap_refuses_before_the_count(self, d, n, sector):
        # the count (math.comb) and d ** n of these would not finish in seconds
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=f"N = {n} slots exceed the dense-tensor cap"):
            sector_basis(d, n, sector)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [3, 64, 200, 10 ** 11])
    def test_more_fermions_than_modes_is_empty_at_any_n(self, n):
        start = time.perf_counter()
        assert sector_basis(2, n, ANTI) == []
        assert enumerate_distributions(StatisticsKind.FERMI_DIRAC, n, 2) == []
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("build", [sector_basis, exchange.orbit_table], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("sector", [SYM, ANTI], ids=lambda s: s.value)
    def test_the_vacuum_is_refused_before_any_array_is_built(self, build, sector, monkeypatch):
        def no_table(*args):
            raise AssertionError("an orbit table was built for the vacuum")

        monkeypatch.setattr(exchange, "_build_orbit_table", no_table)
        with pytest.raises(ValueError, match=f"^{VACUUM}$"):
            build(3, 0, sector)

    def test_members_live_in_their_sector(self):
        for s in sector_basis(3, 2, SYM):
            assert is_in_sector(s, SYM)
        for s in sector_basis(3, 2, ANTI):
            assert is_in_sector(s, ANTI)


class TestIsInSector:
    def test_symmetric_state(self):
        assert is_in_sector(sector_basis(2, 3, SYM)[3], SYM)

    def test_bare_product_in_neither_sector(self):
        ab = tensor_product([E[0], E[1]], AB)
        assert not is_in_sector(ab, SYM)
        assert not is_in_sector(ab, ANTI)

    def test_sectors_are_exclusive_for_multislot_states(self, rng):
        s = random_sector_state(rng, 3, 2, SYM)
        assert is_in_sector(s, SYM)
        assert not is_in_sector(s, ANTI)
