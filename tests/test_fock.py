import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from identicals import (
    ExchangeSector,
    FockVector,
    OccupationState,
    OneParticleBasis,
    StatisticsKind,
    count_microstates,
    enumerate_distributions,
    fock_to_labeled,
    format_symbol,
    inner_product,
    labeled_to_fock,
    occupation_to_labeled,
    parse_symbol,
    replace_indistinguishable,
    sector_basis,
)
from identicals import exchange

from conftest import perturbed, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC


class TestSymbols:
    def test_seven_quanta_symbol(self):
        occ = parse_symbol("f_{e1e1e1e1e2e2e4}", 4)
        assert occ.occupations == (4, 2, 0, 1)

    def test_unicode_input_accepted(self):
        occ = parse_symbol("f_{ε1ε1ε2}", 3)
        assert occ.occupations == (2, 1, 0)
        occ = parse_symbol("f_{ε₁ε₃}", 3)
        assert occ.occupations == (1, 0, 1)

    def test_vacuum(self):
        assert parse_symbol("f_{}", 3).occupations == (0, 0, 0)
        assert format_symbol(OccupationState((0, 0), SYM)) == "f_{}"

    def test_format_golden(self):
        assert format_symbol(OccupationState((4, 2, 0, 1), SYM)) == "f_{e1e1e1e1e2e2e4}"
        assert format_symbol(OccupationState((1, 1), ANTI)) == "f_{e1e2}"

    def test_malformed_text(self):
        for bad in ("f_{e0}", "f_{x1}", "f_e1", "f_{ e1 }", "g_{e1}", "f_{e1", ""):
            with pytest.raises(ValueError):
                parse_symbol(bad, 4)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            parse_symbol("f_{e5}", 4)

    def test_repeated_mode_rejected_for_fermions(self):
        with pytest.raises(ValueError):
            parse_symbol("f_{e1e1}", 2, ANTI)

    @given(
        occ=st.lists(st.integers(0, 5), min_size=1, max_size=6).map(tuple),
    )
    def test_round_trip(self, occ):
        state = OccupationState(occ, SYM)
        assert parse_symbol(format_symbol(state), len(occ)).occupations == occ

    @given(
        tokens=st.lists(st.integers(1, 6), min_size=0, max_size=10),
    )
    def test_parse_then_format_is_canonical(self, tokens):
        text = "f_{" + "".join(f"e{t}" for t in tokens) + "}"
        occ = parse_symbol(text, 6)
        canonical = format_symbol(occ)
        assert parse_symbol(canonical, 6) == occ
        # canonical form sorts tokens ascending
        assert canonical == "f_{" + "".join(f"e{t}" for t in sorted(tokens)) + "}"


class TestOccupationLabeledMaps:
    def test_two_one_is_state_six(self):
        basis = OneParticleBasis(("A", "B"))
        state = occupation_to_labeled(OccupationState((2, 1), SYM), basis)
        expected = np.zeros(8)
        for idx in (1, 2, 4):
            expected[idx] = 1 / math.sqrt(3)
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_condensate(self):
        basis = OneParticleBasis(("A", "B"))
        state = occupation_to_labeled(OccupationState((3, 0), SYM), basis)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_fermion_pair(self):
        basis = OneParticleBasis(("A", "B"))
        state = occupation_to_labeled(OccupationState((1, 1), ANTI), basis)
        np.testing.assert_allclose(
            state.amplitudes, np.array([0, 1, -1, 0]) / math.sqrt(2), atol=1e-12
        )

    def test_double_occupation_rejected_for_fermions(self):
        with pytest.raises(ValueError):
            OccupationState((2, 0), ANTI)

    def test_basis_vector_expands_to_single_term(self):
        basis = OneParticleBasis.default(3)
        for d, n in [(3, 2), (3, 3)]:
            kind_pairs = [(SYM, StatisticsKind.BOSE_EINSTEIN),
                          (ANTI, StatisticsKind.FERMI_DIRAC)]
            for sector, kind in kind_pairs:
                for occ in enumerate_distributions(kind, n, d):
                    state = occupation_to_labeled(
                        OccupationState(occ, sector), OneParticleBasis.default(d)
                    )
                    fv = labeled_to_fock(state, sector)
                    assert set(fv.terms) == {occ}
                    assert fv.terms[occ] == pytest.approx(1.0, abs=1e-10)

    def test_number_of_fock_basis_elements_matches_counting(self):
        assert len(sector_basis(3, 2, SYM)) == count_microstates(
            StatisticsKind.BOSE_EINSTEIN, 2, 3
        )
        assert len(sector_basis(3, 2, ANTI)) == count_microstates(
            StatisticsKind.FERMI_DIRAC, 2, 3
        )

    def test_round_trip_fidelity_random_states(self, rng):
        basis_cache = {}
        for _ in range(40):
            sector = SYM if rng.random() < 0.5 else ANTI
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            if sector is ANTI and n > d:
                continue
            state = random_sector_state(rng, d, n, sector)
            fv = labeled_to_fock(state, sector)
            back = fock_to_labeled(fv, state.basis)
            assert abs(inner_product(state, back)) == pytest.approx(1.0, abs=1e-10)

    def test_isometry_preserves_inner_products(self, rng):
        for sector, d, n in [(SYM, 3, 3), (ANTI, 4, 2)]:
            states = [random_sector_state(rng, d, n, sector) for _ in range(4)]
            vectors = [labeled_to_fock(s, sector) for s in states]
            for i in range(4):
                for j in range(4):
                    direct = inner_product(states[i], states[j])
                    via_fock = sum(
                        np.conj(c) * vectors[j].terms.get(occ, 0.0)
                        for occ, c in vectors[i].terms.items()
                    )
                    assert direct == pytest.approx(via_fock, abs=1e-9)

    def test_non_sector_state_rejected(self):
        basis = OneParticleBasis(("A", "B"))
        from identicals import tensor_product

        bare = tensor_product([np.eye(2)[0], np.eye(2)[1]], basis)
        with pytest.raises(ValueError):
            labeled_to_fock(bare, SYM)


class TestMembershipFromFockCoefficients:
    """labeled_to_fock tests sector membership on P psi = amp c[cls + 1]."""

    def test_no_projector_runs(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called by labeled_to_fock")

        states = [(random_sector_state(rng, 4, 3, s), s) for s in (SYM, ANTI)]
        for name in ("_project_raw", "_sector_projection", "is_in_sector", "sector_project"):
            monkeypatch.setattr(exchange, name, forbidden)
        for state, sector in states:
            assert abs(sum(abs(c) ** 2 for c in labeled_to_fock(state, sector).terms.values())
                       - 1) < 1e-12
            other = ANTI if sector is SYM else SYM
            with pytest.raises(ValueError, match=f"^state is not in the {other.value} sector$"):
                labeled_to_fock(state, other)

    @pytest.mark.parametrize("sector", [SYM, ANTI])
    def test_agrees_with_is_in_sector_on_perturbed_states(self, rng, sector):
        for d in range(2, 6):
            for n in range(2, 6):
                if sector is ANTI and n > d:
                    continue
                clean = random_sector_state(rng, d, n, sector)
                for size, inside in ((1e-12, True), (1e-7, False)):
                    state = perturbed(clean, sector, size, rng)
                    assert exchange.is_in_sector(state, sector) is inside, (d, n, size)
                    try:
                        labeled_to_fock(state, sector)
                        accepted = True
                    except ValueError as err:
                        assert str(err) == f"state is not in the {sector.value} sector"
                        accepted = False
                    assert accepted is inside, (d, n, size)


@pytest.mark.parametrize(
    "terms,message",
    [
        # a float row that sums to the total, and one that would truncate to (2, 0)
        ({(1.5, 0.5): 1.0}, "occupation (1.5, 0.5) must hold 64-bit integers"),
        ({(2.5, -0.5): 1.0}, "occupation (2.5, -0.5) must hold 64-bit integers"),
        ({(2.0, 0): 1.0}, "occupation (2.0, 0) must hold 64-bit integers"),
        ({(2 ** 64, 2 - 2 ** 64): 1.0},
         f"occupation {(2 ** 64, 2 - 2 ** 64)} must hold 64-bit integers"),
        # the first occupation that is not integer, ahead of a term before it
        ({(3, 0): 0.6, (1, 1): 0.0, ("2", 0): 0.8},
         "occupation ('2', 0) must hold 64-bit integers"),
    ],
)
def test_fock_vector_refuses_non_integer_occupations(terms, message):
    with pytest.raises(ValueError) as got:
        FockVector(terms, SYM, 2)
    assert str(got.value) == message


def test_fock_vector_reads_integer_types():
    fv = FockVector({(True, np.int64(1), 0): 0.6, (0, 2, False): 0.8}, SYM, 2)
    back = fock_to_labeled(fv, OneParticleBasis.default(3))
    assert labeled_to_fock(back, SYM).terms == pytest.approx({(1, 1, 0): 0.6, (0, 2, 0): 0.8})


class TestReplacementTheorem:
    def test_seven_quanta_distribution(self):
        occ = OccupationState((4, 2, 0, 1), SYM)
        assert replace_indistinguishable(occ, 1) == occ

    def test_single_unit(self):
        occ = OccupationState((1, 0), SYM)
        assert replace_indistinguishable(occ, 1) == occ

    def test_empty_mode_errors(self):
        with pytest.raises(ValueError):
            replace_indistinguishable(OccupationState((0, 1), SYM), 1)

    @given(
        occ=st.lists(st.integers(0, 6), min_size=1, max_size=5).map(tuple),
        data=st.data(),
    )
    def test_identity_on_valid_domain(self, occ, data):
        nonempty = [i + 1 for i, n in enumerate(occ) if n > 0]
        if not nonempty:
            return
        mode = data.draw(st.sampled_from(nonempty))
        state = OccupationState(occ, SYM)
        assert replace_indistinguishable(state, mode) == state
