import copy
import dataclasses
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from identicals import (
    ExchangeSector,
    FockVector,
    LabeledState,
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
from identicals import exchange, fock
from identicals.fock import VACUUM

from conftest import perturbed, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]


@pytest.fixture
def cache(monkeypatch):
    """An empty orbit-table cache for the test, so no other test's tables are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


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


@pytest.mark.parametrize(
    "occupation", [(1.5, 0.5), (2.5, -0.5), (2.0, 0), (2 ** 64, 2 - 2 ** 64), ("2", 0)]
)
def test_occupation_state_refuses_what_fock_vector_refuses(occupation):
    message = f"occupation {occupation} must hold 64-bit integers"
    for sector in (SYM, ANTI):
        with pytest.raises(ValueError) as got:
            OccupationState(occupation, sector)
        assert str(got.value) == message
    with pytest.raises(ValueError) as got:
        FockVector({occupation: 1.0}, SYM, 2)
    assert str(got.value) == message


def test_fock_vector_reads_integer_types():
    fv = FockVector({(True, np.int64(1), 0): 0.6, (0, 2, False): 0.8}, SYM, 2)
    back = fock_to_labeled(fv, OneParticleBasis.default(3))
    assert labeled_to_fock(back, SYM).terms == pytest.approx({(1, 1, 0): 0.6, (0, 2, 0): 0.8})


def test_fock_vector_terms_are_a_read_only_copy():
    given = {(1, 1, 0): 0.6, (0, 2, 0): 0.8}
    fv = FockVector(given, SYM, 2)
    # a later change to the caller's dict, or to terms, cannot reach a validated vector
    given[(1, 1, 0)] = float("nan")
    given[(3, 0, 0)] = 0.5
    bridged = labeled_to_fock(fock_to_labeled(fv, OneParticleBasis.default(3)), SYM)
    for vector in (fv, bridged):
        with pytest.raises(TypeError):
            vector.terms[(1, 1, 0)] = float("nan")
        with pytest.raises(TypeError):
            del vector.terms[(0, 2, 0)]
    assert fv.terms == {(1, 1, 0): 0.6, (0, 2, 0): 0.8}
    assert bridged.terms == pytest.approx(fv.terms)
    for vector in (fv, bridged):
        for twin in (pickle.loads(pickle.dumps(vector)), copy.deepcopy(vector),
                     dataclasses.replace(vector)):
            assert twin == vector and list(twin.terms) == list(vector.terms)
            with pytest.raises(TypeError):
                twin.terms[(2, 0, 0)] = 1.0


@pytest.mark.parametrize("d,n,sector", SIZES, ids=str)
def test_occupation_rows_list_the_enumeration(d, n, sector):
    first = exchange.orbit_table(d, n, sector)[2]
    rows = exchange._occupation_rows(first, d, n)
    assert rows.shape == (first.size, d)
    assert list(map(tuple, rows.tolist())) == enumerate_distributions(sector.statistics, n, d)


def bridge_errors():
    """The message of each refused bridge call; the width check runs before the vacuum check."""
    b3, b4 = OneParticleBasis.default(3), OneParticleBasis.default(4)
    fv3 = FockVector({(1, 1, 0): 1.0}, SYM, 2)
    vacuum3 = FockVector({(0, 0, 0): 1.0}, SYM, 0)
    off_sector = LabeledState(2, b3, np.eye(9)[1])
    cases = [
        (lambda: fock_to_labeled(fv3, b4), "occupation has 3 modes, basis has 4"),
        (lambda: fock_to_labeled(vacuum3, b4), "occupation has 3 modes, basis has 4"),
        (lambda: fock_to_labeled(vacuum3, b3), VACUUM),
        (lambda: occupation_to_labeled(OccupationState((1, 1, 0), SYM), b4),
         "occupation has 3 modes, basis has 4"),
        (lambda: occupation_to_labeled(OccupationState((0, 0, 0), SYM), b4),
         "occupation has 3 modes, basis has 4"),
        (lambda: occupation_to_labeled(OccupationState((0, 0, 0), SYM), b3), VACUUM),
        (lambda: labeled_to_fock(off_sector, SYM), "state is not in the symmetric sector"),
        (lambda: labeled_to_fock(off_sector, ANTI), "state is not in the antisymmetric sector"),
    ]
    out = []
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        out.append(str(info.value))
        assert str(info.value) == message
    return out


def test_errors_are_unchanged_cold_and_warm(cache):
    cold = bridge_errors()
    for d, n in [(3, 2), (4, 2), (3, 1), (4, 1)]:
        for sector in (SYM, ANTI):
            state = random_sector_state(np.random.default_rng(d), d, n, sector)
            fock_to_labeled(labeled_to_fock(state, sector), state.basis)
    assert bridge_errors() == cold


@pytest.mark.parametrize("warm", [False, True])
def test_a_float_occupation_is_refused_even_when_its_class_is_known(cache, warm):
    basis = OneParticleBasis.default(3)
    if warm:
        occupation_to_labeled(OccupationState((1, 2, 0), SYM), basis)
        assert (3, 3, SYM) in cache.tables
    with pytest.raises(ValueError) as info:
        OccupationState((1.0, 2.0, 0.0), SYM)
    assert str(info.value) == "occupation (1.0, 2.0, 0.0) must hold 64-bit integers"


@pytest.mark.parametrize("warm", [False, True])
def test_bool_and_numpy_keys_find_their_class_but_are_never_stored(cache, warm):
    basis = OneParticleBasis.default(4)
    c = [0.6, 0.8j]
    plain = FockVector({(1, 0, 1, 0): c[0], (0, 2, 0, 0): c[1]}, SYM, 2)
    odd = FockVector(
        {(True, False, True, False): c[0], tuple(np.int64([0, 2, 0, 0])): c[1]}, SYM, 2
    )
    if warm:
        labeled_to_fock(random_sector_state(np.random.default_rng(4), 4, 2, SYM), SYM)
    state = fock_to_labeled(odd, basis)
    assert state.amplitudes.tobytes() == fock_to_labeled(plain, basis).amplitudes.tobytes()
    single = occupation_to_labeled(OccupationState(tuple(np.int8([0, 2, 0, 0])), SYM), basis)
    boolean = occupation_to_labeled(OccupationState((True, False, True, False), SYM), basis)
    assert single.amplitudes.tobytes() == occupation_to_labeled(
        OccupationState((0, 2, 0, 0), SYM), basis
    ).amplitudes.tobytes()
    assert np.count_nonzero(boolean.amplitudes) == 2
    # the bridge's keys are tuples of Python ints, whatever keys the caller used
    fv = labeled_to_fock(state, SYM)
    assert list(fv.terms) == list(plain.terms)
    assert np.allclose(list(fv.terms.values()), c, rtol=0, atol=1e-15)
    assert all(type(m) is int for key in fv.terms for m in key)


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_a_basis_of_another_dimension_raises_the_old_error_first(sector):
    fv = labeled_to_fock(random_sector_state(np.random.default_rng(8), 4, 2, sector), sector)
    for dim in (3, 5):
        with pytest.raises(ValueError, match=f"occupation has 4 modes, basis has {dim}"):
            fock_to_labeled(fv, OneParticleBasis.default(dim))


class TestArrayForms:
    """A Fock vector holds read-only arrays and derives terms from them on first read."""

    @staticmethod
    def bridged(sector, d=4, n=3, seed=5):
        return labeled_to_fock(random_sector_state(np.random.default_rng(seed), d, n, sector), sector)

    @pytest.mark.parametrize("sector", [SYM, ANTI])
    def test_a_round_trip_builds_no_terms(self, sector):
        fv = self.bridged(sector)
        fock_to_labeled(fv, OneParticleBasis.default(4))
        assert "terms" not in vars(fv) and "_occ" not in vars(fv)

    @pytest.mark.parametrize("sector", [SYM, ANTI])
    def test_terms_read_once_behave_as_the_public_constructor_s(self, sector):
        fv = self.bridged(sector)
        terms = fv.terms
        assert fv.terms is terms and "terms" in vars(fv)
        public = FockVector(dict(fv.terms), sector, 3)
        assert fv.terms == public.terms and list(fv.terms) == list(public.terms)
        assert fv == public and public == fv
        assert repr(fv) == repr(public)
        assert pickle.dumps(fv) == pickle.dumps(public)
        for twin in (pickle.loads(pickle.dumps(fv)), copy.deepcopy(fv), dataclasses.replace(fv)):
            assert twin == public and repr(twin) == repr(public)
            assert list(twin.terms) == list(public.terms)
        # each derived form equals the one the other constructor holds
        assert fv._occ.tobytes() == public._occ.tobytes()
        assert fv._flat.tolist() == public._flat.tolist()
        assert fv._values.tobytes() == public._values.tobytes()

    @pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "caller"])
    def test_the_arrays_are_read_only(self, bridge):
        fv = self.bridged(SYM)
        if not bridge:
            fv = FockVector(dict(fv.terms), SYM, 3)
        for name in ("_occ", "_flat", "_values"):
            array = getattr(fv, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_only_the_array_forms_are_derived(self):
        fv = self.bridged(ANTI)
        for name in ("memo", "_orbit", "__deepcopy__"):
            with pytest.raises(AttributeError, match=f"'FockVector' object has no attribute '{name}'"):
                getattr(fv, name)

    def test_threads_reading_terms_first_get_equal_mappings(self):
        fv = self.bridged(SYM, d=8, n=3, seed=9)
        # the same state's terms, read by one thread
        expected = dict(self.bridged(SYM, d=8, n=3, seed=9).terms)
        start = threading.Barrier(8, timeout=30)
        seen = [None] * 8

        def read(k):
            start.wait()
            seen[k] = fv.terms

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(expected) == 120
        assert all(terms == expected and list(terms) == list(expected) for terms in seen)
        assert all(terms is fv.terms for terms in seen)


DERIVE_SIZES = [(3, 2, SYM), (4, 3, ANTI), (5, 3, SYM), (6, 1, ANTI), (1, 4, SYM)]


def picks(count):
    """Class lists of 0, 1 and many classes, out of order and with a repeat where there is room."""
    many = [count - 1, 0, count // 2, 0] if count > 1 else [0, 0]
    return [[], [count - 1], many, list(range(count))]


@pytest.mark.parametrize("made_by", ["bridge", "caller"])
@pytest.mark.parametrize("d,n,sector", DERIVE_SIZES, ids=str)
def test_each_derived_form_equals_the_enumeration(made_by, d, n, sector):
    cls, _, first = exchange.orbit_table(d, n, sector)
    occupations = enumerate_distributions(sector.statistics, n, d)
    for classes in picks(len(occupations)):
        # both conversions, for any number of classes: flat index to row, row to class
        rows = exchange._occupation_rows(first[classes], d, n)
        assert rows.shape == (len(classes), d)
        assert list(map(tuple, rows.tolist())) == [occupations[k] for k in classes]
        keys = [occupations[k] for k in classes]
        flat = fock._sorted_tuple_index(fock._occupation_matrix(keys, d), n, d)
        assert cls[flat].tolist() == classes
        distinct = list(dict.fromkeys(classes))
        if not distinct:
            continue
        values = np.full(len(distinct), len(distinct) ** -0.5 + 0j)
        keys = [occupations[k] for k in distinct]
        if made_by == "bridge":
            # the arrays labeled_to_fock keeps: the rows and terms are derived
            flat = first[distinct]
            flat.setflags(write=False)
            values.setflags(write=False)
            fv = FockVector._trusted(flat, values, d, sector, n)
        else:
            # the rows and terms the constructor keeps: the flat indices are derived
            fv = FockVector(dict(zip(keys, values.tolist())), sector, n)
        assert cls[fv._flat].tolist() == distinct
        assert list(map(tuple, fv._occ.tolist())) == keys
        assert list(fv.terms) == keys
        assert all(type(m) is int for key in fv.terms for m in key)
        assert fv._values.tobytes() == values.tobytes()


def count_rows(monkeypatch):
    """The number of rows of each _occupation_rows call, appended as it runs."""
    built = []
    rows = exchange._occupation_rows

    def counted(first, *size):
        built.append(first.size)
        return rows(first, *size)

    monkeypatch.setattr(exchange, "_occupation_rows", counted)
    return built


@pytest.mark.parametrize("d,n", [(64, 3), (128, 2), (8, 3)], ids=str)
def test_a_sparse_round_trip_counts_only_the_occupations_it_is_asked_for(monkeypatch, cache, d, n):
    built = count_rows(monkeypatch)
    zeros = (0,) * (d - 2)
    ends, double, last = (n - 1,) + zeros + (1,), (0, n) + zeros, zeros + (0, n)
    fv = FockVector({ends: 0.6, double: 0.0, last: 0.8j}, SYM, n)
    back = labeled_to_fock(fock_to_labeled(fv, OneParticleBasis.default(d)), SYM)
    # each class is read at a flat index: no occupation of the table is counted
    assert built == []
    # the zero term is dropped by labeled_to_fock; reading terms counts the two kept, once
    assert list(back.terms) == [ends, last]
    assert back.terms is back.terms and built == [2]
    assert list(cache.tables) == [(d, n, SYM)]
    assert cache.nbytes == sum(a.nbytes for a in exchange.orbit_table(d, n, SYM))


@pytest.mark.parametrize("d,n,sector", [(1824, 1, SYM), (1024, 1, ANTI), (128, 2, SYM)], ids=str)
def test_a_wide_table_gives_the_same_bits_kept_and_uncached(monkeypatch, cache, d, n, sector):
    basis = OneParticleBasis.default(d)
    occ = OccupationState((0,) * (d - n) + (1,) * n, sector)
    fv = FockVector({(1,) * n + (0,) * (d - n): 0.6, occ.occupations: 0.8j}, sector, n)

    def bits():
        state = fock_to_labeled(fv, basis)
        back = labeled_to_fock(state, sector)
        single = occupation_to_labeled(occ, basis)
        assert abs(abs(np.vdot(single.amplitudes, state.amplitudes)) - 0.8) < 1e-15
        return list(back.terms), back._values.tobytes(), state.amplitudes.tobytes(), single.amplitudes.tobytes()

    kept = [bits(), bits()]
    assert kept[0][0] == list(fv.terms)
    assert list(cache.tables) == [(d, n, sector)]
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    assert kept == [bits(), bits()]
    assert exchange._orbit_tables.tables == {}


def test_occupation_state_keeps_a_tuple():
    given = [1, 2, 0]
    occ = OccupationState(given, SYM)
    given[0] = 5
    assert occ.occupations == (1, 2, 0) and occ == OccupationState((1, 2, 0), SYM)


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
