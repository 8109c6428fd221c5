import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from identicals import (
    CapExceeded,
    CountingProblem,
    StatisticsKind,
    SymbolString,
    count_microstates,
    entropy,
    enumerate_distributions,
    enumerate_symbols,
    planck_count,
)
from identicals.counting import Mark, parity

BE = StatisticsKind.BOSE_EINSTEIN
FD = StatisticsKind.FERMI_DIRAC
BOLTZ = StatisticsKind.BOLTZMANN


def test_planck_count_golden_values():
    assert planck_count(CountingProblem(2, 3)) == 4
    assert planck_count(CountingProblem(1, 17)) == 1
    assert planck_count(CountingProblem(4, 7)) == 120


def test_count_microstates_golden_values():
    assert count_microstates(BOLTZ, 3, 2) == 8
    assert count_microstates(BE, 3, 2) == 4
    assert count_microstates(FD, 3, 2) == 0
    assert count_microstates(FD, 2, 2) == 1


def test_enumerate_symbols_two_resonators_three_quanta():
    symbols = enumerate_symbols(CountingProblem(2, 3))
    assert len(symbols) == 4
    assert [s.energies() for s in symbols] == [(0, 3), (1, 2), (2, 1), (3, 0)]
    # lexicographic with SEPARATOR < QUANTUM
    assert [s.as_text() for s in symbols] == ["oeee", "eoee", "eeoe", "eeeo"]


def test_enumerate_symbols_vacuum():
    symbols = enumerate_symbols(CountingProblem(2, 0))
    assert len(symbols) == 1
    assert symbols[0].as_text() == "o"
    assert symbols[0].energies() == (0, 0)


def test_enumerate_symbols_contains_figure_distribution():
    symbols = enumerate_symbols(CountingProblem(4, 7))
    assert len(symbols) == 120
    assert (4, 2, 0, 1) in {s.energies() for s in symbols}


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_symbols_equals_sorted_reference(n):
    for p in range(8):
        symbols = enumerate_symbols(CountingProblem(n, p))
        assert symbols == sorted(symbols, key=lambda s: s.marks)
        assert len(set(symbols)) == planck_count(CountingProblem(n, p))


def test_symbol_round_trip_from_energies():
    s = SymbolString.from_energies((4, 2, 0, 1))
    assert s.as_text() == "eeeeoeeooe"
    assert s.energies() == (4, 2, 0, 1)


def per_mark_text(symbol):
    """Symbol text and energies read one mark at a time, kept as the reference."""
    text = "".join("o" if m is Mark.SEPARATOR else "e" for m in symbol.marks)
    counts = [0]
    for m in symbol.marks:
        if m is Mark.SEPARATOR:
            counts.append(0)
        else:
            counts[-1] += 1
    return text, tuple(counts)


@pytest.mark.parametrize("n_res", range(1, 7))
def test_symbol_text_and_energies_match_the_per_mark_reading(n_res):
    for n_quanta in range(0, 7):
        for symbol in enumerate_symbols(CountingProblem(n_res, n_quanta)):
            assert (symbol.as_text(), symbol.energies()) == per_mark_text(symbol)


@pytest.mark.parametrize("n_res", range(1, 7))
@pytest.mark.parametrize("n_quanta", range(0, 9))
def test_symbol_count_matches_planck_formula(n_res, n_quanta):
    problem = CountingProblem(n_res, n_quanta)
    symbols = enumerate_symbols(problem)
    assert len(symbols) == planck_count(problem)
    assert len(set(symbols)) == len(symbols)


def test_symbols_biject_onto_bose_occupations():
    problem = CountingProblem(3, 4)
    from_symbols = {s.energies() for s in enumerate_symbols(problem)}
    occupations = set(enumerate_distributions(BE, 4, 3))
    assert from_symbols == occupations


def test_enumerate_distributions_golden():
    assert enumerate_distributions(BE, 3, 2) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert enumerate_distributions(FD, 2, 2) == [(1, 1)]
    assert enumerate_distributions(BOLTZ, 2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(n=st.integers(0, 12), d=st.integers(1, 8))
def test_bose_count_equals_planck_oscillator_count(n, d):
    assert count_microstates(BE, n, d) == planck_count(CountingProblem(d, n))


@given(n=st.integers(1, 12), d=st.integers(1, 8))
def test_count_ordering(n, d):
    assert (
        count_microstates(BOLTZ, n, d)
        >= count_microstates(BE, n, d)
        >= count_microstates(FD, n, d)
    )


@given(n=st.integers(0, 6), d=st.integers(1, 5))
def test_distribution_lists_match_counts(n, d):
    for kind in StatisticsKind:
        assert len(enumerate_distributions(kind, n, d)) == count_microstates(kind, n, d)


def test_counts_are_exact_integers():
    big = planck_count(CountingProblem(100, 500))
    assert isinstance(big, int)
    assert big == math.comb(599, 500)


def test_entropy():
    assert entropy(1) == 0.0
    assert entropy(4) == pytest.approx(1.386294361, abs=1e-9)
    assert entropy(8) == pytest.approx(3 * math.log(2), abs=1e-12)
    assert entropy(8) > entropy(4)
    assert entropy(4, k=2.5) == pytest.approx(2.5 * math.log(4), abs=1e-12)
    with pytest.raises(ValueError):
        entropy(0)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_symbols(CountingProblem(30, 30))
    with pytest.raises(CapExceeded):
        enumerate_distributions(BOLTZ, 30, 10)


def test_invalid_problems():
    # the resonators are checked first
    with pytest.raises(ValueError, match="^need at least one resonator$"):
        CountingProblem(0, 3)
    with pytest.raises(ValueError, match="^need at least one resonator$"):
        CountingProblem(0, -1)
    with pytest.raises(ValueError, match="^quantum count must be non-negative$"):
        CountingProblem(2, -1)
    with pytest.raises(ValueError, match="^quantum count must be non-negative$"):
        CountingProblem(n_quanta=-1, n_resonators=1)


def cycle_count(mapping):
    seen, cycles = set(), 0
    for start in mapping:
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = mapping[start]
    return cycles


@pytest.mark.parametrize("n", range(7))
def test_parity_is_the_sign_given_by_the_cycle_count(n):
    # a permutation of n items with c cycles is a product of n - c transpositions
    for mapping in itertools.permutations(range(n)):
        assert parity(mapping) == (-1) ** (n - cycle_count(mapping)), mapping


def reference_compositions(n, d):
    """Bose-Einstein occupations summing to n, descending lexicographically, by recursion."""
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in reference_compositions(n - first, d - 1):
            yield (first,) + rest


@pytest.mark.parametrize("d", range(1, 8))
def test_bose_einstein_enumeration_matches_the_recursive_reference(d):
    for n in range(0, 7):
        assert enumerate_distributions(BE, n, d) == list(reference_compositions(n, d))


def test_bose_einstein_enumeration_has_no_depth_limit():
    # one recursion frame per mode used to hit the interpreter's recursion limit
    occs = enumerate_distributions(BE, 1, 1500)
    assert len(occs) == 1500
    assert occs[0] == (1,) + (0,) * 1499
    assert occs[-1] == (0,) * 1499 + (1,)


# ---------------------------------------------- value semantics of the two classes
# CountingProblem and SymbolString compare, hash, print, copy and match by
# their field tuples, as frozen dataclasses do, and are never changed in place.

SEP, QUANTUM = Mark.SEPARATOR, Mark.QUANTUM
MARKS = (QUANTUM, QUANTUM, SEP, SEP, QUANTUM)

#: (value, an equal value built apart, a value of other fields, its field tuple)
VALUES = [
    (CountingProblem(2, 3), CountingProblem(2, 3), CountingProblem(3, 2), (2, 3)),
    (SymbolString(MARKS), SymbolString.from_energies((2, 0, 1)), SymbolString(MARKS[::-1]), (MARKS,)),
]
VALUE_IDS = ["CountingProblem", "SymbolString"]


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_are_equal_only_to_their_class_with_equal_fields(value, twin, other, fields):
    assert value is not twin
    assert value == twin and not value != twin
    assert value != other and not value == other
    # a tuple of the same fields is not the value, in either order
    assert value != fields and fields != value
    assert not value == fields
    assert value.__eq__(fields) is NotImplemented
    assert CountingProblem(1, 0) != SymbolString(())


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_hash_as_their_field_tuple(value, twin, other, fields):
    assert hash(value) == hash(twin) == hash(fields)
    assert len({value, twin, other}) == 2


def test_the_symbols_of_a_problem_are_distinct_in_a_set():
    symbols = enumerate_symbols(CountingProblem(4, 7))
    assert len(set(symbols)) == len(symbols) == 120
    assert len(set(symbols + enumerate_symbols(CountingProblem(4, 7)))) == 120


def test_values_print_as_their_constructor_call():
    assert repr(CountingProblem(2, 3)) == "CountingProblem(n_resonators=2, n_quanta=3)"
    assert repr(SymbolString((QUANTUM, SEP))) == (
        "SymbolString(marks=(<Mark.QUANTUM: 1>, <Mark.SEPARATOR: 0>))"
    )
    assert repr(SymbolString(())) == "SymbolString(marks=())"


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_refuse_assignment_and_deletion(value, twin, other, fields):
    name = type(value).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert not hasattr(value, "no_such_field")
    assert value == twin


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_survive_pickle_and_copies(value, twin, other, fields):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value, protocol
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value
        assert hash(back) == hash(value)


def test_values_take_their_fields_by_keyword():
    assert CountingProblem(n_resonators=2, n_quanta=3) == CountingProblem(2, 3)
    assert CountingProblem(2, n_quanta=3) == CountingProblem(2, 3)
    assert SymbolString(marks=MARKS) == SymbolString(MARKS)
    with pytest.raises(TypeError):
        CountingProblem(2)
    with pytest.raises(TypeError):
        CountingProblem(2, 3, 4)
    with pytest.raises(TypeError):
        CountingProblem(2, n_resonators=3)
    with pytest.raises(TypeError):
        SymbolString(marks=MARKS, quanta=3)


def test_values_match_their_fields_by_position():
    assert CountingProblem.__match_args__ == ("n_resonators", "n_quanta")
    assert SymbolString.__match_args__ == ("marks",)
    match CountingProblem(2, 3):
        case CountingProblem(k, p):
            assert (k, p) == (2, 3)
        case _:
            pytest.fail("CountingProblem did not match its two fields")
    match SymbolString(MARKS):
        case CountingProblem():
            pytest.fail("a SymbolString matched CountingProblem")
        case SymbolString(marks):
            assert marks == MARKS
        case _:
            pytest.fail("SymbolString did not match its field")

