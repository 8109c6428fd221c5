import math

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
from identicals.counting import Mark

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
    with pytest.raises(ValueError):
        CountingProblem(0, 3)
    with pytest.raises(ValueError):
        CountingProblem(2, -1)


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
