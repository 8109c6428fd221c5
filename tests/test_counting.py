import copy
import itertools
import math
import pickle
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from identicals import (
    BeamSplitterScenario,
    CapExceeded,
    CountingProblem,
    DensityGrid,
    EmergenceReport,
    ExchangeSector,
    ExperimentResult,
    FockVector,
    GaussianPacket,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    Permutation,
    StatisticsKind,
    SymbolString,
    Verdict,
    count_microstates,
    entropy,
    enumerate_distributions,
    enumerate_symbols,
    parse_symbol,
    planck_count,
)
from identicals.counting import Mark, _Value, parity
from identicals.emergence import occupation_report

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


# ------------------------------------------- value semantics of the twelve classes
# Every value class of the package compares, hashes, prints, copies and
# matches by its field tuple, as a frozen dataclass does, and is never
# changed in place.  An array, dict, list or mapping field makes hash raise,
# and == compares arrays as a tuple comparison does.

SEP, QUANTUM = Mark.SEPARATOR, Mark.QUANTUM
MARKS = (QUANTUM, QUANTUM, SEP, SEP, QUANTUM)
SYM = ExchangeSector.SYMMETRIC
AB = OneParticleBasis(("a", "b"))
AMPS = np.array([0.6, 0.8j])
SCENARIO = BeamSplitterScenario()
SPLITTER = SCENARIO.splitter
JOINT = {(("L", "up"), ("R", "down")): 1.0}
CHI = np.array([0.0, 1.0, 0.0, 0.0])
X = np.array([0.0, 1.0])
RHO = np.array([[0.5, 0.0], [0.0, 0.5]])
TERMS = {(1, 1): 0.6, (2, 0): 0.8j}
SPINS = ("up", "down")

#: (value, an equal value built apart, a value of other fields, its field tuple)
VALUES = [
    (CountingProblem(2, 3), CountingProblem(2, 3), CountingProblem(3, 2), (2, 3)),
    (SymbolString(MARKS), SymbolString.from_energies((2, 0, 1)), SymbolString(MARKS[::-1]), (MARKS,)),
    (AB, OneParticleBasis(labels=("a", "b")), OneParticleBasis(("a", "b"), (0.0, 1.5)), (("a", "b"), None)),
    (Permutation((1, 0, 2)), Permutation.swap(3, 0, 1), Permutation.identity(3), ((1, 0, 2),)),
    (LabeledState(1, AB, AMPS), LabeledState(1, OneParticleBasis(("a", "b")), AMPS),
     LabeledState(1, OneParticleBasis(("a", "c")), AMPS), (1, AB, AMPS)),
    (OccupationState((2, 0, 1), SYM), OccupationState([2, 0, 1], SYM),
     OccupationState((1, 1, 1), SYM), ((2, 0, 1), SYM)),
    (FockVector(TERMS, SYM, 2), FockVector(dict(TERMS), SYM, 2),
     FockVector({(1, 1): 0.8, (2, 0): 0.6}, SYM, 2), (MappingProxyType(TERMS), SYM, 2)),
    (EmergenceReport(Verdict.CONDENSED_OBJECT, [(0, 2)], 1.0, [1.0, 0.0]),
     occupation_report(parse_symbol("f_{e1e1}", 2)), EmergenceReport(Verdict.NO_PARTICLE_DECOMPOSITION),
     (Verdict.CONDENSED_OBJECT, [(0, 2)], 1.0, [1.0, 0.0])),
    (SCENARIO, BeamSplitterScenario(("L", "R"), splitter=SPLITTER),
     BeamSplitterScenario(spins=("down", "up"), splitter=SPLITTER),
     (("L", "R"), ("L'", "R'"), SPINS, SPLITTER)),
    (ExperimentResult(JOINT, 0.0, 0.0, 1.0, CHI, {"sz_sz": -1.0}),
     ExperimentResult(JOINT, 0.0, 0.0, 1.0, CHI, {"sz_sz": -1.0}),
     ExperimentResult(JOINT, 0.5, 0.0, 0.5, CHI, {"sz_sz": -1.0}),
     (JOINT, 0.0, 0.0, 1.0, CHI, {"sz_sz": -1.0})),
    (GaussianPacket(0.0, 1.0), GaussianPacket(center=0.0, width=1.0, phase_velocity=0.0),
     GaussianPacket(0.0, 1.0, 2.0), (0.0, 1.0, 0.0)),
    (DensityGrid(X, RHO, 0.25), DensityGrid(X, RHO, 0.25), DensityGrid(X, RHO, 0.5), (X, RHO, 0.25)),
]
VALUE_IDS = [type(value).__name__ for value, *_ in VALUES]

#: the field names each class matches by position, as @dataclass named them
MATCH_ARGS = {
    "CountingProblem": ("n_resonators", "n_quanta"),
    "SymbolString": ("marks",),
    "OneParticleBasis": ("labels", "energies"),
    "Permutation": ("mapping",),
    "LabeledState": ("n_slots", "basis", "amplitudes"),
    "OccupationState": ("occupations", "sector"),
    "FockVector": ("terms", "sector", "total_number"),
    "EmergenceReport": ("verdict", "defining_states", "fidelity", "natural_spectrum"),
    "BeamSplitterScenario": ("spatial_in", "spatial_out", "spins", "splitter"),
    "ExperimentResult": (
        "joint_probabilities", "p_both_left", "p_both_right", "p_coincidence",
        "conditional_coincidence_spin_state", "correlators",
    ),
    "GaussianPacket": ("center", "width", "phase_velocity"),
    "DensityGrid": ("x", "values", "cross_term_max"),
}

#: the type whose instances make hash raise, for the classes with such a field
UNHASHABLE = {
    "LabeledState": "numpy.ndarray",
    "FockVector": "mappingproxy",
    "EmergenceReport": "list",
    "BeamSplitterScenario": "numpy.ndarray",
    "ExperimentResult": "dict",
    "DensityGrid": "numpy.ndarray",
}

#: repr of each value of VALUES, as the frozen dataclasses printed them
REPRS = {
    "CountingProblem": "CountingProblem(n_resonators=2, n_quanta=3)",
    "SymbolString": (
        "SymbolString(marks=(<Mark.QUANTUM: 1>, <Mark.QUANTUM: 1>, <Mark.SEPARATOR: 0>, "
        "<Mark.SEPARATOR: 0>, <Mark.QUANTUM: 1>))"
    ),
    "OneParticleBasis": "OneParticleBasis(labels=('a', 'b'), energies=None)",
    "Permutation": "Permutation(mapping=(1, 0, 2))",
    # the amplitudes are left out
    "LabeledState": "LabeledState(n_slots=1, basis=OneParticleBasis(labels=('a', 'b'), energies=None))",
    "OccupationState": (
        "OccupationState(occupations=(2, 0, 1), sector=<ExchangeSector.SYMMETRIC: 'symmetric'>)"
    ),
    "FockVector": (
        "FockVector(terms=mappingproxy({(1, 1): 0.6, (2, 0): 0.8j}), "
        "sector=<ExchangeSector.SYMMETRIC: 'symmetric'>, total_number=2)"
    ),
    "EmergenceReport": (
        "EmergenceReport(verdict=<Verdict.CONDENSED_OBJECT: 'CONDENSED_OBJECT'>, "
        "defining_states=[(0, 2)], fidelity=1.0, natural_spectrum=[1.0, 0.0])"
    ),
    "BeamSplitterScenario": (
        "BeamSplitterScenario(spatial_in=('L', 'R'), spatial_out=(\"L'\", \"R'\"), "
        "spins=('up', 'down'), splitter=array([[ 0.70710678+0.j,  0.70710678+0.j],\n"
        "       [ 0.70710678+0.j, -0.70710678+0.j]]))"
    ),
    "ExperimentResult": (
        "ExperimentResult(joint_probabilities={(('L', 'up'), ('R', 'down')): 1.0}, "
        "p_both_left=0.0, p_both_right=0.0, p_coincidence=1.0, "
        "conditional_coincidence_spin_state=array([0., 1., 0., 0.]), correlators={'sz_sz': -1.0})"
    ),
    "GaussianPacket": "GaussianPacket(center=0.0, width=1.0, phase_velocity=0.0)",
    "DensityGrid": (
        "DensityGrid(x=array([0., 1.]), values=array([[0.5, 0. ],\n"
        "       [0. , 0.5]]), cross_term_max=0.25)"
    ),
}


def fields_of(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def same(a, b) -> bool:
    """Whether a and b are values of one class with equal fields, arrays compared entry by entry."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(fields_of(a), fields_of(b), strict=True)
    )


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


#: (value, its field tuple) of the classes with an array field
ARRAY_VALUES = [
    (value, fields) for value, _, _, fields in VALUES if any(isinstance(f, np.ndarray) for f in fields)
]


@pytest.mark.parametrize("value,fields", ARRAY_VALUES, ids=[type(v).__name__ for v, _ in ARRAY_VALUES])
def test_array_fields_compare_as_in_a_tuple(value, fields):
    copies = [f.copy() if isinstance(f, np.ndarray) else f for f in fields]
    # equal arrays that are not one object: == asks the truth of an array
    with pytest.raises(ValueError, match="truth value of an array"):
        value == type(value)(*copies)  # noqa: B015 - the comparison is what raises
    with pytest.raises(ValueError, match="truth value of an array"):
        fields == tuple(copies)  # noqa: B015


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_hash_as_their_field_tuple(value, twin, other, fields):
    unhashable = UNHASHABLE.get(type(value).__name__)
    if unhashable is None:
        assert hash(value) == hash(twin) == hash(fields)
        assert len({value, twin, other}) == 2
        return
    for item in (value, twin, fields):
        with pytest.raises(TypeError, match=f"^unhashable type: '{unhashable}'$"):
            hash(item)


def test_the_symbols_of_a_problem_are_distinct_in_a_set():
    symbols = enumerate_symbols(CountingProblem(4, 7))
    assert len(set(symbols)) == len(symbols) == 120
    assert len(set(symbols + enumerate_symbols(CountingProblem(4, 7)))) == 120


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_print_as_their_constructor_call(value, twin, other, fields):
    assert repr(value) == repr(twin) == REPRS[type(value).__name__]
    assert repr(SymbolString(())) == "SymbolString(marks=())"


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_refuse_assignment_and_deletion(value, twin, other, fields):
    for name, field in zip(type(value).__match_args__, fields):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert not hasattr(value, "no_such_field")
    assert same(value, twin)


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_survive_pickle_and_copies(value, twin, other, fields):
    backs = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    backs += [copy.copy(value), copy.deepcopy(value), value.__replace__()]
    if hasattr(copy, "replace"):  # Python 3.13 on
        backs.append(copy.replace(value))
    for back in backs:
        assert back is not value and same(back, value)
        if type(value).__name__ not in UNHASHABLE:
            assert hash(back) == hash(value)
    names = type(value).__match_args__
    # each field replaced by the other value's: the other value, built through the constructor
    assert same(value.__replace__(**dict(zip(names, fields_of(other)))), other)
    assert same(value.__replace__(**{names[0]: fields[0]}), value)
    with pytest.raises(TypeError):
        value.__replace__(no_such_field=1)


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_take_their_fields_by_keyword(value, twin, other, fields):
    names = type(value).__match_args__
    assert same(type(value)(**dict(zip(names, fields))), value)
    assert same(type(value)(*fields[:1], **dict(zip(names[1:], fields[1:]))), value)
    with pytest.raises(TypeError):
        type(value)(*fields, no_such_field=1)
    with pytest.raises(TypeError):
        type(value)(*fields, *fields)
    with pytest.raises(TypeError):
        type(value)(*fields, **{names[0]: fields[0]})


def test_values_keep_their_defaults():
    with pytest.raises(TypeError):
        CountingProblem(2)
    assert OneParticleBasis(("a",)).energies is None
    assert GaussianPacket(1.0, 2.0).phase_velocity == 0.0
    assert fields_of(BeamSplitterScenario())[:3] == (("L", "R"), ("L'", "R'"), SPINS)
    # a new splitter, and new empty lists, on every call
    first, second = BeamSplitterScenario(), BeamSplitterScenario()
    assert first.splitter is not second.splitter
    assert np.array_equal(first.splitter, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    first, second = EmergenceReport(Verdict.CONDENSED_OBJECT), EmergenceReport(Verdict.CONDENSED_OBJECT)
    assert fields_of(first)[1:] == ([], 0.0, [])
    assert first.defining_states is not second.defining_states
    assert first.natural_spectrum is not second.natural_spectrum


def test_every_value_class_names_its_fields_once():
    # the field tuple comes from __match_args__ alone: no subclass writes its own _fields
    classes, todo = set(), [_Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes.update(subclasses)
        todo.extend(subclasses)
    assert {cls.__name__ for cls in classes} == set(MATCH_ARGS)
    assert [cls.__name__ for cls in classes if "_fields" in vars(cls)] == []
    assert "_fields" in vars(_Value)


@pytest.mark.parametrize("value,twin,other,fields", VALUES, ids=VALUE_IDS)
def test_values_match_their_fields_by_position(value, twin, other, fields):
    cls = type(value)
    assert cls.__match_args__ == MATCH_ARGS[cls.__name__]
    match value:
        case CountingProblem() if cls is not CountingProblem:
            pytest.fail(f"a {cls.__name__} matched CountingProblem")
        case cls(first):
            assert first is getattr(value, cls.__match_args__[0])
        case _:
            pytest.fail(f"{cls.__name__} did not match its first field")
    match CountingProblem(2, 3):
        case CountingProblem(k, p):
            assert (k, p) == (2, 3)
        case _:
            pytest.fail("CountingProblem did not match its two fields")
