"""The occupation memo kept with each orbit table.

labeled_to_fock reads each class's occupation, and fock_to_labeled and
occupation_to_labeled each occupation's class, from a memo kept with the
orbit table (exchange._OrbitEntry).  These tests show that the memo changes
no result and no error, holds only the classes some call asked for, as
tuples of Python ints, and keeps the held bytes within
exchange.ORBIT_CACHE_BYTES.  A round trip of a state at the edge of the
unit-norm rule never raises.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from identicals import (
    ExchangeSector,
    FockVector,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    enumerate_distributions,
    exchange,
    fock_to_labeled,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
    states,
)
from identicals.fock import VACUUM

from conftest import edge_state, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]


@pytest.fixture
def cache(monkeypatch):
    """An empty cache for the test, so no other test's tables or memos are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


def entry_of(d, n, sector):
    return exchange._orbit_tables.tables[(d, n, sector)]


def held_bytes(held):
    """The cache's byte total, recounted from its entries."""
    return sum(entry.size() for entry in held.tables.values())


def sparse_state(d, n, sector, rng, k):
    """A random superposition of k sector basis vectors, from sector_basis alone."""
    basis = sector_basis(d, n, sector)
    if not basis:
        return None
    picks = rng.choice(len(basis), size=min(k, len(basis)), replace=False)
    c = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
    amps = sum(ck * basis[p].amplitudes for ck, p in zip(c, picks))
    return LabeledState(n, basis[0].basis, amps / np.linalg.norm(amps))


def bridge_bits(d, n, sector, inputs):
    """Every result of the three memo readers on the inputs, as exact bits."""
    basis = OneParticleBasis.default(d)
    out = []
    for state in inputs:
        fv = labeled_to_fock(state, sector)
        assert all(type(k) is tuple and all(type(m) is int for m in k) for k in fv.terms)
        values = np.array(list(fv.terms.values()), dtype=complex)
        back = fock_to_labeled(fv, basis)
        out.append((list(fv.terms), values.tobytes(), back.amplitudes.tobytes()))
    for occ in enumerate_distributions(sector.statistics, n, d):
        out.append(occupation_to_labeled(OccupationState(occ, sector), basis).amplitudes.tobytes())
    return out


@pytest.mark.parametrize("d,n,sector", SIZES, ids=str)
def test_results_are_bit_identical_cold_warm_and_uncached(monkeypatch, cache, d, n, sector):
    rng = np.random.default_rng(1800 + 10 * d + n)
    inputs = [
        s
        for s in (sparse_state(d, n, sector, rng, 2), random_sector_state(rng, d, n, sector))
        if s is not None
    ]
    # the sparse state first: the dense one then finds some classes and misses the rest
    cold = bridge_bits(d, n, sector, inputs)
    if inputs:
        assert len(entry_of(d, n, sector).occupation) == len(sector_basis(d, n, sector))
    warm = bridge_bits(d, n, sector, inputs)
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    uncached = bridge_bits(d, n, sector, inputs)
    assert exchange._orbit_tables.tables == {} and exchange._orbit_tables.nbytes == 0
    assert cold == warm == uncached
    for terms, _, _ in cold[: len(inputs)]:
        # kept terms follow the occupation enumeration
        order = enumerate_distributions(sector.statistics, n, d)
        assert terms == sorted(terms, key=order.index)


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
    # a refused call remembers nothing
    assert all(not entry.occupation for entry in cache.tables.values())
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
        assert (1, 2, 0) in entry_of(3, 3, SYM).cls
    with pytest.raises(TypeError):
        occupation_to_labeled(OccupationState((1.0, 2.0, 0.0), SYM), basis)


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
    entry = entry_of(4, 2, SYM)
    for key, k in entry.cls.items():
        assert type(key) is tuple and all(type(m) is int for m in key)
        assert type(k) is int and entry.occupation[k] is key
    fv = labeled_to_fock(state, SYM)
    assert list(fv.terms) == list(plain.terms)
    assert np.allclose(list(fv.terms.values()), c, rtol=0, atol=1e-15)
    assert all(type(m) is int for key in fv.terms for m in key)


@pytest.mark.parametrize("d,n,count", [(256, 2, 32896), (8, 3, 120)])
def test_a_sparse_state_stores_only_its_classes(cache, d, n, count):
    zeros = (0,) * (d - 2)
    ends, double, last = (n - 1,) + zeros + (1,), (0, n) + zeros, zeros + (0, n)
    fv = FockVector({ends: 0.6, double: 0.0, last: 0.8j}, SYM, n)
    basis = OneParticleBasis.default(d)
    back = labeled_to_fock(fock_to_labeled(fv, basis), SYM)
    entry = entry_of(d, n, SYM)
    assert entry.tables[2].size == count
    assert len(entry.occupation) == len(entry.cls) == 3
    # the zero term is dropped by labeled_to_fock but its class was asked for
    assert list(back.terms) == [ends, last]


def test_memo_bytes_bound_what_it_allocates(cache):
    state = random_sector_state(np.random.default_rng(6), 6, 4, SYM)
    labeled_to_fock(random_sector_state(np.random.default_rng(5), 5, 4, SYM), SYM)
    exchange.orbit_table(6, 4, SYM)
    entry = entry_of(6, 4, SYM)
    arrays = entry.size()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fv = labeled_to_fock(state, SYM)
        del fv
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(entry.occupation) == 126
    memo = entry.size() - arrays
    assert cache.nbytes == held_bytes(cache)
    assert 0 < allocated <= memo
    # the count itself: two hash tables, one tuple and one class int per class
    tables = sys.getsizeof(entry.occupation) + sys.getsizeof(entry.cls) - 2 * sys.getsizeof({})
    assert memo == tables + 126 * (sys.getsizeof((0,) * 6) + 32)


def test_a_growing_memo_evicts_the_least_recently_used_table(monkeypatch, cache):
    small = (3, 3, SYM)
    big = (8, 3, SYM)
    state = random_sector_state(np.random.default_rng(8), 8, 3, SYM)
    exchange.orbit_table(*small)
    labeled_to_fock(state, SYM)
    sizes = {key: cache.tables[key].size() for key in (small, big)}
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    # room for both tables, and for the big table with its memo, not for all three
    budget = sum(sizes.values()) - 1
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
    exchange.orbit_table(*small)
    exchange.orbit_table(*big)
    assert list(held.tables) == [small, big]
    fv = labeled_to_fock(state, SYM)
    assert list(held.tables) == [big]
    assert len(held.tables[big].occupation) == len(fv.terms) == 120
    assert held.nbytes == held_bytes(held) <= budget


def test_an_entry_the_memo_would_take_past_the_budget(monkeypatch, cache):
    key = (8, 3, SYM)
    arrays = sum(a.nbytes for a in exchange.orbit_table(*key))
    per_class = exchange._TUPLE_BYTES + 8 * exchange._TUPLE_ITEM_BYTES + exchange._INT_BYTES
    state = random_sector_state(np.random.default_rng(9), 8, 3, SYM)
    expected = labeled_to_fock(state, SYM).terms
    # the tuples and ints alone do not fit: the table stays, the memo takes nothing
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", arrays + 120 * per_class - 1)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    assert labeled_to_fock(state, SYM).terms == expected
    assert list(held.tables) == [key] and not held.tables[key].occupation
    assert held.nbytes == arrays
    # they fit, the hash tables do not: the entry is dropped and the cache is empty
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", arrays + 120 * per_class)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    assert labeled_to_fock(state, SYM).terms == expected
    assert held.tables == {} and held.nbytes == 0


@pytest.mark.parametrize("seed", range(4))
def test_round_trips_at_the_edge_of_the_unit_norm_rule_never_raise(seed):
    for d, n, sector in SIZES:
        for edge in (-1, 1):
            state = edge_state(d, n, sector, 1000 * seed + 10 * d + n, edge)
            if state is None:
                continue
            back = fock_to_labeled(labeled_to_fock(state, sector), state.basis)
            assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-9


@pytest.mark.parametrize("d,n,sector", [(3, 3, SYM), (4, 3, ANTI), (5, 2, SYM)], ids=str)
def test_amplitudes_within_the_rule_are_not_divided(d, n, sector):
    fv = labeled_to_fock(edge_state(d, n, sector, 7, 0), sector)
    cls, amp, first = exchange.orbit_table(d, n, sector)
    order = enumerate_distributions(sector.statistics, n, d)
    coeffs = np.zeros(first.size + 1, dtype=complex)
    for occ, c in fv.terms.items():
        coeffs[order.index(occ)] = c
    direct = coeffs[cls] * amp
    assert not states.off_unit_norm(states.norm(direct))
    back = fock_to_labeled(fv, OneParticleBasis.default(d))
    assert back.amplitudes.tobytes() == direct.tobytes()
