"""The occupation memo kept with each orbit table.

labeled_to_fock reads each class's occupation, and fock_to_labeled and
occupation_to_labeled each occupation's class, from a memo kept with the
orbit table (exchange._OrbitEntry).  The first bridge call on a kept table
builds the memo whole, if its charge fits exchange.ORBIT_CACHE_BYTES, and
it never changes again.  These tests show that the memo changes no result
and no error, whether it is cold, warm or absent, that it holds every class
as tuples of Python ints, and that the held bytes stay within the budget.
A round trip of a state at the edge of the unit-norm rule never raises.
"""

import gc
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

from conftest import (
    assert_whole_memo,
    basis_charge,
    edge_state,
    entry_bytes,
    memo_charge,
    random_sector_state,
)

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


def table_bytes(d, n, sector):
    return sum(a.nbytes for a in exchange.orbit_table(d, n, sector))


def table_charge(d, n, sector):
    """The bytes charged for a whole memo of the table."""
    return memo_charge(d, exchange.orbit_table(d, n, sector)[2].size)


def held_bytes(held):
    """The cache's byte total, recounted from its entries."""
    return sum(map(entry_bytes, held.tables.values()))


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
def test_results_are_bit_identical_cold_warm_absent_and_uncached(monkeypatch, cache, d, n, sector):
    rng = np.random.default_rng(1800 + 10 * d + n)
    inputs = [
        s
        for s in (sparse_state(d, n, sector, rng, 2), random_sector_state(rng, d, n, sector))
        if s is not None
    ]
    # an empty sector (more fermions than modes) has no bridge call to make
    key = [(d, n, sector)] if inputs else []
    cold = bridge_bits(d, n, sector, inputs)
    memos = [entry_of(*k).memo for k in key]
    for k in key:
        assert_whole_memo(entry_of(*k))
    warm = bridge_bits(d, n, sector, inputs)
    # set once, never changed
    assert all(entry_of(*k).memo is memo for k, memo in zip(key, memos))
    # the table is kept, its memo does not fit
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", table_bytes(d, n, sector))
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    absent = bridge_bits(d, n, sector, inputs)
    assert list(exchange._orbit_tables.tables) == key
    assert all(entry_of(*k).memo is None for k in key)
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    uncached = bridge_bits(d, n, sector, inputs)
    assert exchange._orbit_tables.tables == {} and exchange._orbit_tables.nbytes == 0
    assert cold == warm == absent == uncached
    for terms, _, _ in cold[: len(inputs)]:
        # kept terms follow the occupation enumeration
        order = enumerate_distributions(sector.statistics, n, d)
        assert terms == sorted(terms, key=order.index)


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
    # a refused call builds no memo
    assert cache.tables and all(entry.memo is None for entry in cache.tables.values())
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
        assert (1, 2, 0) in entry_of(3, 3, SYM).memo[1]
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
    # every stored key is a tuple of Python ints the memo built
    assert_whole_memo(entry_of(4, 2, SYM))
    fv = labeled_to_fock(state, SYM)
    assert list(fv.terms) == list(plain.terms)
    assert np.allclose(list(fv.terms.values()), c, rtol=0, atol=1e-15)
    assert all(type(m) is int for key in fv.terms for m in key)


def count_rows(monkeypatch):
    """The number of classes of each _occupation_rows call, appended as it runs."""
    built = []
    rows = exchange._occupation_rows

    def counted(first, *size):
        built.append(first.size)
        return rows(first, *size)

    monkeypatch.setattr(exchange, "_occupation_rows", counted)
    return built


def over_ratio(d, n, sector):
    """Whether the table's memo would charge more than _MEMO_TABLE_RATIO times its arrays."""
    classes = table_charge(d, n, sector) - exchange._MEMO_BYTES
    return classes > exchange._MEMO_TABLE_RATIO * table_bytes(d, n, sector)


@pytest.mark.parametrize(
    "d,n,count,why",
    [(64, 3, 45760, "budget"), (128, 2, 8256, "ratio"), (8, 3, 120, None)],
)
def test_a_sparse_state_gets_the_whole_memo_or_none(monkeypatch, cache, d, n, count, why):
    built = count_rows(monkeypatch)
    zeros = (0,) * (d - 2)
    ends, double, last = (n - 1,) + zeros + (1,), (0, n) + zeros, zeros + (0, n)
    fv = FockVector({ends: 0.6, double: 0.0, last: 0.8j}, SYM, n)
    basis = OneParticleBasis.default(d)
    back = labeled_to_fock(fock_to_labeled(fv, basis), SYM)
    # the zero term is dropped by labeled_to_fock
    assert list(back.terms) == [ends, last]
    entry = entry_of(d, n, SYM)
    assert entry.tables[2].size == count
    over_budget = table_bytes(d, n, SYM) + table_charge(d, n, SYM) > exchange.ORBIT_CACHE_BYTES
    assert (over_budget, over_ratio(d, n, SYM)) == (why == "budget", why == "ratio")
    if why is None:
        assert_whole_memo(entry)
        assert built == [count]
    else:
        # the table is kept; its memo is refused, so none is built
        assert entry.memo is None and count not in built
    assert cache.nbytes == held_bytes(cache) == entry_bytes(entry)


@pytest.mark.parametrize("d,n,sector", [(1824, 1, SYM), (1024, 1, ANTI), (128, 2, SYM)], ids=str)
def test_a_memo_many_times_its_table_is_never_built(monkeypatch, cache, d, n, sector):
    built = count_rows(monkeypatch)
    basis = OneParticleBasis.default(d)
    occ = OccupationState((0,) * (d - n) + (1,) * n, sector)
    fv = FockVector({(1,) * n + (0,) * (d - n): 0.6, occ.occupations: 0.8j}, sector, n)
    assert over_ratio(d, n, sector)
    assert table_bytes(d, n, sector) + table_charge(d, n, sector) <= exchange.ORBIT_CACHE_BYTES

    def bits():
        state = fock_to_labeled(fv, basis)
        back = labeled_to_fock(state, sector)
        single = occupation_to_labeled(occ, basis)
        values = np.array(list(back.terms.values()))
        return list(back.terms), values.tobytes(), state.amplitudes.tobytes(), single.amplitudes.tobytes()

    kept = [bits(), bits()]
    entry = entry_of(d, n, sector)
    assert entry.memo is None and cache.nbytes == table_bytes(d, n, sector)
    # each call counts its two classes' occupations, never the whole table's
    assert built == [2, 2]
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    assert kept == [bits(), bits()]


def test_the_memo_ratio_is_a_sharp_bound(monkeypatch, cache):
    key = (8, 3, SYM)
    ratio = (table_charge(*key) - exchange._MEMO_BYTES) / table_bytes(*key)
    for bound, memo in ((ratio * (1 - 1e-9), False), (ratio * (1 + 1e-9), True)):
        monkeypatch.setattr(exchange, "_MEMO_TABLE_RATIO", bound)
        monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
        occupation_to_labeled(OccupationState((1, 2, 0, 0, 0, 0, 0, 0), SYM), OneParticleBasis.default(8))
        assert (entry_of(*key).memo is not None) is memo


def test_an_entry_no_longer_kept_builds_no_memo(monkeypatch, cache):
    built = count_rows(monkeypatch)
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    # never kept: the budget is smaller than the table
    assert exchange._occupation_memo(exchange._orbit_entry(4, 3, SYM)) is None
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", table_bytes(4, 3, SYM) + table_charge(4, 3, SYM))
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    entry = exchange._orbit_entry(4, 3, SYM)
    # evicted by a later table before its first bridge call
    exchange.orbit_table(4, 3, ANTI)
    exchange.orbit_table(6, 3, SYM)
    assert (4, 3, SYM) not in exchange._orbit_tables.tables
    assert exchange._occupation_memo(entry) is None
    assert entry.memo is None and built == []


def test_a_table_only_sector_basis_touches_gets_no_memo(cache):
    sector_basis(4, 3, SYM)
    exchange.orbit_table(4, 3, SYM)
    entry = entry_of(4, 3, SYM)
    # the table keeps its basis, 20 vectors of 4^3 amplitudes, and no memo
    basis = basis_charge(entry.basis)
    assert len(entry.basis) == 20 and basis > 20 * 4 ** 3 * 16
    assert entry.memo is None and cache.nbytes == table_bytes(4, 3, SYM) + basis
    occupation_to_labeled(OccupationState((1, 2, 0, 0), SYM), OneParticleBasis.default(4))
    assert_whole_memo(entry)
    assert cache.nbytes == table_bytes(4, 3, SYM) + basis + table_charge(4, 3, SYM)


@pytest.mark.parametrize(
    "d,n,sector", [(1, 1, SYM), (3, 2, SYM), (4, 3, ANTI), (6, 4, SYM), (32, 2, ANTI)], ids=str
)
def test_the_memo_charge_bounds_what_it_allocates(cache, d, n, sector):
    entry = exchange._orbit_entry(d, n, sector)
    arrays = entry.nbytes
    # numpy keeps small freed buffers for reuse, still traced: fill those caches first
    exchange._occupation_rows(entry.tables[2], d, n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        memo = exchange._occupation_memo(entry)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo is entry.memo
    assert_whole_memo(entry)
    charge = table_charge(d, n, sector)
    assert entry.nbytes == arrays + charge
    assert cache.nbytes == held_bytes(cache)
    assert 0 < allocated <= charge
    if d > 20:
        # past the tuple free lists every tuple is a new allocation: the charge is not loose
        assert charge < 2 * allocated


def test_a_memo_build_holds_little_beyond_its_charge(cache):
    d, n = 40, 3
    entry = exchange._orbit_entry(d, n, SYM)
    charge = table_charge(d, n, SYM)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        memo = exchange._occupation_memo(entry)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 11480 classes charged 4.8 times the table's arrays: a memo is built
    assert memo is not None
    assert_whole_memo(entry)
    # the occupation rows of every class at once would have peaked 3 MiB past the charge
    assert peak <= charge + 2 ** 20


def test_a_memo_evicts_the_least_recently_used_tables(monkeypatch, cache):
    small, other, big = (3, 3, SYM), (4, 3, ANTI), (8, 3, SYM)
    state = random_sector_state(np.random.default_rng(8), 8, 3, SYM)
    arrays = {key: table_bytes(*key) for key in (small, other, big)}
    # room for the three tables, or for two with the big table's memo, not for all four
    budget = sum(arrays.values()) + table_charge(*big) - 1
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    for key in (small, other, big, small):
        exchange.orbit_table(*key)
    assert list(held.tables) == [other, big, small]
    fv = labeled_to_fock(state, SYM)
    assert len(fv.terms) == 120
    assert list(held.tables) == [small, big]
    assert_whole_memo(held.tables[big])
    assert held.nbytes == held_bytes(held) <= budget


def test_a_memo_past_the_budget_is_not_built(monkeypatch, cache):
    key = (8, 3, SYM)
    state = random_sector_state(np.random.default_rng(9), 8, 3, SYM)
    expected = labeled_to_fock(state, SYM).terms
    arrays, charge = table_bytes(*key), table_charge(*key)
    for budget, memo in ((arrays + charge - 1, False), (arrays + charge, True)):
        monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
        monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
        held = exchange._orbit_tables
        assert labeled_to_fock(state, SYM).terms == expected
        assert list(held.tables) == [key]
        assert (held.tables[key].memo is not None) is memo
        assert held.nbytes == held_bytes(held) == (budget if memo else arrays)


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
