"""exchange.orbit_table's cache: shared read-only tables and bases, the caps, the byte budget.

One least-recently-used map holds both: a table under (d, n, sector), a
sector basis under ("basis", d, n, sector), each as (value, charge).
"""

import gc
import sys
import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identicals import (
    CapExceeded,
    ExchangeSector,
    count_microstates,
    OccupationState,
    OneParticleBasis,
    enumerate_distributions,
    fock_to_labeled,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
)
from identicals import errors, exchange, fock
from identicals.exchange import orbit_table

from conftest import basis_charge, cache_bytes, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]
#: a small table of a size outside SIZES
FILLER = (7, 1, SYM)


@pytest.fixture
def cache(monkeypatch):
    """An empty cache for the test, so no other test's tables are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


def table_bytes(d, n, sector):
    return sum(a.nbytes for a in orbit_table(d, n, sector))


def basis_key(d, n, sector):
    """The key under which sector_basis keeps the states of (d, n, sector)."""
    return ("basis", d, n, sector)


def value_of(cache, key):
    """The value kept under key, read without touching the LRU order."""
    return cache.tables[key][0]


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_same_key_returns_the_same_arrays(cache, sector):
    first = orbit_table(5, 3, sector)
    second = orbit_table(5, 3, sector)
    assert all(a is b for a, b in zip(first, second))
    assert list(cache.tables) == [(5, 3, sector)]


@pytest.mark.parametrize("which", range(3))
def test_cached_arrays_are_read_only(cache, which):
    table = orbit_table(4, 3, SYM)[which]
    with pytest.raises(ValueError, match="read-only"):
        table[0] = table[0]
    with pytest.raises(ValueError, match="read-only"):
        table += 0


@pytest.mark.parametrize("sector", [SYM, ANTI])
@pytest.mark.parametrize("d,n", [(1, 1), (3, 2), (4, 3), (2, 6), (6, 4)])
def test_cached_arrays_equal_a_fresh_build_bit_for_bit(monkeypatch, cache, sector, d, n):
    cached = orbit_table(d, n, sector)
    assert orbit_table(d, n, sector)[0] is cached[0]
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    fresh = orbit_table(d, n, sector)
    for a, b in zip(cached, fresh):
        assert a is not b
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_a_cached_table_still_checks_the_dense_cap_first(monkeypatch, cache):
    orbit_table(3, 2, SYM)
    assert (3, 2, SYM) in cache.tables
    monkeypatch.setattr(errors, "MAX_DIM", 8)
    with pytest.raises(CapExceeded):
        orbit_table(3, 2, SYM)
    with pytest.raises(CapExceeded):
        occupation_to_labeled(OccupationState((1, 1, 0), SYM), OneParticleBasis.default(3))


def test_every_fock_caller_builds_each_table_once(monkeypatch, cache):
    built = []
    build = exchange._build_orbit_table

    def counted(*key):
        built.append(key)
        return build(*key)

    monkeypatch.setattr(exchange, "_build_orbit_table", counted)
    state = random_sector_state(np.random.default_rng(3), 4, 3, SYM)
    for _ in range(2):
        back = fock_to_labeled(labeled_to_fock(state, SYM), state.basis)
        occupation_to_labeled(OccupationState((1, 2, 0, 0), SYM), state.basis)
        sector_basis(4, 3, SYM)
    assert built == [(4, 3, SYM)]
    assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-12


def test_held_bytes_stay_within_the_budget_and_lru_goes_first(monkeypatch, cache):
    keys = [(4, 3, SYM), (4, 3, ANTI), (5, 3, SYM), (3, 4, SYM)]
    sizes = {key: table_bytes(*key) for key in keys}
    # room for the first two tables and the third, not for all three at once
    budget = sizes[keys[0]] + sizes[keys[1]] + sizes[keys[2]] - 1
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables

    orbit_table(*keys[0])
    orbit_table(*keys[1])
    orbit_table(*keys[0])  # keys[1] is now the least recently used
    assert held.nbytes == sizes[keys[0]] + sizes[keys[1]] <= budget
    orbit_table(*keys[2])
    assert list(held.tables) == [keys[0], keys[2]]
    for key in keys + keys[::-1]:
        orbit_table(*key)
        assert held.nbytes == sum(sizes[k] for k in held.tables) <= budget
        assert key in held.tables


def test_a_table_over_the_budget_is_returned_but_not_kept(monkeypatch, cache):
    small, large = (3, 2, SYM), (6, 4, SYM)
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", table_bytes(*large) - 1)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    orbit_table(*small)
    cls, amp, first = orbit_table(*large)
    assert cls.size == 6 ** 4 and first.size == 126
    assert list(held.tables) == [small]
    assert held.nbytes == table_bytes(*small)
    assert orbit_table(*large)[0] is not cls


def test_threads_sharing_the_cache_keep_the_byte_total_exact(monkeypatch, cache):
    keys = [(d, n, sector) for d, n in [(3, 3), (4, 3), (2, 5), (5, 2)] for sector in (SYM, ANTI)]
    sizes = {key: table_bytes(*key) for key in keys}
    rng = np.random.default_rng(18)
    states = {key: random_sector_state(rng, *key) for key in keys}
    bases = {key: basis_bits(sector_basis(*key)) for key in keys}
    charges = sorted(charge for _, charge in cache.tables.values())
    # less than the three largest entries: bases and round trips evict
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", sum(charges[-3:]) - 1)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    errors = []

    def work(offset):
        try:
            for i in range(300):
                key = keys[(offset + i) % len(keys)]
                state, sector = states[key], key[2]
                if i % 3 == 1:
                    assert basis_bits(sector_basis(*key)) == bases[key]
                    continue
                if i % 3 or state is None:
                    orbit_table(*key)
                    continue
                back = fock_to_labeled(labeled_to_fock(state, sector), state.basis)
                assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-12
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # each table is charged its arrays, each basis its recorded charge, and a basis was stored
    assert held.nbytes == cache_bytes(held) <= exchange.ORBIT_CACHE_BYTES
    assert any(key[0] == "basis" for key in held.tables)
    for key, (value, charge) in held.tables.items():
        if key[0] == "basis":
            assert basis_bits(value) == bases[key[1:]]
        else:
            assert sum(a.nbytes for a in value) == sizes[key] == charge


# ---------------------------------------------------------------- the kept sector basis


def basis_bits(vectors):
    """Each basis vector's fields, with its amplitudes as exact bits."""
    return [(v.n_slots, v.basis, v.amplitudes.dtype, v.amplitudes.tobytes()) for v in vectors]


def fresh_cache(monkeypatch, budget):
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    return exchange._orbit_tables


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_a_warm_call_returns_the_same_states_in_a_new_list(cache, sector):
    cold = sector_basis(5, 3, sector)
    warm = sector_basis(5, 3, sector)
    assert warm is not cold and warm == cold
    assert all(a is b for a, b in zip(cold, warm))
    assert value_of(cache, basis_key(5, 3, sector)) == tuple(cold)
    kept = list(warm)
    warm.reverse()
    warm.append(warm[0])
    cold.clear()
    again = sector_basis(5, 3, sector)
    assert len(again) == len(kept) and all(a is b for a, b in zip(again, kept))


@pytest.mark.parametrize("d,n,sector", SIZES, ids=str)
def test_bases_are_bit_identical_cold_warm_evicted_and_uncached(monkeypatch, cache, d, n, sector):
    key = (d, n, sector)
    cold = sector_basis(*key)
    if not cold:
        # an empty sector reads no table
        assert d < n and sector is ANTI and cache.tables == {}
        return
    warm = sector_basis(*key)
    assert list(cache.tables) == [key, basis_key(*key)]
    assert all(a is b for a, b in zip(cold, warm))
    table, charge = cache.tables[key][1], cache.tables[basis_key(*key)][1]
    # room for the table and the basis: once the table is used again, a filler evicts the basis
    held = fresh_cache(monkeypatch, table + charge)
    sector_basis(*key)
    orbit_table(*key)
    orbit_table(*FILLER)
    assert list(held.tables) == [key, FILLER]
    evicted = sector_basis(*key)
    assert not any(a is b for a, b in zip(evicted, cold))
    # the basis alone is over the budget: its table is kept, it is not
    held = fresh_cache(monkeypatch, charge - 1)
    no_room = sector_basis(*key)
    assert list(held.tables) == [key] and held.nbytes == table
    # nothing is kept
    held = fresh_cache(monkeypatch, 0)
    uncached = sector_basis(*key)
    assert held.tables == {} and held.nbytes == 0
    bits = basis_bits(cold)
    for other in (warm, evicted, no_room, uncached):
        assert basis_bits(other) == bits


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("budget", ["kept", "uncached"])
def test_the_array_behind_a_basis_is_read_only(monkeypatch, cache, warm, budget):
    if budget == "uncached":
        monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    if warm:
        sector_basis(3, 2, SYM)
    vectors = sector_basis(3, 2, SYM)
    rows = vectors[0].amplitudes.base
    assert rows.shape == (6, 9) and not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        rows += 1
    for v in vectors:
        assert v.amplitudes.base is rows and not v.amplitudes.flags.writeable
    assert basis_bits(sector_basis(3, 2, SYM)) == basis_bits(vectors)


def test_charged_bytes_are_exact_and_a_basis_leaves_at_its_own_lru_position(monkeypatch, cache):
    keys = [(4, 3, SYM), (4, 3, ANTI), (5, 3, SYM)]
    for key in keys:
        sector_basis(*key)
    tables = {key: table_bytes(*key) for key in keys}
    bases = {key: cache.tables[basis_key(*key)][1] for key in keys}
    for key in keys:
        assert cache.tables[key][1] == tables[key]
        assert bases[key] == basis_charge(value_of(cache, basis_key(*key)))
    assert cache.nbytes == sum(tables.values()) + sum(bases.values()) == cache_bytes(cache)
    # room for the third key's table and basis beside the first key's basis, and no more
    budget = tables[keys[2]] + bases[keys[2]] + bases[keys[0]]
    held = fresh_cache(monkeypatch, budget)
    first = sector_basis(*keys[0])
    sector_basis(*keys[1])
    sector_basis(*keys[0])  # a warm call makes its basis the most recently used, not its table
    assert list(held.tables) == [keys[0], keys[1], basis_key(*keys[1]), basis_key(*keys[0])]
    sector_basis(*keys[2])
    # the two tables and the second basis went first: the first basis outlives its table
    assert list(held.tables) == [basis_key(*keys[0]), keys[2], basis_key(*keys[2])]
    assert held.nbytes == budget == cache_bytes(held)
    assert all(a is b for a, b in zip(sector_basis(*keys[0]), first))
    # a basis that left is built again and kept
    for key in keys + keys[::-1]:
        vectors = sector_basis(*key)
        assert value_of(held, basis_key(*key)) == tuple(vectors)
        assert held.nbytes == cache_bytes(held) <= budget


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_a_basis_over_the_budget_is_returned_but_not_kept(monkeypatch, cache, sector):
    key = (5, 3, sector)
    charge = basis_charge(tuple(sector_basis(*key)))
    table = table_bytes(*key)
    held = fresh_cache(monkeypatch, charge - 1)
    vectors = sector_basis(*key)
    assert len(vectors) == count_microstates(sector.statistics, 3, 5)
    assert list(held.tables) == [key] and held.nbytes == table
    assert not any(a is b for a, b in zip(sector_basis(*key), vectors))
    # one byte more and it is kept: its table, the least recently used, makes room
    held = fresh_cache(monkeypatch, charge)
    vectors = sector_basis(*key)
    assert list(held.tables) == [basis_key(*key)]
    assert value_of(held, basis_key(*key)) == tuple(vectors)
    assert held.nbytes == charge == exchange.ORBIT_CACHE_BYTES


def test_the_first_value_stored_under_a_key_is_kept(cache):
    first, second = np.zeros(2), np.ones(3)
    cache.put(("key",), (first,), first.nbytes)
    cache.put(("key",), (second,), second.nbytes)
    assert cache.get(("key",))[0] is first
    assert cache.nbytes == first.nbytes == cache_bytes(cache)


# ---------------------------------------------------------------- the bridge beside the cache


@pytest.mark.parametrize(
    "d,n,sector", [(1, 1, SYM), (3, 2, SYM), (4, 3, ANTI), (6, 4, SYM), (32, 2, ANTI)], ids=str
)
def test_the_bridge_charges_the_cache_its_table_alone(cache, d, n, sector):
    state = random_sector_state(np.random.default_rng(10 * d + n), d, n, sector)
    arrays = orbit_table(d, n, sector)
    fv = labeled_to_fock(state, sector)
    fock_to_labeled(fv, state.basis)
    occupation_to_labeled(OccupationState(next(iter(fv.terms)), sector), state.basis)
    # a caller's vector derives its flat indices off the vector, not the cache
    twin = fock.FockVector(dict(fv.terms), sector, n)
    assert fock_to_labeled(twin, state.basis).amplitudes.tobytes() == fock_to_labeled(
        fv, state.basis
    ).amplitudes.tobytes()
    assert list(cache.tables) == [(d, n, sector)]
    value, charge = cache.tables[(d, n, sector)]
    assert value is arrays
    assert charge == sum(a.nbytes for a in arrays) == cache_bytes(cache) == cache.nbytes


def test_a_round_trip_keeps_every_table_that_fits(monkeypatch, cache):
    small, other, big = (3, 3, SYM), (4, 3, ANTI), (8, 3, SYM)
    state = random_sector_state(np.random.default_rng(8), 8, 3, SYM)
    # room for the three tables and nothing more
    budget = sum(table_bytes(*key) for key in (small, other, big))
    held = fresh_cache(monkeypatch, budget)
    for key in (small, other, big, small):
        orbit_table(*key)
    assert list(held.tables) == [other, big, small]
    fv = labeled_to_fock(state, SYM)
    fock_to_labeled(fv, state.basis)
    assert len(fv.terms) == 120
    # the round trip only makes its own table the most recently used
    assert list(held.tables) == [other, small, big]
    assert held.nbytes == cache_bytes(held) == budget


def test_the_bridge_leaves_a_kept_basis_and_its_charge_alone(cache):
    vectors = sector_basis(4, 3, SYM)
    stored = cache.tables[basis_key(4, 3, SYM)]
    charged = table_bytes(4, 3, SYM) + basis_charge(stored[0])
    assert len(stored[0]) == 20 and cache.nbytes == charged
    basis = OneParticleBasis.default(4)
    # each occupation's basis vector is the kept one, bit for bit, in the enumeration order
    for occ, vector in zip(enumerate_distributions(SYM.statistics, 3, 4), vectors, strict=True):
        single = occupation_to_labeled(OccupationState(occ, SYM), basis)
        assert single.amplitudes.tobytes() == vector.amplitudes.tobytes()
    state = random_sector_state(np.random.default_rng(4), 4, 3, SYM)
    fv = labeled_to_fock(state, SYM)
    fock_to_labeled(fv, basis)
    assert len(fv.terms) == 20
    # the basis and the charge stay the ones recorded when the basis was stored
    assert cache.tables[basis_key(4, 3, SYM)] is stored
    assert cache.nbytes == charged


def test_a_recount_of_a_kept_basis_ignores_later_bases(cache):
    # states and bases keep their fields in __slots__: no instance dict whose size can move
    sector_basis(4, 3, SYM)
    states, charge = cache.tables[basis_key(4, 3, SYM)]
    OneParticleBasis.default(4)
    assert charge == basis_charge(states)


def test_a_bridge_vector_outlives_the_table_it_was_read_from(monkeypatch, cache):
    state = random_sector_state(np.random.default_rng(6), 4, 3, ANTI)
    fv = labeled_to_fock(state, ANTI)
    expected = fock_to_labeled(fv, state.basis).amplitudes.tobytes()
    # its flat indices name classes of (d, N) alone: a table rebuilt, or never kept, reads them alike
    for budget in (exchange.ORBIT_CACHE_BYTES, 0):
        held = fresh_cache(monkeypatch, budget)
        assert fock_to_labeled(fv, state.basis).amplitudes.tobytes() == expected
        assert list(held.tables) == ([(4, 3, ANTI)] if budget else [])
    assert "terms" not in vars(fv)


def outcome(call):
    """('ok', bits) or (exception type, message) of a sector_basis call."""
    try:
        return "ok", basis_bits(call())
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)


def test_cap_and_empty_sector_outcomes_are_the_same_cold_and_warm(monkeypatch, cache):
    calls = {
        "fermions_past_modes": lambda: sector_basis(3, 5, ANTI),
        "fermions_past_the_slot_cap": lambda: sector_basis(3, errors.MAX_SLOTS + 1, ANTI),
        "slot_cap": lambda: sector_basis(2, errors.MAX_SLOTS + 1, SYM),
        "dense_cap": lambda: sector_basis(2, 23, SYM),
        # an empty sector is empty however large d^N is
        "fermions_past_modes_past_d_power_n": lambda: sector_basis(2, 25, ANTI),
        "basis": lambda: sector_basis(4, 3, ANTI),
    }
    cold = {name: outcome(call) for name, call in calls.items()}
    for d, n, sector in SIZES:
        sector_basis(d, n, sector)
    warm = {name: outcome(call) for name, call in calls.items()}
    assert warm == cold
    assert cold["fermions_past_modes"] == cold["fermions_past_the_slot_cap"] == ("ok", [])
    assert cold["fermions_past_modes_past_d_power_n"] == ("ok", [])
    assert cold["slot_cap"][0] is CapExceeded and "slot" in cold["slot_cap"][1]
    assert cold["dense_cap"][0] is CapExceeded and "24 basis vectors" in cold["dense_cap"][1]


def test_a_kept_basis_still_checks_both_caps_first(monkeypatch, cache):
    vectors = sector_basis(3, 3, SYM)
    assert value_of(cache, basis_key(3, 3, SYM)) == tuple(vectors)
    # 10 vectors of 27 amplitudes: one amplitude over the count * d^N cap
    monkeypatch.setattr(errors, "MAX_DIM", 10 * 27 - 1)
    with pytest.raises(CapExceeded, match="10 basis vectors of d\\^N = 3\\^3"):
        sector_basis(3, 3, SYM)
    monkeypatch.setattr(errors, "MAX_DIM", 10 * 27)
    assert sector_basis(3, 3, SYM) == vectors
    # past a lowered slot cap: the slot cap's error, or the empty basis for fermions past the modes
    monkeypatch.setattr(errors, "MAX_SLOTS", 2)
    with pytest.raises(CapExceeded, match="N = 3 slots exceed the dense-tensor cap of 2"):
        sector_basis(3, 3, SYM)
    assert sector_basis(2, 3, ANTI) == []


@pytest.mark.parametrize("d,n,sector", [(1, 1, SYM), (3, 2, SYM), (10, 3, ANTI), (4, 5, SYM), (60, 1, SYM)], ids=str)
def test_the_basis_charge_is_what_a_kept_basis_holds(cache, d, n, sector):
    # numpy and Python keep small freed buffers for reuse: a first build fills those caches
    sector_basis(d, n, sector)
    cache.tables.clear()
    cache.nbytes = 0
    tables = table_bytes(d, n, sector)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sector_basis(d, n, sector)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    states, charge = cache.tables[basis_key(d, n, sector)]
    assert charge == basis_charge(states) == exchange._basis_bytes(states)
    assert cache.nbytes == tables + charge == cache_bytes(cache)
    assert abs(allocated - charge) <= 1024 + charge // 100


# ---------------------------------------------------------------- against a reference model


def table_charge(d, n, sector):
    """The bytes of an orbit table: an int64 class and a float64 amplitude per index, an int64 per class."""
    return 16 * d**n + 8 * count_microstates(sector.statistics, n, d)


CALLS = st.tuples(
    st.sampled_from(["table", "basis", "bridge"]),
    st.integers(1, 6),
    st.integers(1, 4),
    st.sampled_from([SYM, ANTI]),
)


@settings(max_examples=60, deadline=None)
@given(budget=st.integers(0, 2**18), calls=st.lists(CALLS, max_size=25))
def test_the_cache_follows_a_reference_lru_model(budget, calls):
    model = OrderedDict()

    def use(key, charge):
        if key in model:
            model.move_to_end(key)
        elif charge <= budget:
            model[key] = charge
            while sum(model.values()) > budget:
                model.popitem(last=False)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(exchange, "ORBIT_CACHE_BYTES", budget)
        m.setattr(exchange, "_orbit_tables", exchange._TableCache())
        held = exchange._orbit_tables
        for op, d, n, sector in calls:
            key = (d, n, sector)
            if op == "table":
                orbit_table(*key)
                use(key, table_charge(*key))
            elif op == "basis":
                vectors = sector_basis(*key)
                if vectors and basis_key(*key) not in model:
                    # a cold basis reads its table first
                    use(key, table_charge(*key))
                if vectors:
                    use(basis_key(*key), basis_charge(tuple(vectors)))
            else:
                state = random_sector_state(np.random.default_rng(10 * d + n), *key)
                if state is not None:
                    fock_to_labeled(labeled_to_fock(state, sector), state.basis)
                    use(key, table_charge(*key))
            assert list(held.tables) == list(model)
            assert [charge for _, charge in held.tables.values()] == list(model.values())
            assert held.nbytes == sum(model.values()) == cache_bytes(held) <= budget
