"""exchange.orbit_table's cache: shared read-only tables and bases, the caps, the byte budget."""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from identicals import (
    CapExceeded,
    ExchangeSector,
    OneParticleBasis,
    enumerate_distributions,
    fock_to_labeled,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
)
from identicals import errors, exchange, fock
from identicals.exchange import orbit_table

from conftest import basis_charge, entry_bytes, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]


@pytest.fixture
def cache(monkeypatch):
    """An empty cache for the test, so no other test's tables are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


def table_bytes(d, n, sector):
    return sum(a.nbytes for a in orbit_table(d, n, sector))


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
        occupation_to_labeled(fock.OccupationState((1, 1, 0), SYM), OneParticleBasis.default(3))


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
        occupation_to_labeled(fock.OccupationState((1, 2, 0, 0), SYM), state.basis)
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
    full = [entry_bytes(entry) for entry in cache.tables.values()]
    # less than the three largest tables with their bases: round trips evict
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", sum(sorted(full)[-3:]) - 1)
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
    # each held table counts its arrays and its basis, and a basis was stored
    held_bytes = sum(map(entry_bytes, held.tables.values()))
    assert held.nbytes == held_bytes <= exchange.ORBIT_CACHE_BYTES
    assert any(e.basis is not None for e in held.tables.values())
    for key, entry in held.tables.items():
        assert sum(a.nbytes for a in entry.tables) == sizes[key]
        assert entry.nbytes == entry_bytes(entry)
        if entry.basis is not None:
            assert basis_bits(entry.basis) == bases[key]


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
    assert cache.tables[(5, 3, sector)].basis == tuple(cold)
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
    entry = cache.tables[key]
    assert entry.basis is not None and all(a is b for a, b in zip(cold, warm))
    # room for the entry as it stands: one more table evicts it, basis and all
    held = fresh_cache(monkeypatch, entry.nbytes)
    sector_basis(*key)
    orbit_table(1, 1, SYM)
    assert list(held.tables) == [(1, 1, SYM)]
    evicted = sector_basis(*key)
    assert not any(a is b for a, b in zip(evicted, cold))
    # the table is kept, its basis does not fit beside it
    held = fresh_cache(monkeypatch, table_bytes(*key))
    no_room = sector_basis(*key)
    assert held.tables[key].basis is None and held.nbytes == table_bytes(*key)
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


def test_charged_bytes_are_exact_within_the_budget_and_lru_drops_a_basis(monkeypatch, cache):
    keys = [(4, 3, SYM), (4, 3, ANTI), (5, 3, SYM)]
    for key in keys:
        sector_basis(*key)
    full = {key: entry_bytes(cache.tables[key]) for key in keys}
    for key, entry in list(cache.tables.items()):
        assert entry.nbytes == full[key] == table_bytes(*key) + basis_charge(entry.basis)
    assert cache.nbytes == sum(full.values())
    # room for the first two entries with their bases, not for all three
    budget = full[keys[0]] + full[keys[1]] + full[keys[2]] - 1
    held = fresh_cache(monkeypatch, budget)
    first = sector_basis(*keys[0])
    sector_basis(*keys[1])
    sector_basis(*keys[0])  # keys[1] is now the least recently used
    assert held.nbytes == full[keys[0]] + full[keys[1]] <= budget
    sector_basis(*keys[2])
    assert list(held.tables) == [keys[0], keys[2]]
    assert held.nbytes == full[keys[0]] + full[keys[2]] <= budget
    assert all(a is b for a, b in zip(sector_basis(*keys[0]), first))
    # the basis left with its entry: the next call builds a new one and keeps it
    for key in keys + keys[::-1]:
        vectors = sector_basis(*key)
        entry = held.tables[key]
        assert entry.basis == tuple(vectors)
        assert held.nbytes == sum(map(entry_bytes, held.tables.values())) <= budget


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_a_basis_that_does_not_fit_is_returned_but_not_kept(monkeypatch, cache, sector):
    key = (5, 3, sector)
    charge = basis_charge(tuple(sector_basis(*key)))
    held = fresh_cache(monkeypatch, table_bytes(*key) + charge - 1)
    vectors = sector_basis(*key)
    assert len(vectors) == len(exchange.orbit_table(*key)[2])
    assert held.tables[key].basis is None and held.nbytes == table_bytes(*key)
    assert not any(a is b for a, b in zip(sector_basis(*key), vectors))
    # one byte more and it is kept
    held = fresh_cache(monkeypatch, table_bytes(*key) + charge)
    vectors = sector_basis(*key)
    assert held.tables[key].basis == tuple(vectors)
    assert held.nbytes == table_bytes(*key) + charge == exchange.ORBIT_CACHE_BYTES


def test_an_entry_no_longer_kept_takes_no_basis(monkeypatch, cache):
    # never kept: the budget is smaller than the table
    held = fresh_cache(monkeypatch, 0)
    entry = exchange._orbit_entry(4, 3, SYM)
    vectors = tuple(sector_basis(4, 3, SYM))
    held.attach(entry, vectors, 0)
    assert entry.basis is None and held.tables == {} and held.nbytes == 0
    # kept, then evicted by a later table before its basis is stored
    held = fresh_cache(monkeypatch, table_bytes(4, 3, SYM) + table_bytes(6, 3, SYM) - 1)
    entry = exchange._orbit_entry(4, 3, SYM)
    orbit_table(6, 3, SYM)
    assert list(held.tables) == [(6, 3, SYM)]
    held.attach(entry, vectors, 0)
    assert entry.basis is None and held.nbytes == table_bytes(6, 3, SYM)


# ---------------------------------------------------------------- the bridge beside the cache


@pytest.mark.parametrize(
    "d,n,sector", [(1, 1, SYM), (3, 2, SYM), (4, 3, ANTI), (6, 4, SYM), (32, 2, ANTI)], ids=str
)
def test_the_bridge_charges_the_cache_its_table_alone(cache, d, n, sector):
    state = random_sector_state(np.random.default_rng(10 * d + n), d, n, sector)
    entry = exchange._orbit_entry(d, n, sector)
    arrays = table_bytes(d, n, sector)
    fv = labeled_to_fock(state, sector)
    fock_to_labeled(fv, state.basis)
    occupation_to_labeled(fock.OccupationState(next(iter(fv.terms)), sector), state.basis)
    # a caller's vector derives its flat indices off the vector, not the cache
    twin = fock.FockVector(dict(fv.terms), sector, n)
    assert fock_to_labeled(twin, state.basis).amplitudes.tobytes() == fock_to_labeled(
        fv, state.basis
    ).amplitudes.tobytes()
    assert list(cache.tables) == [(d, n, sector)] and cache.tables[(d, n, sector)] is entry
    assert entry.basis is None
    assert entry.nbytes == entry_bytes(entry) == arrays == cache.nbytes


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
    assert held.nbytes == sum(map(entry_bytes, held.tables.values())) == budget


def test_the_bridge_leaves_a_kept_basis_and_its_charge_alone(cache):
    vectors = sector_basis(4, 3, SYM)
    entry = cache.tables[(4, 3, SYM)]
    kept = entry.basis
    charged = table_bytes(4, 3, SYM) + basis_charge(kept)
    assert len(kept) == 20 and cache.nbytes == charged
    basis = OneParticleBasis.default(4)
    # each occupation's basis vector is the kept one, bit for bit, in the enumeration order
    for occ, vector in zip(enumerate_distributions(SYM.statistics, 3, 4), vectors, strict=True):
        single = occupation_to_labeled(fock.OccupationState(occ, SYM), basis)
        assert single.amplitudes.tobytes() == vector.amplitudes.tobytes()
    state = random_sector_state(np.random.default_rng(4), 4, 3, SYM)
    fv = labeled_to_fock(state, SYM)
    fock_to_labeled(fv, basis)
    assert len(fv.terms) == 20
    # the charge stays the one recorded when the basis was stored
    assert cache.tables[(4, 3, SYM)] is entry and entry.basis is kept
    assert cache.nbytes == entry.nbytes == charged


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
        "fermions_past_the_slot_cap": lambda: sector_basis(3, exchange.MAX_SLOTS + 1, ANTI),
        "slot_cap": lambda: sector_basis(2, exchange.MAX_SLOTS + 1, SYM),
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
    assert cache.tables[(3, 3, SYM)].basis == tuple(vectors)
    # 10 vectors of 27 amplitudes: one amplitude over the count * d^N cap
    monkeypatch.setattr(exchange, "MAX_DIM", 10 * 27 - 1)
    with pytest.raises(CapExceeded, match="10 basis vectors of d\\^N = 3\\^3"):
        sector_basis(3, 3, SYM)
    monkeypatch.setattr(exchange, "MAX_DIM", 10 * 27)
    assert sector_basis(3, 3, SYM) == vectors
    # past a lowered slot cap: the slot cap's error, or the empty basis for fermions past the modes
    monkeypatch.setattr(exchange, "MAX_SLOTS", 2)
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
    entry = exchange._orbit_entry(d, n, sector)
    tables = entry.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sector_basis(d, n, sector)
        gc.collect()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    charge = basis_charge(entry.basis)
    assert entry.nbytes == tables + charge == entry_bytes(entry)
    assert charge == exchange._basis_bytes(entry.basis)
    assert abs(allocated - charge) <= 1024 + charge // 100
