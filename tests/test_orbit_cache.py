"""exchange.orbit_table's cache: shared read-only tables, the cap, the byte budget."""

import sys
import threading

import numpy as np
import pytest

from identicals import (
    CapExceeded,
    ExchangeSector,
    OneParticleBasis,
    fock_to_labeled,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
)
from identicals import errors, exchange, fock
from identicals.exchange import orbit_table

from conftest import assert_whole_memo, entry_bytes, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC


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
    for state, (*_, sector) in zip(states.values(), keys):
        if state is not None:
            labeled_to_fock(state, sector)
    full = [entry_bytes(entry) for entry in cache.tables.values()]
    # less than the three largest tables with full memos: round trips evict
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", sum(sorted(full)[-3:]) - 1)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    held = exchange._orbit_tables
    errors = []

    def work(offset):
        try:
            for i in range(200):
                key = keys[(offset + i) % len(keys)]
                state, sector = states[key], key[2]
                if i % 2 or state is None:
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
    # each held table counts its arrays and its memo, and memos were stored
    held_bytes = sum(map(entry_bytes, held.tables.values()))
    assert held.nbytes == held_bytes <= exchange.ORBIT_CACHE_BYTES
    assert any(e.memo is not None for e in held.tables.values())
    for key, entry in held.tables.items():
        assert sum(a.nbytes for a in entry.tables) == sizes[key]
        if entry.memo is not None:
            assert_whole_memo(entry)
