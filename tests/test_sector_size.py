"""counting.sector_size: the one rule for which sectors have a basis, and of what size.

basis_rows, the CLI's `basis` and exchange.sector_basis take their sizes
from it; exchange.orbit_table refuses the same sizes in the same order,
without computing a count, before its cache is read.
"""

import json

import pytest

from identicals import CapExceeded, ExchangeSector, cli, counting, errors, exchange
from identicals.counting import basis_rows, sector_size
from identicals.errors import VACUUM
from identicals.exchange import orbit_table, sector_basis

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SECTORS = [SYM, ANTI]


@pytest.fixture
def cache(monkeypatch):
    """An empty cache for the test, so no other test's tables are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


def outcome(call):
    """('ok', value) or (exception type, message) of a call."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)


def basis_rows_count(sector, n, d):
    return len(basis_rows(sector, n, d))


def sector_basis_count(sector, n, d):
    return len(sector_basis(d, n, sector))


def cli_basis_count(sector, n, d):
    """The number of states in the JSON `basis` report, each checked for 2 d^N values."""
    report = cli.cmd_basis({"d": d, "n": n, "sector": sector.value}, "json")
    states = json.loads(report)["states"]
    assert all(len(s["amplitudes"]) == 2 * d ** n for s in states)
    return len(states)


CALLERS = [basis_rows_count, sector_basis_count, cli_basis_count]


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
@pytest.mark.parametrize(
    "n,d,message",
    [
        (-1, 3, "particle number must be non-negative"),
        (2, 0, "need at least one mode"),
        (0, 3, VACUUM),
    ],
)
def test_refused_sizes(sector, n, d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sector_size(sector, n, d)


def test_sizes():
    assert sector_size(SYM, 3, 2) == (4, 8)
    assert sector_size(ANTI, 2, 3) == (3, 9)
    assert sector_size(ANTI, 1, 1) == (1, 1)
    # the empty sector: neither d^n nor a count, whatever n is
    assert sector_size(ANTI, 10 ** 11, 3) == (0, 0)


def test_the_slot_cap_comes_before_the_count(monkeypatch):
    def no_count(*args):
        raise AssertionError("a count was computed past the slot cap")

    monkeypatch.setattr(counting, "count_microstates", no_count)
    with pytest.raises(CapExceeded, match="slots exceed the dense-tensor cap"):
        sector_size(SYM, 10 ** 11, 10 ** 6)
    with pytest.raises(CapExceeded, match="dense-storage cap"):
        sector_size(SYM, 25, 2)


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
@pytest.mark.parametrize("n,d", [(-1, 3), (2, 0), (0, 3)])
def test_basis_rows_refuses_what_sector_basis_refuses(sector, n, d):
    refused = outcome(lambda: basis_rows(sector, n, d))
    assert refused[0] is ValueError
    assert refused == outcome(lambda: sector_basis(d, n, sector))


@pytest.mark.parametrize("slot_cap", [errors.MAX_SLOTS, 2], ids=lambda c: f"slot_cap={c}")
def test_the_three_callers_agree(monkeypatch, cache, slot_cap):
    monkeypatch.setattr(errors, "MAX_SLOTS", slot_cap)
    for sector in SECTORS:
        for n in range(1, 5):
            for d in range(1, 5):
                size = outcome(lambda: sector_size(sector, n, d))
                expected = ("ok", size[1][0]) if size[0] == "ok" else size
                got = [outcome(lambda: count(sector, n, d)) for count in CALLERS]
                assert got == [expected] * 3, (sector, n, d)
                if slot_cap < n <= d or (sector is SYM and n > slot_cap):
                    assert size[0] is CapExceeded and "slots" in size[1]


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
def test_orbit_table_refuses_a_negative_particle_number(cache, sector):
    with pytest.raises(ValueError, match="^particle number must be non-negative$"):
        orbit_table(3, -1, sector)
    assert not cache.tables


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
def test_orbit_table_refuses_no_mode_and_keeps_nothing(cache, sector):
    with pytest.raises(ValueError, match="^need at least one mode$"):
        orbit_table(0, 2, sector)
    assert not cache.tables and cache.nbytes == 0


def test_orbit_table_computes_no_count(monkeypatch, cache):
    def no_count(*args):
        raise AssertionError("orbit_table computed a count")

    monkeypatch.setattr(counting, "count_microstates", no_count)
    monkeypatch.setattr(counting, "sector_size", no_count)
    assert orbit_table(3, 2, SYM)[2].size == 6
    # more fermions than modes: a table with no class
    assert orbit_table(2, 3, ANTI)[2].size == 0


def test_a_kept_table_still_meets_the_caps(monkeypatch, cache):
    orbit_table(3, 3, SYM)
    assert (3, 3, SYM) in cache.tables
    monkeypatch.setattr(errors, "MAX_SLOTS", 2)
    with pytest.raises(CapExceeded, match="N = 3 slots exceed the dense-tensor cap of 2"):
        orbit_table(3, 3, SYM)
