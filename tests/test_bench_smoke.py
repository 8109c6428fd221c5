"""Cycles of the in-process benchmark workloads, through their own checks.

Runs each workload's set-up and seeded passes over its ladder with the
benchmark's own input generation (`bench/inputs.py`) and output checks
(`bench/workloads.py`), without the runner, its subprocesses or its timing.
An operation that the benchmark would count as failed fails here.
`fock_bridge` runs two cycles from an empty orbit-table cache, so its
checks see the tables both cold (first cycle) and warm (second); then the
cache's byte total is exact and within its budget.
"""

import pathlib
import sys

import pytest

from identicals import exchange

from conftest import entry_bytes

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 11
#: cycles per workload, where more than one
CYCLES = {"fock_bridge": 2}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return inputs, workloads


@pytest.mark.parametrize("name", ["fock_bridge", "emergence_scan", "density_csv"])
def test_cycles_pass_the_benchmark_checks(monkeypatch, bench, name):
    inputs, workloads = bench
    cycles = CYCLES.get(name, 1)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    # no work directory: these workloads write no file
    wl = workloads.WORKLOADS[name](BENCH.parent, None, SEED, {})
    wl.setup()
    for cycle in range(cycles):
        for pos in inputs.cycle_order(SEED, cycle, len(wl.ladder)):
            inp = wl.make(wl.ladder[pos], inputs.op_rng(SEED, 2, cycle, pos))
            wl.check(inp, wl.run(inp))
    if name == "fock_bridge":
        held = exchange._orbit_tables
        total = sum(map(entry_bytes, held.tables.values()))
        assert held.nbytes == total <= exchange.ORBIT_CACHE_BYTES
