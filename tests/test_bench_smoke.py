"""One cycle of the in-process benchmark workloads, through their own checks.

Runs each workload's set-up and one seeded pass over its ladder with the
benchmark's own input generation (`bench/inputs.py`) and output checks
(`bench/workloads.py`), without the runner, its subprocesses or its timing.
An operation that the benchmark would count as failed fails here.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 11


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
def test_one_cycle_passes_the_benchmark_checks(bench, name):
    inputs, workloads = bench
    # no work directory: these workloads write no file
    wl = workloads.WORKLOADS[name](BENCH.parent, None, SEED, {})
    wl.setup()
    for pos in inputs.cycle_order(SEED, 0, len(wl.ladder)):
        inp = wl.make(wl.ladder[pos], inputs.op_rng(SEED, 2, 0, pos))
        wl.check(inp, wl.run(inp))
