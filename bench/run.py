"""Benchmark of the identicals package: four closed-loop workloads, one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is fock_bridge, emergence_scan, density_csv, cli_configs, or `all`
to run them one after another.  Run from anywhere inside a checkout of the
repository; the package is imported from the checkout's src/.

With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
--trace 1 it alternates untraced cycles with cycles in which every public
function of the package is wrapped in a span, and prints every per-layer
metric.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fock_bridge", "emergence_scan", "density_csv", "cli_configs")
#: set-up time is the median over this many worker starts
SETUP_SAMPLES = 7
BLAS_THREADS = 1
#: every run, set-up included, ends within this many seconds
RUN_BUDGET_S = 175.0
PROBE_TIMEOUT_S = 30.0
#: per-layer units that are times, or amounts per time, and so are scaled
#: to the reference host speed like the end-to-end times (see calibrate.py)
TIME_UNITS = ("ms", "ms/op")
RATE_UNITS = ("amps/ms", "B/s")


class BenchError(Exception):
    pass


def check_checkout():
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "identicals" / "__init__.py",
              ROOT / "configs", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError(f"not a checkout of the repository; missing {', '.join(missing)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Start one worker; return its result and its raw set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU; return the CPUs it had.

    The shared host's CPUs change speed independently, within a fraction of
    a second, so the calibration units must run on the CPU the operations
    and the CLI child processes run on.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def metadata(seed: int, seconds: int, trace: int, nproc: int, result: dict, setup: list[float]) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": nproc, "pinned_cpu": max(os.sched_getaffinity(0)), "cpu": cpu,
        **result["versions"], "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "setup_samples": len(setup), "setup_s": setup,
        "phase": {k: v for k, v in result["phase"].items() if k not in ("latencies", "scaled", "traced")}
        | {"samples": len(result["phase"]["latencies"])},
        "warmup_error": result["warmup_error"],
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: int, trace: int, nproc: int, manifest: dict) -> dict:
    env = child_env()
    work_dir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    common = ["--workload", name, "--seed", str(seed), "--work-dir", str(work_dir)]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        starts = [run_worker([*common, "--seconds", "0", "--probe"], env, PROBE_TIMEOUT_S)
                  for _ in range(SETUP_SAMPLES - 1)]
        result, ready = run_worker(
            [*common, "--seconds", str(seconds), "--trace", str(trace),
             "--trace-file", str(out_dir / f"trace-{tag}.json.gz")],
            env, deadline - time.monotonic())
        starts.append((result, ready))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    phase = result["phase"]
    attempted, failed = phase["attempted"], phase["failed"]
    setup_raw = [raw for _, raw in starts]
    setup = [raw * r["setup_scale"] for r, raw in starts]
    if trace:
        specs = manifest["per_layer"]
        values = {}
        for m in specs:
            value = result["layers"][m["name"]]
            if m["unit"] in TIME_UNITS:
                value *= phase["scale"]
            elif m["unit"] in RATE_UNITS:
                value /= phase["scale"]
            values[m["name"]] = value
        samples = {}
    else:
        raw = phase["latencies"]
        lat = phase["scaled"]
        values = {
            "ops_per_s": statistics.median(phase["cycle_rates"]),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p95_ms": percentile(lat, 95) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        specs = manifest["end_to_end"]
        samples = {"ops_per_s": len(phase["cycle_rates"]), "latency_p50_ms": len(lat),
                   "latency_p95_ms": len(lat), "setup_s": len(setup)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    meta = metadata(seed, seconds, trace, nproc, result, setup)
    meta["unscaled"] = {"setup_s": statistics.median(setup_raw)}
    if not trace:
        meta["unscaled"] |= {"ops_per_s": len(raw) / sum(raw),
                             "latency_p50_ms": statistics.median(raw) * 1e3,
                             "latency_p95_ms": percentile(raw, 95) * 1e3}
    report = {
        "correct": failed == 0 and result["warmup_error"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"workload": name, **report, "samples": samples, "meta": meta}, indent=1))

    print(f"{name} (seed {seed}, {seconds} s, trace {trace}): "
          f"{attempted} operations, {failed} failed")
    for key, m in metrics.items():
        count = f"  (n={samples[key]})" if key in samples else ""
        print(f"  {key:<52} {m['value']:>16.6g} {m['unit']}{count}")
    for message in phase["failures"]:
        print(f"  failure: {message}")
    print("meta " + json.dumps(meta))
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        check_checkout()
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        nproc = pin_to_one_cpu()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {n: run_workload(n, args.seed, args.seconds, args.trace, nproc, manifest) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        final = next(iter(reports.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
