"""One workload process: set-up, one untimed warm-up, then the measured loop.

Started by run.py, which owns the arguments.  With --probe it stops after
the warm-up.  Prints one JSON object as the last line of its stdout; its
"ready" field is time.monotonic() at the moment the first timed operation
could start, which run.py turns into the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import inputs
import workloads

#: a run stops mid-cycle once it has measured this many times --seconds
HARD_CAP = 3.0
MAX_REPORTED_FAILURES = 5
#: share of the operations' time spent on interleaved calibration units
CALIBRATION_SHARE = 0.2
#: calibration units run right after set-up, to scale the set-up time
SETUP_CALIBRATION_UNITS = 80


def measure(wl: workloads.Workload, seed: int, seconds: float, recorder=None, switch=None) -> dict:
    """Closed loop, one client: whole seeded cycles until `seconds` have passed.

    With a recorder, `switch(on)` turns span recording on for odd cycles and
    off for even ones, and the run ends after a traced cycle, so the traced
    and untraced operations see the same stretch of machine time.  After
    each operation and its check, calibration units take their share of
    the time, and the units nearest each operation scale its time to the
    reference host speed (see calibrate.py).
    """
    calibration = calibrate.Interleaver(CALIBRATION_SHARE)
    latencies: list[float] = []
    marks: list[int] = []
    whole_cycles: list[tuple[int, int]] = []  # (first, end) operation of each whole cycle
    traced_flags: list[bool] = []
    failures: list[str] = []
    start = time.monotonic()
    cycle, cut, traced_ops = 0, False, 0
    while not cut:
        first_op = len(latencies)
        traced = recorder is not None and cycle % 2 == 1
        if recorder is not None:
            switch(traced)
        for pos in inputs.cycle_order(seed, cycle, len(wl.ladder)):
            inp = wl.make(wl.ladder[pos], inputs.op_rng(seed, 2, cycle, pos))
            if traced:
                recorder.op = traced_ops
                traced_ops += 1
            error, out = None, None
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # the program failed this operation; keep measuring
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            traced_flags.append(traced)
            if error is None:
                try:
                    wl.check(inp, out)
                except Exception as exc:  # any exception while checking is a wrong output
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(error)
            marks.append(calibration.after(latencies[-1]))
            if time.monotonic() - start > HARD_CAP * seconds:
                cut = True
                break
        if not cut or not whole_cycles:  # a run cut inside its first cycle rates that part
            whole_cycles.append((first_op, len(latencies)))
        cycle += 1
        if time.monotonic() - start >= seconds and (recorder is None or cycle % 2 == 0):
            break
    if recorder is not None:
        switch(False)
    scaled = [t * calibration.scale_at(m) for t, m in zip(latencies, marks)]
    return {
        "latencies": latencies,
        "scaled": scaled,
        "cycle_rates": [(end - first) / sum(scaled[first:end]) for first, end in whole_cycles],
        "traced": traced_flags,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "cycles": cycle,
        "cut_mid_cycle": cut,
        "window_s": time.monotonic() - start,
        "scale": calibration.scale(),
        "calibration_units": len(calibration.samples),
    }


def rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def library_versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    wl = workloads.WORKLOADS[args.workload](root, args.work_dir, args.seed, dict(os.environ))
    wl.setup()
    warm = wl.make(wl.warmup, inputs.op_rng(args.seed, 3))
    warmup_error = None
    try:
        wl.check(warm, wl.run(warm))
    except Exception as exc:  # reported; the measured operations will show it too
        warmup_error = f"{type(exc).__name__}: {exc}"
    ready = time.monotonic()
    setup_scale = calibrate.scale(calibrate.burst(SETUP_CALIBRATION_UNITS))
    if args.probe:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale, "warmup_error": warmup_error}))
        return 0

    result: dict = {"ready": ready, "setup_scale": setup_scale, "warmup_error": warmup_error,
                    "versions": library_versions()}
    if not args.trace:
        result["phase"] = measure(wl, args.seed, args.seconds)
    else:
        import spans

        recorder = spans.Recorder()
        if isinstance(wl, workloads.PackageWorkload):
            instrumentation = spans.Instrumentation(recorder)
            switch = instrumentation.enable
        else:  # cli_configs: the traced children record their own spans
            instrumentation = None

            def switch(on: bool):
                wl.recorder = recorder if on else None

        phase = measure(wl, args.seed, args.seconds, recorder, switch)
        lat, flags = phase["scaled"], phase["traced"]
        traced = [t for t, f in zip(lat, flags) if f]
        untraced = [t for t, f in zip(lat, flags) if not f]
        names = instrumentation.names if instrumentation else wl.wrapped
        layers = spans.summarise(recorder, names, len(traced))
        layers["trace.overhead_frac"] = 1.0 - rate(traced) / rate(untraced)
        result["phase"] = phase
        result["layers"] = layers
        if args.trace_file is not None:
            recorder.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                             "ops": len(traced), "layers": layers})
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_configs" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
