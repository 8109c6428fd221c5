"""Span recording around the package's public functions, for the traced run.

`Instrumentation` replaces every public function of the seven modules with
a wrapper that records one span per call, at every module where the
function is bound, plus `DensityGrid.to_csv`, `DensityGrid.integral` and
`LabeledState.__post_init__`.  Nothing under `src/` is edited: the wrappers
live only in the process that installs them.

A span is (name, start_ns, end_ns, parent, op_id, error, mark).  `parent` is
the index of the enclosing span (-1 at top level).  The `cli.cmd_*`
functions are recorded as marks: they are timed, but do not become the
parent of what they call, so that `cli.main`'s self time is the CLI's own
validation and formatting outside every other layer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

MODULES = ("counting", "states", "exchange", "fock", "emergence", "interferometer", "cli")
CLI_COMMANDS = ("count", "basis", "analyze", "hom", "density")

NAME = 0  # index of the name id in a span tuple


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _occupations_enumerated(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    d, n = a["state"].basis.dim, a["state"].n_slots
    count = math.comb(d + n - 1, n) if a["sector"].value == "symmetric" else math.comb(d, n)
    return {"fock.kept_terms": len(result.terms), "fock.occupations_enumerated": count}


# name -> hook(fn, args, kwargs, result) -> {counter: amount}, run after a call
# returns.  Counts come from input and output sizes, never from calling the
# package again.
HOOKS = {
    "counting.enumerate_distributions": lambda fn, a, k, r: {
        "counting.enumerate_distributions.results": len(r)},
    "counting.enumerate_symbols": lambda fn, a, k, r: {
        "counting.enumerate_symbols.results": len(r)},
    "states.LabeledState": lambda fn, a, k, r: {"states.amplitudes": a[0].dim},
    "exchange.sector_project": lambda fn, a, k, r: {
        "exchange.amplitudes": _arguments(fn, a, k)["state"].dim},
    "exchange.symmetrized_product": lambda fn, a, k, r: {"exchange.amplitudes": r.dim},
    "fock.labeled_to_fock": _occupations_enumerated,
    "emergence.detect_emergent_particles": lambda fn, a, k, r: {
        f"emergence.verdict.{r.verdict.value}": 1},
    "interferometer.joint_spatial_density": lambda fn, a, k, r: {
        "interferometer.grid_points": r.n_points ** 2},
    "interferometer.DensityGrid.to_csv": lambda fn, a, k, r: {
        "interferometer.csv_bytes": len(r)},
}


class Recorder:
    """In-memory span store for one process; `op` is set by the caller per operation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, mark: bool = False):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if not mark:
                stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                if not mark:
                    stack.pop()
                spans[idx] = (nid, start, end, parent, self.op, failed, mark)
            if hook is not None:
                for key, amount in hook(fn, args, kwargs, result).items():
                    counters[key] += amount
            return result

        return wrapper

    def merge(self, names: list[str], spans: list, counters: dict, op: int):
        """Append spans recorded in another process (one operation)."""
        offset = len(self.spans)
        remap = [self.name_id(n) for n in names]
        for nid, start, end, parent, _, failed, mark in spans:
            self.spans.append((remap[nid], start, end,
                               parent + offset if parent >= 0 else -1, op, failed, mark))
        for key, value in counters.items():
            self.counters[key] += value

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counters": dict(self.counters)}

    def write(self, path, extra: dict | None = None):
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op_id", "error", "mark"],
            **self.dump(),
            **(extra or {}),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Instrumentation:
    """The span-recording wrappers for every public function, switchable on and off.

    On, every public function of the seven modules is replaced by its
    wrapper at every module where it is bound, and the three methods are
    replaced on their classes; off, the originals are put back.
    """

    def __init__(self, recorder: Recorder):
        pkg = importlib.import_module("identicals")
        modules = [importlib.import_module(f"identicals.{m}") for m in MODULES]
        replacements: dict[int, object] = {}
        self.names: list[str] = []
        for short, mod in zip(MODULES, modules):
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                if short == "cli" and attr.startswith("cmd_"):
                    name, mark = f"cli.{attr[4:]}", True
                else:
                    name, mark = f"{short}.{attr}", False
                replacements[id(fn)] = recorder.wrap(name, fn, mark)
                self.names.append(name)
        # (owner, attribute, original, wrapper)
        self._patches = [
            (mod, attr, value, replacements[id(value)])
            for mod in (pkg, *modules)
            for attr, value in vars(mod).items()
            if id(value) in replacements
        ]
        states, interferometer = modules[1], modules[5]
        for cls, attr, name in (
            (states.LabeledState, "__post_init__", "states.LabeledState"),
            (interferometer.DensityGrid, "to_csv", "interferometer.DensityGrid.to_csv"),
            (interferometer.DensityGrid, "integral", "interferometer.DensityGrid.integral"),
        ):
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original, recorder.wrap(name, original)))
            self.names.append(name)

    def enable(self, on: bool = True):
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)


def summarise(recorder: Recorder, wrapped: list[str], ops: int) -> dict[str, float]:
    """Per-layer metrics from the stored spans, normalised per operation.

    Self time is a span's duration minus the durations of its child spans.
    A metric whose layer was never called reads 0.
    """
    per_op = 1.0 / max(ops, 1)
    n = len(recorder.names)
    calls, errors, self_ns, total_ns = [0] * n, [0] * n, [0] * n, [0] * n
    spans = recorder.spans
    child_ns = [0] * len(spans)
    for _, start, end, parent, _, _, mark in spans:
        if parent >= 0 and not mark:
            child_ns[parent] += end - start
    for i, (nid, start, end, _, _, failed, _) in enumerate(spans):
        calls[nid] += 1
        errors[nid] += failed
        total_ns[nid] += end - start
        self_ns[nid] += end - start - child_ns[i]

    ids = recorder._name_ids
    out: dict[str, float] = {}
    for name in wrapped:
        nid = ids[name]
        out[f"{name}.calls"] = calls[nid] * per_op
        out[f"{name}.errors"] = errors[nid] * per_op
        if name.startswith("cli.") and name[4:] in CLI_COMMANDS:
            out[f"{name}.ms"] = total_ns[nid] / calls[nid] / 1e6 if calls[nid] else 0.0
        else:
            out[f"{name}.self_ms"] = self_ns[nid] / 1e6 * per_op

    counters = recorder.counters
    for key in ("counting.enumerate_distributions.results",
                "counting.enumerate_symbols.results", "states.amplitudes",
                "exchange.amplitudes", "interferometer.grid_points",
                "interferometer.csv_bytes", "emergence.verdict.PARTICLE_DECOMPOSITION",
                "emergence.verdict.CONDENSED_OBJECT",
                "emergence.verdict.NO_PARTICLE_DECOMPOSITION"):
        out[key] = counters.get(key, 0.0) * per_op

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["cli.import_ms"] = ratio(counters.get("cli.import_ms_total", 0.0), counters.get("cli.processes", 0.0))
    out["cli.stdout_bytes"] = counters.get("cli.stdout_bytes", 0.0) * per_op

    exchange_self_ms = sum(self_ns[i] for name, i in ids.items() if name.startswith("exchange.")) / 1e6
    out["exchange.amplitudes_per_ms"] = ratio(counters.get("exchange.amplitudes", 0.0), exchange_self_ms)
    out["fock.kept_terms_ratio"] = ratio(counters.get("fock.kept_terms", 0.0),
                                         counters.get("fock.occupations_enumerated", 0.0))
    out["interferometer.csv_bytes_per_s"] = ratio(
        counters.get("interferometer.csv_bytes", 0.0),
        total_ns[ids["interferometer.DensityGrid.to_csv"]] / 1e9)

    detect = ids["emergence.detect_emergent_particles"]
    product = ids["exchange.symmetrized_product"]
    with_candidate = {parent for nid, _, _, parent, _, _, _ in spans
                      if nid == product and parent >= 0 and spans[parent][NAME] == detect}
    out["emergence.candidate_ratio"] = ratio(len(with_candidate), calls[detect])
    return out
