"""The four workloads: their input ladders, one timed operation, and its check.

Each workload runs its ladder in whole passes ("cycles"), each pass in a
seeded order.  The seed changes the content of every input (amplitudes,
orbitals, packets, symbols) but never the sizes, so every seed costs the
same work and a run's size mix does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

SYM, ANTI = "symmetric", "antisymmetric"
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class Workload:
    """One workload; `make` runs untimed, `run` is the timed operation."""

    name = ""
    ladder: list = []
    warmup: tuple = ()

    def __init__(self, root: Path, work_dir: Path, seed: int, env: dict):
        self.root, self.work_dir, self.seed, self.env = root, work_dir, seed, env

    def setup(self):
        pass

    def make(self, entry, rng):
        return entry

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError


class PackageWorkload(Workload):
    """A workload that calls the package in this process."""

    def __init__(self, *args):
        super().__init__(*args)
        import identicals
        from identicals import emergence, exchange, fock, interferometer, states
        if not Path(identicals.__file__).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"identicals imported from {identicals.__file__}, not from the checkout")
        self.emergence, self.exchange, self.fock = emergence, exchange, fock
        self.interferometer, self.states = interferometer, states


# ------------------------------------------------------------ fock_bridge


class FockBridge(PackageWorkload):
    """labeled_to_fock -> fock_to_labeled round trips, and sector_basis calls.

    Entries are (kind, d, N, sector, terms); terms=None is a dense random
    sector state, an integer a state on that many occupations.  The median
    (14th of 27) falls in the middle of five (8, 3) symmetric round trips,
    and the 95th percentile inside the two (16, 3) symmetric ones, the
    heaviest class, so both percentiles track one kind of operation instead
    of jumping between classes.  A cycle averages ~0.09 s per operation.
    """

    name = "fock_bridge"
    ladder = [
        ("round_trip", 4, 3, ANTI, None),
        ("round_trip", 8, 2, SYM, None),
        ("round_trip", 6, 4, ANTI, None),
        ("round_trip", 4, 4, SYM, None),
        ("round_trip", 8, 3, ANTI, None),
        ("round_trip", 3, 5, SYM, None),
        ("round_trip", 7, 3, SYM, None),
        ("basis", 4, 3, SYM, None),
        ("basis", 8, 3, ANTI, None),
        ("basis", 2, 6, SYM, None),
        ("basis", 10, 3, ANTI, None),
        *[("round_trip", 8, 3, SYM, None)] * 5,
        ("basis", 4, 5, SYM, None),
        ("round_trip", 4, 5, SYM, 3),
        ("round_trip", 12, 3, ANTI, None),
        ("round_trip", 6, 4, SYM, None),
        ("round_trip", 8, 4, ANTI, None),
        ("round_trip", 32, 2, ANTI, 3),
        ("round_trip", 5, 5, SYM, 3),
        ("round_trip", 3, 6, SYM, None),
        ("round_trip", 2, 7, SYM, 3),
        ("round_trip", 16, 3, SYM, 3),
        ("round_trip", 16, 3, SYM, 3),
    ]
    warmup = ("round_trip", 6, 4, SYM, None)

    def setup(self):
        self.tables = {
            (d, n, sector): inputs.SectorTable(d, n, sector == ANTI)
            for kind, d, n, sector, _ in self.ladder + [self.warmup]
            if kind == "round_trip"
        }

    def make(self, entry, rng):
        kind, d, n, sector, terms = entry
        if kind == "basis":
            return entry, None
        return entry, self.tables[(d, n, sector)].random_state(rng, terms)

    def run(self, inp):
        (kind, d, n, sector, _), amps = inp
        sector = self.exchange.ExchangeSector(sector)
        if kind == "basis":
            return self.exchange.sector_basis(d, n, sector)
        state = self.states.LabeledState(n, self.states.OneParticleBasis.default(d), amps)
        fv = self.fock.labeled_to_fock(state, sector)
        return fv, self.fock.fock_to_labeled(fv, state.basis)

    def check(self, inp, out):
        (kind, d, n, sector, terms), amps = inp
        if kind == "basis":
            expected = math.comb(d, n) if sector == ANTI else math.comb(d + n - 1, n)
            expect(len(out) == expected, f"basis has {len(out)} vectors, expected {expected}")
            b = np.array([v.amplitudes for v in out])
            dev = np.max(np.abs(b @ b.conj().T - np.eye(len(out))))
            expect(dev <= 1e-9, f"basis is not orthonormal (max deviation {dev:.3g})")
            return
        fv, back = out
        expected = terms if terms is not None else len(self.tables[(d, n, sector)].valid)
        expect(len(fv.terms) == expected, f"{len(fv.terms)} Fock terms, expected {expected}")
        overlap = abs(np.vdot(amps, back.amplitudes))
        expect(overlap >= 1 - 1e-9, f"round-trip overlap {overlap!r} below 1 - 1e-9")


# ------------------------------------------------------------ emergence_scan

EMERGENCE_SIZES = [(64, 2), (128, 2), (256, 2), (16, 3), (32, 3), (48, 3), (8, 4), (12, 4), (16, 4)]
EMERGENCE_KINDS = ["slater", "condensate", "distinct", "random_anti", "random_sym"]


class EmergenceScan(PackageWorkload):
    """detect_emergent_particles on few-slot, many-mode states.

    Entries are (kind, d, N).  Bosonic products of distinct orbitals have a
    degenerate one-particle density matrix, so their verdict depends on the
    eigenbasis that eigh returns; they are checked by their spectrum only.
    The heaviest class, antisymmetric d = 256 states (~1.4x the next one),
    runs four times per cycle of 47, so that the 95th percentile falls
    inside it instead of on its edge.
    """

    name = "emergence_scan"
    sizes = EMERGENCE_SIZES
    ladder = [(kind, d, n) for d, n in EMERGENCE_SIZES for kind in EMERGENCE_KINDS] + [
        ("slater", 256, 2), ("random_anti", 256, 2)]
    warmup = ("slater", 32, 3)

    def setup(self):
        self.tables = {
            (d, n, anti): inputs.SectorTable(d, n, anti)
            for d, n in self.sizes for anti in (False, True)
        }

    @staticmethod
    def occupations(kind: str, n: int) -> list[int]:
        if kind == "condensate":
            return [n] if n == 2 else [n - 1, 1]
        return [1] * n

    def make(self, entry, rng):
        kind, d, n = entry
        if kind.startswith("random"):
            return entry, self.tables[(d, n, kind == "random_anti")].random_state(rng)
        occ = self.occupations(kind, n)
        orbitals = inputs.orthonormal_orbitals(rng, d, len(occ))
        factors = [orbitals[i] for i, k in enumerate(occ) for _ in range(k)]
        return entry, inputs.symmetrised_product(factors, kind == "slater")

    def run(self, inp):
        (kind, d, n), amps = inp
        anti = kind in ("slater", "random_anti")
        sector = self.exchange.ExchangeSector(ANTI if anti else SYM)
        state = self.states.LabeledState(n, self.states.OneParticleBasis.default(d), amps)
        report = self.emergence.detect_emergent_particles(state, sector)
        rank = self.emergence.slater_rank_two_fermions(state) if anti and n == 2 else None
        return report, rank

    def check(self, inp, out):
        (kind, d, n), _ = inp
        report, rank = out
        verdict = report.verdict.value
        spectrum = np.array(report.natural_spectrum)
        if kind in ("condensate", "distinct"):
            occ = sorted(self.occupations(kind, n), reverse=True)
            want = np.zeros(d)
            want[: len(occ)] = np.array(occ) / n
            dev = np.max(np.abs(spectrum - want))
            expect(dev <= 1e-9, f"natural spectrum off by {dev:.3g}")
        if kind == "slater":
            expect(verdict == "PARTICLE_DECOMPOSITION", f"Slater determinant judged {verdict}")
            expect(len(report.defining_states) == n, "Slater determinant lost orbitals")
        elif kind == "condensate":
            expect(verdict == "CONDENSED_OBJECT", f"condensate judged {verdict}")
        elif kind.startswith("random"):
            expect(verdict == "NO_PARTICLE_DECOMPOSITION", f"random state judged {verdict}")
        if rank is not None:
            expect((rank == 1) == (verdict == "PARTICLE_DECOMPOSITION"),
                   f"Slater rank {rank} disagrees with verdict {verdict}")


# ------------------------------------------------------------ density_csv

class DensityCsv(PackageWorkload):
    """joint_spatial_density followed by DensityGrid.to_csv into memory.

    Grids run from 100 to 220 points per axis: ~0.1 s per operation on
    average, so that a run holds the ~200 operations a 95th percentile with
    ten samples above it needs.  to_csv is ~95% of an operation at every
    size in the range.
    """

    name = "density_csv"
    ladder = [(case, n) for case in ("far", "overlap", "moving") for n in range(100, 221, 10)]
    warmup = ("overlap", 160)

    def make(self, entry, rng):
        case, n = entry
        if case == "far":
            widths = rng.uniform(0.8, 1.2, 2)
            gap, velocities = rng.uniform(8.0, 12.0), (0.0, 0.0)
        else:
            widths = rng.uniform(0.8, 1.5, 2)
            gap = rng.uniform(0.5, 2.0)
            velocities = tuple(rng.uniform(-1.5, 1.5, 2)) if case == "moving" else (0.0, 0.0)
        c1 = rng.uniform(-1.0, 1.0)
        centers = (c1, c1 + gap)
        margin = 7.0 * max(widths)
        packets = [(float(c), float(w), float(v)) for c, w, v in zip(centers, widths, velocities)]
        return packets, min(centers) - margin, max(centers) + margin, n

    def run(self, inp):
        packets, x_min, x_max, n = inp
        gp = [self.interferometer.GaussianPacket(*p) for p in packets]
        grid = self.interferometer.joint_spatial_density(gp[0], gp[1], x_min, x_max, n)
        return grid, grid.to_csv()

    def check(self, inp, out):
        _, _, _, n = inp
        grid, text = out
        rho, x = grid.values, grid.x
        scale = np.max(np.abs(rho))
        expect(np.max(np.abs(rho - rho.T)) <= 1e-12 * scale, "density is not symmetric")
        expect(np.max(np.abs(np.diag(rho))) <= 1e-12 * scale, "density is not zero on the diagonal")
        integral = np.trapezoid(np.trapezoid(rho, x, axis=1), x)
        expect(abs(integral - 1.0) <= self.interferometer.TAU_GRID, f"density integrates to {integral!r}")
        lines = text.split("\n")
        expect(len(lines) == n * n + 2 and lines[-1] == "", f"CSV has {len(lines) - 1} lines, expected {n * n + 1}")
        expect(lines[0] == "x1,x2,rho", "CSV header")
        for k in (0, n * n - 1, *range(n + 1, n * n, n * n // 16)):
            row = [float(v) for v in lines[k + 1].split(",")]
            want = (x[k // n], x[k % n], rho[k // n, k % n])
            ok = all(abs(a - b) <= 1e-11 * max(abs(b), scale) for a, b in zip(row, want))
            expect(ok, f"CSV row {k} reads {row}, expected {want}")


# ------------------------------------------------------------ cli_configs

class CliConfigs(Workload):
    """One `python -m identicals` process per operation, one at a time.

    The ladder is every committed configs/*.json plus eight configs
    generated and written in set-up: three Planck `count` configs with
    `enumerate` (two of W = 50388, one of W = 12376), one microstate
    `count`, two small `basis` calls and two symbol `analyze` calls.  Their
    sizes are the same for every seed, so every seed costs the same work.
    """

    name = "cli_configs"
    warmup_config = "count_microstates"

    def __init__(self, *args):
        super().__init__(*args)
        self.shim = Path(__file__).resolve().parent / "cli_shim.py"
        self.recorder = None  # set while cycles are traced
        self.wrapped: list[str] = []  # span names the traced children wrap

    def setup(self):
        rng = inputs.op_rng(self.seed, 1)
        entries = []
        for path in sorted((self.root / "configs").glob("*.json")):
            golden = self.root / "tests" / "golden"
            entry = {"name": path.stem, "command": path.stem.split("_")[0], "config": path,
                     "stdout": (golden / f"{path.stem}.out").read_bytes()}
            if entry["command"] == "density":
                entry["csv"] = (golden / f"{path.stem}.csv").read_bytes()
            entries.append(entry)

        def generated(name, command, cfg):
            path = self.work_dir / f"{name}.json"
            path.write_text(json.dumps(cfg))
            entries.append({"name": name, "command": command, "config": path, "cfg": cfg})

        # (N, P) and its mirror (P + 1, N - 1) give the same W at about the same
        # cost; both large ones run every cycle, so the 95th percentile lies
        # inside their class.  Sizes are fixed; the seed draws k, the
        # microstate count's order of kinds and the analyzed symbols.
        for name, (big_n, p) in (("planck_large", (8, 12)), ("planck_large_mirror", (13, 7)),
                                 ("planck_medium", (7, 11))):
            generated(name, "count", {"N": big_n, "P": p, "enumerate": True,
                                      "k": float(rng.uniform(0.5, 2.0))})
        kinds = ["boltzmann", "bose_einstein", "fermi_dirac"]
        generated("count_kinds", "count", {"n": 5, "d": 6, "kinds": [str(k) for k in rng.permutation(kinds)]})
        generated("basis_sym", "basis", {"d": 3, "n": 3, "sector": SYM})
        generated("basis_anti", "basis", {"d": 5, "n": 3, "sector": ANTI})
        for name, sector in (("analyze_particles", ANTI), ("analyze_condensate_gen", SYM)):
            d = 6
            modes = rng.choice(np.arange(1, d + 1), 3 if sector == ANTI else 2, replace=False)
            tokens = list(modes) if sector == ANTI else [modes[0], modes[0], modes[1]]
            tokens = [int(t) for t in rng.permutation(tokens)]
            symbol = "f_{" + "".join(f"e{t}" for t in tokens) + "}"
            generated(name, "analyze", {"symbol": symbol, "d": d, "sector": sector})
        self.ladder = entries
        self.warmup = next(e for e in entries if e["name"] == self.warmup_config)

    def run(self, entry):
        argv = [entry["command"], "--config", str(entry["config"])]
        csv_path = self.work_dir / f"{entry['name']}.csv"
        if entry["command"] == "density":
            argv += ["--output", str(csv_path)]
        env = self.env
        if self.recorder is not None:
            span_file = self.work_dir / "spans.json"
            env = {**env, "BENCH_SPAN_FILE": str(span_file), "BENCH_SPAWN_T": repr(time.monotonic())}
            cmd = [sys.executable, str(self.shim), *argv]
        else:
            cmd = [sys.executable, "-m", "identicals", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        if self.recorder is not None:
            payload = json.loads(span_file.read_text())
            span_file.unlink()
            rec = self.recorder
            rec.merge(payload["names"], payload["spans"], payload["counters"], rec.op)
            self.wrapped = payload["wrapped"]
            rec.counters["cli.import_ms_total"] += payload["import_ms"]
            rec.counters["cli.processes"] += 1
            rec.counters["cli.stdout_bytes"] += len(proc.stdout)
        csv = csv_path.read_bytes() if entry["command"] == "density" else None
        return proc, csv

    def check(self, entry, out):
        proc, csv = out
        expect(proc.returncode == 0, f"{entry['name']} exited {proc.returncode}: {proc.stderr[-300:]!r}")
        if "stdout" in entry:
            expect(proc.stdout == entry["stdout"], f"{entry['name']} stdout differs from its golden")
            if csv is not None:
                expect(csv == entry["csv"], f"{entry['name']} CSV differs from its golden")
            return
        text, cfg = proc.stdout.decode(), entry["cfg"]
        if entry["command"] == "count" and "N" in cfg:
            big_n, p = cfg["N"], cfg["P"]
            w = math.comb(big_n - 1 + p, p)
            lines = text.split("\n")
            expect(lines[:2] == ["quantity,value", f"W,{w}"], f"W line {lines[1]!r}, expected W,{w}")
            expect(lines[3] == "symbol,energies" and len(lines) == w + 5,
                   f"{len(lines) - 5} symbol rows, expected {w}")
            first = "o" * (big_n - 1) + "e" * p + "," + ";".join(["0"] * (big_n - 1) + [str(p)])
            expect(lines[4] == first, f"first symbol row {lines[4]!r}, expected {first!r}")
        elif entry["command"] == "count":
            d, n = cfg["d"], cfg["n"]
            counts = {"boltzmann": d ** n, "bose_einstein": math.comb(d + n - 1, n),
                      "fermi_dirac": math.comb(d, n)}
            want = [counts[k] for k in cfg["kinds"]]
            got = [int(row.split(",")[1]) for row in text.split("\n")[1:-1]]
            expect(got == want, f"{entry['name']} counts {got}, expected {want}")
        elif entry["command"] == "basis":
            d, n = cfg["d"], cfg["n"]
            rows = text.split("\n")[1:-1]
            expected = math.comb(d, n) if cfg["sector"] == ANTI else math.comb(d + n - 1, n)
            expect(len(rows) == expected, f"{len(rows)} basis rows, expected {expected}")
            for row in rows:
                occ, amps = row.split(",")
                values = np.array([float(v) for v in amps.split()])
                expect(sum(int(k) for k in occ.split(";")) == n, f"occupation {occ} does not sum to {n}")
                expect(abs(np.dot(values, values) - 1.0) <= 1e-9, f"basis row {occ} is not unit norm")
        else:
            report = json.loads(text)
            if cfg["sector"] == ANTI:
                want_verdict, want = "PARTICLE_DECOMPOSITION", [1 / 3] * 3
            else:
                want_verdict, want = "CONDENSED_OBJECT", [2 / 3, 1 / 3]
            expect(report["verdict"] == want_verdict, f"{entry['name']} judged {report['verdict']}")
            spectrum = report["natural_spectrum"]
            dev = max(abs(a - b) for a, b in zip(spectrum, want + [0.0] * len(spectrum)))
            expect(dev <= 1e-9, f"{entry['name']} natural spectrum off by {dev:.3g}")


WORKLOADS = {w.name: w for w in (FockBridge, EmergenceScan, DensityCsv, CliConfigs)}
