"""Batch command-line front end.

Subcommands: count, basis, analyze, hom, density.  Input is a JSON config
file; output is a deterministic CSV or JSON report (12 significant digits,
fixed orderings).  Exit codes: 0 success, 2 config/schema error, 3 resource
cap exceeded, 4 domain error, 5 I/O error.

Only the numpy-free `counting` and `errors` modules are imported here at
module level; every other command imports what it uses inside its own
function, so `identicals count` runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import counting
from .errors import CapExceeded


class ConfigError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, float):
        v = v if v != 0 else 0.0
        return f"{v:.12g}"
    return str(v)


def _round_floats(obj):
    if isinstance(obj, float):
        v = obj if obj != 0 else 0.0
        return float(f"{v:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _check_keys(cfg: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _get_int(cfg, key, where, minimum=None):
    v = cfg[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}: {key} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{where}: {key} must be >= {minimum}")
    return v


def _get_number(cfg, key, where):
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number")
    # json reads NaN and +-Infinity, and an integer may be too large for a float
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where}: {key} must be a finite number")
    return x


def _get_sector(cfg, where) -> ExchangeSector:
    from .exchange import ExchangeSector

    v = cfg.get("sector")
    try:
        return ExchangeSector(v)
    except ValueError:
        raise ConfigError(
            f"{where}: sector must be 'symmetric' or 'antisymmetric', got {v!r}"
        ) from None


def _complex_list(raw, where) -> np.ndarray:
    import numpy as np

    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 for p in raw
    ):
        raise ConfigError(f"{where}: amplitudes must be a list of [re, im] pairs")
    return np.array([complex(p[0], p[1]) for p in raw])


def _interleave(vec: np.ndarray) -> list:
    """(re, im) pairs as one float list per vector (nested for a matrix of rows)."""
    import numpy as np

    return np.ascontiguousarray(vec, dtype=complex).view(float).tolist()


# ---------------------------------------------------------------- count

def _printable_count(kind: counting.StatisticsKind, n: int, d: int) -> int:
    """count_microstates(kind, n, d), unless it has more digits than Python prints.

    The log10 estimate refuses a count far past the limit before it is
    computed; within 2 digits of the limit the exact count decides.
    """
    log10_w = counting.count_log10(kind, n, d)
    # 0, or no such function before Python 3.10.7 / 3.11: no limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit or log10_w <= limit - 2:
        return counting.count_microstates(kind, n, d)
    if log10_w < limit + 2:
        w = counting.count_microstates(kind, n, d)
        if w < 10 ** limit:
            return w
    raise CapExceeded(
        f"W is about 10^{log10_w:.1f}, over the {limit}-digit limit "
        "for printing integers (sys.get_int_max_str_digits())"
    )


# one symbol as json.dumps(indent=2) writes it in the report's "symbols" list
_JSON_SYMBOL = '    {\n      "symbol": "%s",\n      "energies": [\n        %s\n      ]\n    }'
_JSON_SEP = ",\n        "


def cmd_count(cfg: dict, fmt: str) -> str:
    if "N" in cfg or "P" in cfg:
        _check_keys(cfg, {"N", "P", "enumerate", "k"}, {"N", "P"}, "count")
        problem = counting.CountingProblem(
            _get_int(cfg, "N", "count", 1), _get_int(cfg, "P", "count", 0)
        )
        k = _get_number(cfg, "k", "count") if "k" in cfg else 1.0
        # W(N, P) is the Bose-Einstein count of P quanta on N resonators
        w = _printable_count(
            counting.StatisticsKind.BOSE_EINSTEIN, problem.n_quanta, problem.n_resonators
        )
        s = counting.entropy(w, k)
        blocks = counting.symbol_blocks(problem) if cfg.get("enumerate", False) else None
        # each block of symbols is one string: one % of the block's template per symbol
        if fmt == "json":
            text = json.dumps({"W": w, "S": _round_floats(s)}, indent=2)
            if blocks is None:
                return text + "\n"
            items = []
            for head, energies_head, texts, energies in blocks:
                item = _JSON_SYMBOL % (head + "%s", energies_head.replace(";", _JSON_SEP) + "%s")
                values = [e.replace(";", _JSON_SEP) for e in energies]
                items.append(",\n".join(map(item.__mod__, zip(texts, values))))
            return text[:-2] + ',\n  "symbols": [\n' + ",\n".join(items) + "\n  ]\n}\n"
        lines = ["quantity,value", f"W,{w}", f"S,{_fmt(s)}"]
        if blocks is not None:
            lines.append("symbol,energies")
            lines += [
                "\n".join(map(f"{head}%s,{energies_head}%s".__mod__, zip(texts, energies)))
                for head, energies_head, texts, energies in blocks
            ]
        return "\n".join(lines) + "\n"

    _check_keys(cfg, {"n", "d", "kinds", "k"}, {"n", "d", "kinds"}, "count")
    n = _get_int(cfg, "n", "count", 0)
    d = _get_int(cfg, "d", "count", 1)
    k = _get_number(cfg, "k", "count") if "k" in cfg else 1.0
    kinds = cfg["kinds"]
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("count: kinds must be a non-empty list")
    rows = []
    for name in kinds:
        try:
            kind = counting.StatisticsKind(name)
        except ValueError:
            raise ConfigError(f"count: unknown statistics kind {name!r}") from None
        count = _printable_count(kind, n, d)
        rows.append(
            {
                "kind": kind.value,
                "count": count,
                "entropy": counting.entropy(count, k) if count >= 1 else None,
            }
        )
    if fmt == "json":
        return json.dumps(_round_floats({"counts": rows}), indent=2) + "\n"
    lines = ["kind,count,entropy"]
    for row in rows:
        s = _fmt(row["entropy"]) if row["entropy"] is not None else "undefined"
        lines.append(f"{row['kind']},{row['count']},{s}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- basis

def cmd_basis(cfg: dict, fmt: str) -> str:
    import numpy as np

    from . import exchange

    _check_keys(cfg, {"d", "n", "sector"}, {"d", "n", "sector"}, "basis")
    d = _get_int(cfg, "d", "basis", 1)
    n = _get_int(cfg, "n", "basis", 1)
    sector = _get_sector(cfg, "basis")
    states = exchange.sector_basis(d, n, sector)
    occs = counting.enumerate_distributions(sector.statistics, n, d)
    # one row per state; + 0.0 turns -0.0 into 0, as _fmt does
    amps = _interleave(np.array([s.amplitudes for s in states]) + 0.0)
    if fmt == "json":
        rows = [
            {"occupation": list(occ), "amplitudes": row}
            for occ, row in zip(occs, amps)
        ]
        return json.dumps(_round_floats({"states": rows}), indent=2) + "\n"
    lines = ["occupation,amplitudes"]
    if not states:
        lines.append("# empty sector")
    else:
        template = " ".join(["%.12g"] * len(amps[0]))
        lines.extend(
            f"{';'.join(map(str, occ))},{template % tuple(row)}"
            for occ, row in zip(occs, amps)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- analyze

def _state_from_config(cfg: dict) -> tuple[LabeledState, ExchangeSector]:
    from . import fock
    from .states import LabeledState, OneParticleBasis, check_dense_dim

    sector = _get_sector(cfg, "analyze")
    if "symbol" in cfg:
        _check_keys(cfg, {"symbol", "d", "sector"}, {"symbol", "sector"}, "analyze")
        text = cfg["symbol"]
        if not isinstance(text, str):
            raise ConfigError("analyze: symbol must be a string")
        modes = fock.symbol_modes(text)
        d = _get_int(cfg, "d", "analyze", 1) if "d" in cfg else max([1, *modes])
        check_dense_dim(d, len(modes))  # before parse_symbol allocates d counters
        occ = fock.parse_symbol(text, d, sector)
        state = fock.occupation_to_labeled(occ, OneParticleBasis.default(d))
        return state, sector
    _check_keys(
        cfg, {"amplitudes", "d", "n_slots", "sector"},
        {"amplitudes", "d", "n_slots", "sector"}, "analyze",
    )
    d = _get_int(cfg, "d", "analyze", 1)
    n_slots = _get_int(cfg, "n_slots", "analyze", 1)
    amps = _complex_list(cfg["amplitudes"], "analyze")
    if amps.shape != (d ** n_slots,):
        raise ConfigError(
            f"analyze: expected {d ** n_slots} amplitudes, got {len(amps)}"
        )
    return LabeledState(n_slots, OneParticleBasis.default(d), amps), sector


def cmd_analyze(cfg: dict, fmt: str) -> str:
    from . import emergence

    state, sector = _state_from_config(cfg)
    report = emergence.detect_emergent_particles(state, sector)
    payload = {
        "verdict": report.verdict.value,
        "defining_states": [
            {"occupation": n_i, "state": _interleave(vec)}
            for vec, n_i in report.defining_states
        ],
        "fidelity": report.fidelity,
        "natural_spectrum": report.natural_spectrum,
    }
    return json.dumps(_round_floats(payload), indent=2) + "\n"


# ---------------------------------------------------------------- hom

def _stage_rows(result: interferometer.ExperimentResult) -> dict:
    chi = result.conditional_coincidence_spin_state
    return {
        "p_both_left": result.p_both_left,
        "p_both_right": result.p_both_right,
        "p_coincidence": result.p_coincidence,
        "joint_probabilities": {
            f"{p1}.{s1}+{p2}.{s2}": p
            for ((p1, s1), (p2, s2)), p in result.joint_probabilities.items()
        },
        "correlators": dict(result.correlators),
        "conditional_spin_state": _interleave(chi),
    }


def cmd_hom(cfg: dict, fmt: str, baseline_flag: bool = False) -> str:
    import numpy as np

    from . import interferometer

    _check_keys(cfg, {"splitter", "baseline"}, set(), "hom")
    if "splitter" in cfg:
        raw = cfg["splitter"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("hom: splitter must be a 2x2 matrix of [re, im] pairs")
        try:
            matrix = np.array(
                [_complex_list(row, "hom") for row in raw]
            ).reshape(2, 2)
            scenario = interferometer.BeamSplitterScenario(splitter=matrix)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"hom: invalid splitter override: {exc}") from None
    else:
        scenario = interferometer.BeamSplitterScenario()
    baseline = baseline_flag or bool(cfg.get("baseline", False))

    initial = interferometer.build_initial_state(scenario)
    final = interferometer.evolve_through_splitter(initial, scenario)
    stages = {}
    if baseline:
        stages["initial"] = _stage_rows(
            interferometer.measure_ports_and_spins(initial, scenario)
        )
    stages["final"] = _stage_rows(
        interferometer.measure_ports_and_spins(final, scenario)
    )
    if fmt == "json":
        return json.dumps(_round_floats(stages), indent=2) + "\n"
    lines = ["stage,quantity,value"]
    for stage, rows in stages.items():
        for key in ("p_both_left", "p_both_right", "p_coincidence"):
            lines.append(f"{stage},{key},{_fmt(rows[key])}")
        for name, p in rows["joint_probabilities"].items():
            lines.append(f"{stage},p({name}),{_fmt(p)}")
        for name, v in rows["correlators"].items():
            lines.append(f"{stage},{name},{_fmt(v)}")
        amps = " ".join(_fmt(v) for v in rows["conditional_spin_state"])
        lines.append(f"{stage},conditional_spin_state,{amps}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- density

def _packet(cfg: dict, key: str) -> interferometer.GaussianPacket:
    from . import interferometer

    sub = cfg[key]
    _check_keys(sub, {"center", "width", "phase_velocity"}, {"center", "width"}, key)
    return interferometer.GaussianPacket(
        center=_get_number(sub, "center", key),
        width=_get_number(sub, "width", key),
        phase_velocity=(
            _get_number(sub, "phase_velocity", key) if "phase_velocity" in sub else 0.0
        ),
    )


def cmd_density(cfg: dict, fmt: str, output_override: str | None) -> str:
    from . import interferometer

    _check_keys(
        cfg, {"packet_s", "packet_n", "grid", "output"},
        {"packet_s", "packet_n", "grid"}, "density",
    )
    packet_s = _packet(cfg, "packet_s")
    packet_n = _packet(cfg, "packet_n")
    grid_cfg = cfg["grid"]
    _check_keys(grid_cfg, {"x_min", "x_max", "n_points"},
                {"x_min", "x_max", "n_points"}, "grid")
    grid = interferometer.joint_spatial_density(
        packet_s,
        packet_n,
        _get_number(grid_cfg, "x_min", "grid"),
        _get_number(grid_cfg, "x_max", "grid"),
        _get_int(grid_cfg, "n_points", "grid", 2),
    )
    path = output_override or cfg.get("output")
    if path is None:
        raise ConfigError("density: no output path (config 'output' or --output)")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(grid.to_csv())
    report = {"cross_term_max": grid.cross_term_max, "integral": grid.integral()}
    if fmt == "json":
        return json.dumps(_round_floats(report), indent=2) + "\n"
    return (
        "quantity,value\n"
        f"cross_term_max,{_fmt(report['cross_term_max'])}\n"
        f"integral,{_fmt(report['integral'])}\n"
    )


# ---------------------------------------------------------------- driver

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--format", choices=["csv", "json"], default="csv")

    parser = argparse.ArgumentParser(
        prog="identicals", description="identical-particle state toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("count", parents=[common])
    sub.add_parser("basis", parents=[common])
    sub.add_parser("analyze", parents=[common])
    hom = sub.add_parser("hom", parents=[common])
    hom.add_argument("--baseline", action="store_true",
                     help="also report the pre-splitter measurement")
    sub.add_parser("density", parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg: dict = {}
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
            if not isinstance(cfg, dict):
                raise ConfigError("config root must be a JSON object")
        elif args.command != "hom":
            raise ConfigError(f"{args.command}: --config is required")

        if args.command == "count":
            text = cmd_count(cfg, args.format)
        elif args.command == "basis":
            text = cmd_basis(cfg, args.format)
        elif args.command == "analyze":
            text = cmd_analyze(cfg, args.format)
        elif args.command == "hom":
            text = cmd_hom(cfg, args.format, baseline_flag=args.baseline)
        else:
            text = cmd_density(cfg, args.format, args.output)

        if args.command != "density" and args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
