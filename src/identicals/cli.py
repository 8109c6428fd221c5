"""Batch command-line front end.

Subcommands: count, basis, analyze, hom, density.  Input is a JSON config
file; output is a deterministic CSV or JSON report (12 significant digits,
fixed orderings).  Exit codes: 0 success, 2 config/schema error, 3 resource
cap exceeded, 4 domain error, 5 I/O error.

Only the numpy-free `counting` and `errors` modules are imported here at
module level; every other command imports what it uses inside its own
function, so `identicals count`, a symbol `analyze` (whose report is closed
form, see counting.occupation_report) and `basis` (whose rows are closed
form, see counting.basis_rows) run on the standard library alone.  This is
the package's only module that imports inside functions.  No command loads
dataclasses: every value class is written on counting's frozen-value base.
Besides `counting` and `errors`, `count`, `basis` and a symbol `analyze`
import no more than argparse and json; an amplitude `analyze` adds numpy,
`states`, `exchange` and `emergence`; `hom` and `density` numpy, `states`,
`exchange` and `interferometer`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import counting
from .errors import VACUUM, CapExceeded, check_dense_dim, check_report_size


class ConfigError(Exception):
    pass


def _fmt(v: float) -> str:
    v = v if v != 0 else 0.0
    return f"{v:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


# ---------------------------------------------------------------- config schemas
# A schema maps each key of a config object to (check, required); a check is
# called as check(value, where, key) and returns the parsed value.

def _parse(cfg, schema: dict, where: str) -> dict:
    """The parsed value of each key cfg holds, checked in schema order."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = {key for key, (_, required) in schema.items() if required} - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    return {key: check(cfg[key], where, key) for key, (check, _) in schema.items() if key in cfg}


def _integer(minimum: int):
    def check(v, where, key) -> int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"{where}: {key} must be an integer")
        if v < minimum:
            raise ConfigError(f"{where}: {key} must be >= {minimum}")
        return v
    return check


def _number(v, where, key) -> float:
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


def _instance(kind: type, description: str):
    def check(v, where, key):
        if not isinstance(v, kind):
            raise ConfigError(f"{where}: {key} must be {description}")
        return v
    return check


def _sector(v, where, key) -> counting.ExchangeSector:
    if v not in [sector.value for sector in counting.ExchangeSector]:
        raise ConfigError(f"{where}: {key} must be 'symmetric' or 'antisymmetric', got {v!r}")
    return counting.ExchangeSector(v)


def _object(schema: dict):
    """A nested config object, named by its key in messages."""
    return lambda v, where, key: _parse(v, schema, key)


def _complex_list(raw, where, key) -> np.ndarray:
    """raw[i] = [re, im] as complex entries; each re and im must be a finite number."""
    import numpy as np

    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 for p in raw
    ):
        raise ConfigError(f"{where}: {key} must be a list of [re, im] pairs")
    return np.array([
        complex(_number(re, where, f"{key}[{i}][0]"), _number(im, where, f"{key}[{i}][1]"))
        for i, (re, im) in enumerate(raw)
    ])


def _kinds(v, where, key) -> list[counting.StatisticsKind]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where}: {key} must be a non-empty list")
    names = [kind.value for kind in counting.StatisticsKind]
    seen = set()
    for name in v:
        if name not in names:
            raise ConfigError(f"{where}: unknown statistics kind {name!r}")
        # one row per kind: a repeated kind would only lengthen the report
        if name in seen:
            raise ConfigError(f"{where}: {key} lists {name!r} more than once")
        seen.add(name)
    return list(map(counting.StatisticsKind, v))


def _symbol(v, where, key) -> tuple[str, list[int]]:
    """The text and mode indices of a symbol; a malformed symbol is a domain error."""
    text = _STRING(v, where, key)
    return text, counting.symbol_modes(text)


def _splitter(raw, where, key) -> interferometer.BeamSplitterScenario:
    import numpy as np

    from . import interferometer

    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"{where}: {key} must be a 2x2 matrix of [re, im] pairs")
    try:
        rows = [_complex_list(row, where, f"{key}[{i}]") for i, row in enumerate(raw)]
        return interferometer.BeamSplitterScenario(splitter=np.array(rows).reshape(2, 2))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: invalid {key} override: {exc}") from None


_BOOLEAN = _instance(bool, "true or false")
_STRING = _instance(str, "a string")
_PLANCK = {"N": (_integer(1), True), "P": (_integer(0), True),
           "enumerate": (_BOOLEAN, False), "k": (_number, False)}
_MICROSTATES = {"n": (_integer(0), True), "d": (_integer(1), True),
                "k": (_number, False), "kinds": (_kinds, True)}
_BASIS = {"d": (_integer(1), True), "n": (_integer(1), True), "sector": (_sector, True)}
_SYMBOL = {"symbol": (_symbol, True), "d": (_integer(1), False), "sector": (_sector, True)}
_AMPLITUDES = {"d": (_integer(1), True), "n_slots": (_integer(1), True),
               "amplitudes": (_complex_list, True), "sector": (_sector, True)}
_HOM = {"splitter": (_splitter, False), "baseline": (_BOOLEAN, False)}
_PACKET = {"center": (_number, True), "width": (_number, True), "phase_velocity": (_number, False)}
_GRID = {"x_min": (_number, True), "x_max": (_number, True), "n_points": (_integer(2), True)}
_DENSITY = {"packet_s": (_object(_PACKET), True), "packet_n": (_object(_PACKET), True),
            "grid": (_object(_GRID), True), "output": (_STRING, False)}


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
# what a symbol adds to the JSON report besides its text and energies, with the
# ",\n" before the next; the report's head and tail around the list are shorter
_JSON_FRAMING = len(_JSON_SYMBOL % ("", "")) + len(",\n")
# the CSV report: W and S, then a row "text,e1;...;eN" per symbol
_CSV_HEAD = "quantity,value\nW,%s\nS,%s\n"
_CSV_SYMBOLS = "symbol,energies\n"
# what a row adds to the CSV report besides its text and its N energies with
# their N - 1 ';' and the ',': the newline that ends it
_CSV_FRAMING = len("\n")


def cmd_count(cfg: dict, fmt: str) -> str:
    if "N" in cfg or "P" in cfg:
        parsed = _parse(cfg, _PLANCK, "count")
        problem = counting.CountingProblem(parsed["N"], parsed["P"])
        k = parsed.get("k", 1.0)
        # W(N, P) is the Bose-Einstein count of P quanta on N resonators
        w = _printable_count(
            counting.StatisticsKind.BOSE_EINSTEIN, problem.n_quanta, problem.n_resonators
        )
        s = counting.entropy(w, k)
        if fmt == "json":
            text = json.dumps({"W": w, "S": _round_floats(s)}, indent=2)
            # the last framing counted covers the head and tail
            framing, head_size = _JSON_FRAMING, 0
        else:
            text = _CSV_HEAD % (w, _fmt(s))
            framing, head_size = _CSV_FRAMING, len(text) + len(_CSV_SYMBOLS)
        if not parsed.get("enumerate"):
            return text + "\n" if fmt == "json" else text
        blocks = counting.symbol_blocks(problem, fmt, framing, head_size)
        # each block of symbols is one string: one % of the block's template per symbol
        if fmt == "json":
            items = []
            for head, energies_head, texts, energies in blocks:
                item = _JSON_SYMBOL % (head + "%s", energies_head.replace(";", _JSON_SEP) + "%s")
                values = [e.replace(";", _JSON_SEP) for e in energies]
                items.append(",\n".join(map(item.__mod__, zip(texts, values))))
            return text[:-2] + ',\n  "symbols": [\n' + ",\n".join(items) + "\n  ]\n}\n"
        rows = [
            "\n".join(map(f"{head}%s,{energies_head}%s".__mod__, zip(texts, energies)))
            for head, energies_head, texts, energies in blocks
        ]
        return text + _CSV_SYMBOLS + "\n".join(rows) + "\n"

    parsed = _parse(cfg, _MICROSTATES, "count")
    n, d, k = parsed["n"], parsed["d"], parsed.get("k", 1.0)
    rows = []
    for kind in parsed["kinds"]:
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
    parsed = _parse(cfg, _BASIS, "basis")
    d, n, sector = parsed["d"], parsed["n"], parsed["sector"]
    # sector_size applies the slot and d^N caps; a sector with states then
    # meets the report cap before basis_rows builds anything, and the empty
    # sector (more fermions than modes) is a constant report
    count, dim = counting.sector_size(sector, n, d)
    if count:
        check_report_size(
            _basis_report_characters(d, n, count, fmt),
            f"the basis report of {count} states over d^N = {d}^{n} amplitudes",
        )
    rows = counting.basis_rows(sector, n, d)
    occs = counting.enumerate_distributions(sector.statistics, n, d)
    if fmt == "json":
        states = [
            {"occupation": list(occ), "amplitudes": _basis_vector(row, dim)}
            for occ, row in zip(occs, rows)
        ]
        return json.dumps(_round_floats({"states": states}), indent=2) + "\n"
    lines = ["occupation,amplitudes"]
    if not rows:
        lines.append("# empty sector")
    else:
        counts = list(map(str, range(n + 1)))
        lines.extend(
            f"{';'.join(map(counts.__getitem__, occ))},{_basis_text(row, dim)}"
            for occ, row in zip(occs, rows)
        )
    return "\n".join(lines) + "\n"


def _basis_vector(row: list[tuple[int, float]], dim: int) -> list[float]:
    """A basis row as _interleave writes its vector: (re, im) of each of the dim amplitudes."""
    vec = [0.0] * (2 * dim)
    for flat, amp in row:
        vec[2 * flat] = amp
    return vec


def _basis_text(row: list[tuple[int, float]], dim: int) -> str:
    """The %.12g text of _basis_vector(row, dim), its values joined by spaces.

    Only the nonzero amplitudes are formatted: every other value is 0.0,
    which %.12g writes as "0".
    """
    parts = ["0"] * (2 * dim)
    for flat, amp in row:
        parts[2 * flat] = "%.12g" % amp
    return " ".join(parts)


def _basis_report_characters(d: int, n: int, count: int, fmt: str) -> int:
    """An upper bound on the characters of a `basis` report of count states.

    Each state is its occupation, d counts of at most digits(n) digits, and
    its 2 d^N interleaved (re, im) values.  A zero prints as "0" with a
    space in CSV, or as the 13-character line "        0.0,\n" in JSON; any
    other value is at least 1/sqrt(63!) in size, so at most 18 characters
    with a 2-digit exponent, and at most d^N values are nonzero, since each
    amplitude index lies in one occupation.  A JSON state adds 80 of
    framing; 22 (CSV) and 30 (JSON) cover the report's head and tail.
    """
    dim, digits = d ** n, len(str(n))
    if fmt == "json":
        return 30 + count * (d * (10 + digits) + 26 * dim + 80) + 15 * dim
    return 22 + count * (d * (digits + 1) + 1 + 4 * dim) + 17 * dim


# ---------------------------------------------------------------- analyze

def _occupation_from_config(cfg: dict) -> counting.OccupationState:
    parsed = _parse(cfg, _SYMBOL, "analyze")
    text, modes = parsed["symbol"]
    d = parsed.get("d", max([1, *modes]))
    check_dense_dim(d, len(modes))
    if not modes:
        raise ValueError(VACUUM)  # before parse_symbol allocates d counters
    defining = len(set(modes))
    check_report_size(
        _symbol_report_characters(d, defining),
        f"the report of {defining} defining states over d = {d} modes",
    )
    return counting.parse_symbol(text, d, parsed["sector"])


def _symbol_report_characters(d: int, defining: int) -> int:
    """An upper bound on the characters of a symbol's `analyze` report of d modes.

    json.dumps(indent=2) writes each defining state (one per distinct mode
    of the symbol) as 2d lines of "0.0" or "1.0" at indent 8, 13 characters
    with ",\n", in 62 of framing (an occupation of at most MAX_SLOTS = 63
    has two digits); the natural spectrum as d lines at indent 4, the
    `defining` nonzero values at most 24 characters (the longest float repr)
    and the zeros 3, each with 6 more; 200 covers the report's head and tail.
    """
    return defining * (26 * d + 62) + 9 * d + 21 * defining + 200


def _state_from_config(cfg: dict) -> LabeledState:
    from .states import LabeledState, OneParticleBasis

    parsed = _parse(cfg, _AMPLITUDES, "analyze")
    d, n_slots, amps = parsed["d"], parsed["n_slots"], parsed["amplitudes"]
    dim = check_dense_dim(d, n_slots)  # before d ** n_slots of an unbounded n_slots
    if amps.shape != (dim,):
        raise ConfigError(f"analyze: expected {dim} amplitudes, got {len(amps)}")
    return LabeledState(n_slots, OneParticleBasis.default(d), amps)


def cmd_analyze(cfg: dict, fmt: str) -> str:
    # the sector before the keys: a config without one is told so first
    sector = _sector(cfg.get("sector"), "analyze", "sector")
    if "symbol" in cfg:
        occ = _occupation_from_config(cfg)
        report = counting.occupation_report(occ)
        states = [_basis_vector([(m, 1.0)], occ.n_modes) for m, _ in report.defining_states]
    else:
        from . import emergence

        report = emergence.detect_emergent_particles(_state_from_config(cfg), sector)
        states = [_interleave(vec) for vec, _ in report.defining_states]
    payload = {
        "verdict": report.verdict.value,
        "defining_states": [
            {"occupation": n_i, "state": state}
            for state, (_, n_i) in zip(states, report.defining_states)
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
    from . import interferometer

    parsed = _parse(cfg, _HOM, "hom")
    scenario = parsed.get("splitter") or interferometer.BeamSplitterScenario()
    baseline = baseline_flag or parsed.get("baseline", False)

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

def cmd_density(cfg: dict, fmt: str, output_override: str | None) -> str:
    from . import interferometer

    parsed = _parse(cfg, _DENSITY, "density")
    path = output_override or parsed.get("output")
    if path is None:
        raise ConfigError("density: no output path (config 'output' or --output)")
    n_points = parsed["grid"]["n_points"]
    check_report_size(
        _density_csv_characters(n_points), f"the density CSV of {n_points}^2 grid points"
    )
    grid = interferometer.joint_spatial_density(
        interferometer.GaussianPacket(**parsed["packet_s"]),
        interferometer.GaussianPacket(**parsed["packet_n"]),
        **parsed["grid"],
    )
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


def _density_csv_characters(n_points: int) -> int:
    """An upper bound on the characters of the density CSV of an n_points grid.

    Each of the n_points^2 rows is three %.12g numbers of at most 19
    characters ("-1.23456789012e-300"), two commas and a newline; the
    header "x1,x2,rho\n" adds 10.
    """
    return 10 + 60 * n_points ** 2


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
