"""The `count` command: Planck rows from memoised half-enumerations, the W
digit and enumeration size bounds, and a package that imports each public
name on first use."""

import ast
import importlib
import itertools
import json
import math
import operator
import pathlib
import subprocess
import sys
import time

import pytest

import identicals
from identicals import cli, counting, errors
from identicals.counting import CountingProblem, Mark, StatisticsKind, SymbolString

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# ------------------------------------------------ reference: the SymbolString path


def reference_symbols(problem):
    """Every symbol as a SymbolString: quanta placed by combinations(), reversed."""
    length = problem.n_resonators - 1 + problem.n_quanta
    symbols = []
    for quantum_positions in itertools.combinations(range(length), problem.n_quanta):
        marks = [Mark.SEPARATOR] * length
        for pos in quantum_positions:
            marks[pos] = Mark.QUANTUM
        symbols.append(SymbolString(tuple(marks)))
    symbols.reverse()
    return symbols


def reference_planck_output(n_res, n_quanta, fmt, k=1.0):
    """The Planck `count` report with `enumerate`, built from SymbolStrings."""
    problem = CountingProblem(n_res, n_quanta)
    w = counting.planck_count(problem)
    report = {"W": w, "S": counting.entropy(w, k)}
    report["symbols"] = [
        {"symbol": s.as_text(), "energies": list(s.energies())}
        for s in reference_symbols(problem)
    ]
    if fmt == "json":
        return json.dumps(cli._round_floats(report), indent=2) + "\n"
    lines = ["quantity,value", f"W,{w}", f"S,{cli._fmt(report['S'])}", "symbol,energies"]
    lines.extend(
        f"{row['symbol']},{';'.join(map(str, row['energies']))}"
        for row in report["symbols"]
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_res", range(1, 9))
def test_planck_rows_match_the_symbol_string_path(n_res, fmt):
    for n_quanta in range(0, 9):
        cfg = {"N": n_res, "P": n_quanta, "enumerate": True, "k": 1.5}
        assert cli.cmd_count(cfg, fmt) == reference_planck_output(
            n_res, n_quanta, fmt, k=1.5
        ), (n_res, n_quanta)


@pytest.mark.parametrize("n_res", range(1, 9))
def test_enumerate_symbols_matches_the_reference(n_res):
    for n_quanta in range(0, 9):
        problem = CountingProblem(n_res, n_quanta)
        got = counting.enumerate_symbols(problem)
        want = reference_symbols(problem)
        assert got == want
        assert all(type(m) is Mark for s in got for m in s.marks)


def test_symbol_rows_are_the_symbol_text_and_energies():
    problem = CountingProblem(4, 7)
    assert block_rows(problem) == [
        (s.as_text(), ";".join(map(str, s.energies()))) for s in reference_symbols(problem)
    ]


def test_symbol_rows_checks_the_cap_before_the_first_row():
    with pytest.raises(counting.CapExceeded):
        counting.symbol_blocks(CountingProblem(30, 30))


def test_a_million_resonators_without_quanta_is_one_row(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 100000, "P": 0, "enumerate": True}))
    assert cli.main(["count", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["quantity,value", "W,1"]
    assert lines[3:] == ["symbol,energies", "o" * 99999 + "," + ";".join(["0"] * 100000)]


# ------------------------------------------------ reference: separator positions


def separator_rows(n_res, n_quanta):
    """(text, energies) of every symbol from the positions of its separators.

    combinations() yields the N - 1 separator positions as ascending tuples in
    lexicographic order, the symbol order; resonator j holds the quanta
    between separators j - 1 and j, with sentinels at -1 and the length.
    """
    n_sep = n_res - 1
    length = n_sep + n_quanta
    ones = itertools.repeat(1)
    for seps in itertools.combinations(range(length), n_sep):
        gaps = map(operator.sub, seps + (length,), (-1,) + seps)
        energies = tuple(map(operator.sub, gaps, ones))
        yield "o".join(map("e".__mul__, energies)), energies


def block_rows(problem):
    """symbol_blocks spelled out: (text, energies text) per symbol."""
    return [
        (head + text, energies_head + energies)
        for head, energies_head, texts, energies_texts in counting.symbol_blocks(problem)
        for text, energies in zip(texts, energies_texts)
    ]


def check_against_separator_positions(n_res, n_quanta):
    problem = CountingProblem(n_res, n_quanta)
    want = list(separator_rows(n_res, n_quanta))
    assert block_rows(problem) == [
        (text, ";".join(map(str, energies))) for text, energies in want
    ], (n_res, n_quanta)


@pytest.mark.parametrize("n_res", range(1, 13))
def test_symbol_blocks_and_rows_match_separator_positions_on_the_grid(n_res):
    for n_quanta in range(0, 11):
        if math.comb(n_res - 1 + n_quanta, n_quanta) <= 3 * 10 ** 5:
            check_against_separator_positions(n_res, n_quanta)


@pytest.mark.parametrize(
    "n_res,n_quanta",
    [(40, 1), (40, 2), (2, 40), (3, 40), (64, 3), (3000, 1), (300, 2), (100000, 0)],
)
def test_symbol_blocks_match_separator_positions_on_thin_and_wide_shapes(n_res, n_quanta):
    check_against_separator_positions(n_res, n_quanta)


def separator_output(n_res, n_quanta, fmt, k):
    """The Planck `count` report with `enumerate`, from separator_rows and json.dumps."""
    w = math.comb(n_res - 1 + n_quanta, n_quanta)
    s = counting.entropy(w, k)
    rows = list(separator_rows(n_res, n_quanta))
    if fmt == "json":
        symbols = [{"symbol": text, "energies": list(energies)} for text, energies in rows]
        report = {"W": w, "S": cli._round_floats(s), "symbols": symbols}
        return json.dumps(report, indent=2) + "\n"
    lines = ["quantity,value", f"W,{w}", f"S,{cli._fmt(s)}", "symbol,energies"]
    lines += [f"{text},{';'.join(map(str, energies))}" for text, energies in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_res,n_quanta", [(13, 7), (8, 12)])
def test_the_benchmark_planck_counts_match_separator_positions(n_res, n_quanta, fmt):
    cfg = {"N": n_res, "P": n_quanta, "enumerate": True, "k": 0.8}
    assert cli.cmd_count(cfg, fmt) == separator_output(n_res, n_quanta, fmt, 0.8)


def test_the_half_rows_are_not_kept_between_calls():
    problem = CountingProblem(9, 6)
    first = counting.symbol_blocks(problem)
    second = counting.symbol_blocks(problem)
    assert first == second
    assert all(a[2] is not b[2] for a, b in zip(first, second))


def test_a_planck_count_child_peaks_below_a_bare_numpy_import(tmp_path):
    # the benchmark's peak_rss_mb is the largest child process: a Planck
    # enumeration must not outgrow the children that import numpy
    config = tmp_path / "planck.json"
    config.write_text(json.dumps({"N": 13, "P": 7, "enumerate": True}))
    wrapper = (
        "import resource, subprocess, sys\n"
        "def peak(*args):\n"
        "    subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)\n"
        "    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(peak('-m', 'identicals', 'count', '--config', sys.argv[1]))\n"
        "print(peak('-c', 'import numpy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, str(config)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    count_peak, peak_after_numpy = map(int, result.stdout.split())
    # RUSAGE_CHILDREN holds the largest child so far, so it grows only if
    # the numpy child peaked higher than the count child
    assert count_peak < peak_after_numpy


# ------------------------------------------------ the W digit bound

def run_count(tmp_path, capsys, cfg, fmt="csv"):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = cli.main(["count", "--config", str(config), "--format", fmt])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, out, err, elapsed


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "cfg",
    [
        {"N": 20000, "P": 20000},
        {"N": 10 ** 6, "P": 10 ** 6, "enumerate": True},
        {"n": 20000, "d": 20000, "kinds": ["bose_einstein"]},
        {"n": 10 ** 6, "d": 10 ** 6, "kinds": ["bose_einstein"]},
        {"n": 10 ** 6, "d": 10 ** 6, "kinds": ["boltzmann", "fermi_dirac"]},
        {"n": 10 ** 400, "d": 2, "kinds": ["boltzmann"]},
    ],
)
def test_a_count_past_the_digit_limit_exits_3_before_it_is_computed(
    tmp_path, capsys, monkeypatch, cfg, fmt
):
    def never(*args):
        raise AssertionError("the count was computed")

    monkeypatch.setattr(counting, "planck_count", never)
    monkeypatch.setattr(counting, "count_microstates", never)
    code, out, err, elapsed = run_count(tmp_path, capsys, cfg, fmt)
    assert code == 3
    assert out == ""
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err
    assert "W is about 10^" in err
    assert elapsed < 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_enumeration_past_the_character_cap_exits_3_before_a_row_is_built(
    tmp_path, capsys, monkeypatch, fmt
):
    # W = 10^6 passes the symbol cap; its rows would hold ~10^12 characters
    def never(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(counting, "_symbol_texts", never)
    cfg = {"N": 2, "P": 999999, "enumerate": True}
    code, out, err, elapsed = run_count(tmp_path, capsys, cfg, fmt)
    assert code == 3
    assert out == ""
    # W (N - 1 + P) marks, N energies of 6 digits and a separator each, and
    # each symbol's framing, once more for the report's tail; the CSV's head
    # besides, which in JSON that last framing covers
    separator = {"csv": 1, "json": 10}[fmt]
    framing = {"csv": cli._CSV_FRAMING, "json": cli._JSON_FRAMING}[fmt]
    head = report_head(2, 999999, fmt)
    size = (10 ** 6 * (1 + 999999) + 10 ** 6 * 2 * (6 + separator) + (10 ** 6 + 1) * framing
            + head)
    assert f"up to {size} characters" in err
    assert f"cap of {errors.MAX_REPORT_CHARS}" in err
    assert elapsed < 1.0


def report_head(n_res, n_quanta, fmt):
    """What cmd_count counts once for a report's head: the CSV before its rows."""
    if fmt == "json":
        return 0
    return len(cli.cmd_count({"N": n_res, "P": n_quanta}, "csv") + cli._CSV_SYMBOLS)


def test_the_character_cap_admits_every_planck_count_of_the_configs_and_benchmark():
    # the benchmark's generated Planck configs, then the committed ones
    reports = [(13, 7), (8, 12), (7, 11)]
    for path in CONFIGS.glob("count_*.json"):
        cfg = json.loads(path.read_text())
        if cfg.get("enumerate"):
            reports.append((cfg["N"], cfg["P"]))
    for n_res, n_quanta in reports:
        for fmt, framing in (("csv", cli._CSV_FRAMING), ("json", cli._JSON_FRAMING)):
            size = counting.enumeration_characters(
                CountingProblem(n_res, n_quanta), fmt, framing, report_head(n_res, n_quanta, fmt)
            )
            assert size <= errors.MAX_REPORT_CHARS, (n_res, n_quanta, fmt)
    # the shapes the tests above enumerate without a report
    for n_res, n_quanta in [(40, 1), (40, 2), (2, 40), (3, 40), (64, 3), (3000, 1), (300, 2),
                            (100000, 0)]:
        size = counting.enumeration_characters(CountingProblem(n_res, n_quanta))
        assert size <= errors.MAX_REPORT_CHARS, (n_res, n_quanta)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_report_of_long_energy_lists_exits_3_before_a_row_is_built(
    tmp_path, capsys, monkeypatch, fmt
):
    # 4000 symbols of 4000 marks pass as text, but their energies lists
    # would make a 48 MB CSV or a 192 MB JSON report
    def never(*args):
        raise AssertionError("a row was built")

    problem = CountingProblem(4000, 1)
    assert counting.enumeration_characters(problem) <= errors.MAX_REPORT_CHARS
    monkeypatch.setattr(counting, "_symbol_texts", never)
    cfg = {"N": 4000, "P": 1, "enumerate": True}
    code, out, err, elapsed = run_count(tmp_path, capsys, cfg, fmt)
    assert code == 3
    assert out == ""
    assert f"cap of {errors.MAX_REPORT_CHARS}" in err
    assert elapsed < 1.0


def test_the_json_estimate_bounds_the_whole_report():
    start = time.perf_counter()
    for n_res in range(1, 7):
        for n_quanta in range(13):
            cfg = {"N": n_res, "P": n_quanta, "enumerate": True}
            estimate = counting.enumeration_characters(
                CountingProblem(n_res, n_quanta), "json", cli._JSON_FRAMING
            )
            assert estimate >= len(cli.cmd_count(cfg, "json")), (n_res, n_quanta)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_estimate_the_cap_checks_bounds_the_whole_report(monkeypatch, fmt):
    # the estimate symbol_blocks compares with the cap, not one the test rebuilds
    estimates = []
    estimate = counting.enumeration_characters

    def recorded(*args):
        estimates.append(estimate(*args))
        return estimates[-1]

    monkeypatch.setattr(counting, "enumeration_characters", recorded)
    for n_res in range(1, 7):
        for n_quanta in range(13):
            report = cli.cmd_count({"N": n_res, "P": n_quanta, "enumerate": True}, fmt)
            assert len(estimates) == 1
            assert len(report) <= estimates.pop(), (n_res, n_quanta, fmt)


def test_a_json_report_of_few_resonators_and_many_quanta_exits_3_before_a_row_is_built(
    tmp_path, capsys, monkeypatch
):
    # estimated at 1.91e7 characters without the framing, admitted, and 2.92e7 written
    def never(*args):
        raise AssertionError("a row was built")

    problem = CountingProblem(5, 43)
    assert counting.enumeration_characters(problem, "json") <= errors.MAX_REPORT_CHARS
    monkeypatch.setattr(counting, "_symbol_texts", never)
    code, out, err, elapsed = run_count(tmp_path, capsys, {"N": 5, "P": 43, "enumerate": True},
                                        "json")
    assert code == 3
    assert out == ""
    assert f"cap of {errors.MAX_REPORT_CHARS}" in err
    assert elapsed < 1.0


def test_the_character_estimate_follows_reports_of_many_resonators():
    # where the energies lists dominate, the estimate is the report's size
    # to within its per-symbol framing; W (N + P) read a third of the CSV
    for n_res, n_quanta in [(40, 1), (40, 2), (200, 1), (100000, 0)]:
        problem = CountingProblem(n_res, n_quanta)
        for fmt in ("csv", "json"):
            report = cli.cmd_count({"N": n_res, "P": n_quanta, "enumerate": True}, fmt)
            rows = len(report) - len(cli.cmd_count({"N": n_res, "P": n_quanta}, fmt))
            estimate = counting.enumeration_characters(problem, fmt)
            assert 0.95 <= rows / estimate <= 1.15, (n_res, n_quanta, fmt, rows, estimate)


def test_the_exact_count_decides_at_the_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    # 10^(limit-1) has exactly `limit` digits; 10^limit has one more
    code, out, _, _ = run_count(
        tmp_path, capsys, {"n": limit - 1, "d": 10, "kinds": ["boltzmann"]}
    )
    assert code == 0
    assert out.splitlines()[1] == f"boltzmann,1{'0' * (limit - 1)},{cli._fmt((limit - 1) * math.log(10))}"
    code, _, err, _ = run_count(tmp_path, capsys, {"n": limit, "d": 10, "kinds": ["boltzmann"]})
    assert code == 3
    assert "cap exceeded" in err


def test_a_printable_count_with_a_huge_argument_is_printed(tmp_path, capsys):
    # lgamma of 10^300 overflows; W = C(10^300 + 1, 2) has 600 digits
    n_res = 10 ** 300
    code, out, _, elapsed = run_count(tmp_path, capsys, {"N": n_res, "P": 2})
    assert code == 0
    assert out.splitlines()[1] == f"W,{math.comb(n_res + 1, 2)}"
    assert elapsed < 1.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("k", [1e308, -1e308])
@pytest.mark.parametrize(
    "cfg", [{"N": 3, "P": 4}, {"n": 5, "d": 6, "kinds": ["fermi_dirac", "boltzmann"]}],
    ids=["planck", "microstates"],
)
def test_an_entropy_past_the_float_range_is_a_domain_error(tmp_path, capsys, cfg, k, fmt):
    # k ln W was printed as inf, or as Infinity, which is not JSON
    code, out, err, _ = run_count(tmp_path, capsys, {**cfg, "k": k}, fmt)
    assert (code, out) == (4, "")
    assert err.startswith(f"domain error: entropy S = k ln W is not finite for k = {k!r}, ln W = ")
    assert err.count("\n") == 1


def test_entropy_is_finite_or_a_value_error():
    assert counting.entropy(1, 1e308) == 0.0
    assert counting.entropy(2, 1e308) == 1e308 * math.log(2)
    for k in [1e308, -1e308, math.inf, math.nan]:
        with pytest.raises(ValueError, match="is not finite"):
            counting.entropy(15, k)


@pytest.mark.parametrize("kind", list(StatisticsKind))
def test_count_log10_is_within_a_tenth_of_a_digit(kind):
    for n in [0, 1, 2, 3, 7, 40, 300, 2000]:
        for d in [1, 2, 3, 10, 99, 1000, 10 ** 5, 10 ** 12, 10 ** 40]:
            count = counting.count_microstates(kind, n, d)
            estimate = counting.count_log10(kind, n, d)
            if count == 0:
                assert estimate == -math.inf
            else:
                assert abs(estimate - math.log10(count)) < 0.1, (n, d)


# ------------------------------------------------ imports on first use

PARENT_EXPORTS = {
    "counting": [
        "CountingProblem", "StatisticsKind", "SymbolString", "count_microstates",
        "entropy", "enumerate_distributions", "enumerate_symbols", "planck_count",
    ],
    "emergence": [
        "EmergenceReport", "Verdict", "detect_emergent_particles",
        "genidentity_track", "natural_orbitals", "slater_rank_two_fermions",
    ],
    "errors": ["CapExceeded"],
    "exchange": [
        "ExchangeSector", "is_in_sector", "sector_basis", "sector_project",
        "symmetrized_product",
    ],
    "fock": [
        "FockVector", "OccupationState", "fock_to_labeled", "format_symbol",
        "labeled_to_fock", "occupation_to_labeled", "parse_symbol",
        "replace_indistinguishable",
    ],
    "interferometer": [
        "BeamSplitterScenario", "DensityGrid", "ExperimentResult", "GaussianPacket",
        "build_initial_state", "evolve_through_splitter", "joint_spatial_density",
        "measure_ports_and_spins", "packet_overlap",
    ],
    "states": [
        "LabeledState", "OneParticleBasis", "Permutation",
        "apply_one_particle_unitary", "apply_permutation", "inner_product",
        "reduce_one_particle", "tensor_product",
    ],
}


#: exported names of the symbol grammar that now only counting binds
BOUND_IN_COUNTING = {"format_symbol", "parse_symbol", "replace_indistinguishable"}


def test_every_exported_name_resolves_to_its_submodule_object():
    for module, names in PARENT_EXPORTS.items():
        sub = importlib.import_module(f"identicals.{module}")
        assert getattr(identicals, module) is sub
        for name in names:
            home = counting if name in BOUND_IN_COUNTING else sub
            assert getattr(identicals, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        identicals.no_such_name


def test_star_import_and_dir_show_the_same_public_names():
    public = {*PARENT_EXPORTS, *itertools.chain(*PARENT_EXPORTS.values())}
    namespace = {}
    exec("from identicals import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
    assert public <= set(dir(identicals))


#: the numpy modules of the package, which a `count`, `basis` or symbol `analyze`
#: child must not load: their reports come from counting alone
DENSE_MODULES = [
    "identicals.emergence", "identicals.exchange", "identicals.fock",
    "identicals.interferometer", "identicals.states",
]
#: standard modules a `count`, `basis` or symbol `analyze` child must not load: the
#: package declares no dataclass, and dataclasses imports the rest
HEAVY_STDLIB = ["dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy"]
#: the package's modules that the benchmark's in-process workers import
SEVEN_MODULES = ["counting", "states", "exchange", "fock", "emergence", "interferometer", "cli"]


@pytest.mark.parametrize(
    "command,config,fmt",
    [
        ("count", "count_planck_figure", "csv"),
        ("analyze", "analyze_condensate", "csv"),
        ("analyze", "analyze_fermion_pair", "csv"),
        ("analyze", {"symbol": "f_{e1e4096}", "sector": "symmetric"}, "csv"),
        ("basis", "basis_symmetric_2_3", "csv"),
        ("basis", "basis_antisymmetric_4_2", "csv"),
        ("basis", {"d": 2, "n": 3, "sector": "antisymmetric"}, "csv"),
        ("basis", "basis_antisymmetric_4_2", "json"),
    ],
    ids=[
        "count_planck_figure", "analyze_condensate", "analyze_fermion_pair", "analyze_e1e4096",
        "basis_symmetric_2_3", "basis_antisymmetric_4_2", "basis_empty_sector",
        "basis_antisymmetric_4_2_json",
    ],
)
def test_runs_without_numpy(tmp_path, command, config, fmt):
    numpy_modules, dense_modules, heavy_modules = child_modules(
        tmp_path, command, config, "--format", fmt
    )
    assert numpy_modules == []
    assert dense_modules == []
    assert heavy_modules == []


@pytest.mark.parametrize(
    "command,config",
    [
        ("hom", "hom_default"),
        ("density", "density_far"),
        ("analyze", {
            "sector": "antisymmetric", "d": 2, "n_slots": 2,
            "amplitudes": [[0, 0], [0.5 ** 0.5, 0], [-(0.5 ** 0.5), 0], [0, 0]],
        }),
    ],
    ids=["hom_default", "density_far", "analyze_amplitudes"],
)
def test_numpy_commands_load_no_dataclasses(tmp_path, command, config):
    # numpy imports inspect, ast, dis and tokenize itself: only dataclasses is the package's
    numpy_modules, _, heavy_modules = child_modules(
        tmp_path, command, config, "--output", str(tmp_path / "report")
    )
    assert numpy_modules
    assert "dataclasses" not in heavy_modules


def test_the_seven_modules_load_no_dataclasses_and_emergence_no_fock():
    # emergence imports the occupation level from counting and the dense
    # kernels from states and exchange, and nothing of fock
    code = (
        "import sys\n"
        "absent = 'dataclasses' not in sys.modules\n"
        "import identicals.emergence\n"
        "print(sorted(m for m in sys.modules if m.startswith('identicals')))\n"
        f"for name in {SEVEN_MODULES!r}:\n"
        "    __import__('identicals.' + name)\n"
        "print(absent and 'dataclasses' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded, dataclasses_loaded = result.stdout.splitlines()
    assert ast.literal_eval(loaded) == [
        "identicals", "identicals.counting", "identicals.emergence", "identicals.errors",
        "identicals.exchange", "identicals.states",
    ]
    assert dataclasses_loaded == "False"


def test_only_the_cli_imports_inside_a_function():
    # the numpy-free modules are numpy-free as wholes: no module but the CLI
    # defers an import to the function that needs it
    nested = {}
    for path in sorted(pathlib.Path(identicals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested[path.name] = [
            node.lineno
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    assert nested.pop("cli.py"), "the scan finds the CLI's per-command imports"
    assert {name: lines for name, lines in nested.items() if lines} == {}


def test_counting_imports_no_numpy():
    code = (
        "import sys\n"
        "import identicals.counting\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('identicals', 'numpy')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert ast.literal_eval(result.stdout) == [
        "identicals", "identicals.counting", "identicals.errors",
    ]


def child_modules(tmp_path, command, config, *args):
    """The numpy, dense package and HEAVY_STDLIB modules a CLI child loaded, as three lists.

    config names a file of configs/ or is written to a file; the child must exit 0.
    """
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIGS / f"{config}.json"
    code = (
        "import sys\n"
        # an interpreter whose site already loaded one of these is not held to it
        f"absent = [m for m in {HEAVY_STDLIB!r} if m not in sys.modules]\n"
        "import runpy\n"
        "sys.argv = ['identicals', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('identicals', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        f"print([m for m in {DENSE_MODULES!r} if m in sys.modules])\n"
        "print([m for m in absent if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, command, "--config", str(path), *args],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return [ast.literal_eval(line) for line in result.stdout.splitlines()[-3:]]


def test_exchange_sector_is_exported_without_numpy():
    code = (
        "import sys\n"
        "import identicals\n"
        "from identicals import ExchangeSector\n"
        "assert identicals.ExchangeSector is ExchangeSector\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        "import identicals.exchange\n"
        "print(identicals.ExchangeSector is identicals.exchange.ExchangeSector)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True"]


# ------------------------------------------------ the microstate report in JSON

def test_the_json_microstate_rows_are_the_csv_rows(tmp_path, capsys):
    cfg = {"n": 3, "d": 2, "kinds": ["fermi_dirac", "boltzmann", "bose_einstein"], "k": 1.5}
    code, csv_out, err, _ = run_count(tmp_path, capsys, cfg, "csv")
    assert (code, err) == (0, "")
    code, json_out, err, _ = run_count(tmp_path, capsys, cfg, "json")
    assert (code, err) == (0, "")
    header, *lines = csv_out.splitlines()
    assert header == "kind,count,entropy"
    rows = json.loads(json_out)["counts"]
    assert [row["kind"] for row in rows] == cfg["kinds"]
    assert [row["count"] for row in rows] == [0, 8, 4]
    for row, line in zip(rows, lines, strict=True):
        kind, count, entropy = line.split(",")
        assert row["kind"] == kind
        assert type(row["count"]) is int and str(row["count"]) == count
        if entropy == "undefined":
            assert row["entropy"] is None
        else:
            assert row["entropy"] == float(entropy)
            assert entropy == f"{1.5 * math.log(row['count']):.12g}"
    assert lines[0] == "fermi_dirac,0,undefined"
