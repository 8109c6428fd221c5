"""One fault per config, for every config shape of the CLI and every key.

Each row of SINGLE_FAULTS changes one valid config of one shape in exactly
one way: a missing key, a wrong type, a value below its minimum, a
non-finite number, an unknown extra key, or a non-object where an object
belongs.  The CLI must answer it with the row's exit code, one stderr line
and an empty stdout.  NEW_REFUSALS holds the configs that ran (or ran for
too long) before every key was typed and every slot count was capped first.
"""

import json
import time

import pytest

from identicals import cli

MISSING = object()
OUTPUT = "<density output path>"

PLANCK = {"N": 3, "P": 2, "enumerate": True, "k": 1.5}
MICROSTATES = {"n": 2, "d": 3, "kinds": ["bose_einstein", "fermi_dirac"], "k": 1.0}
BASIS = {"d": 2, "n": 2, "sector": "symmetric"}
SYMBOL = {"symbol": "f_{e1e2}", "d": 3, "sector": "symmetric"}
AMPLITUDES = {"amplitudes": [[1, 0], [0, 0]], "d": 2, "n_slots": 1, "sector": "symmetric"}
HOM = {"splitter": [[[0.6, 0], [0.8, 0]], [[0.8, 0], [-0.6, 0]]], "baseline": True}
PACKET = {"center": 0.0, "width": 1.0, "phase_velocity": 0.5}
GRID = {"x_min": -6.0, "x_max": 16.0, "n_points": 64}
DENSITY = {
    "packet_s": PACKET,
    "packet_n": {"center": 10.0, "width": 1.0},
    "grid": GRID,
    "output": OUTPUT,
}

VALID = {
    "count_planck": ("count", PLANCK),
    "count_microstates": ("count", MICROSTATES),
    "basis": ("basis", BASIS),
    "analyze_symbol": ("analyze", SYMBOL),
    "analyze_amplitudes": ("analyze", AMPLITUDES),
    "hom": ("hom", HOM),
    "density": ("density", DENSITY),
}


def fault(base: dict, **changes) -> dict:
    """base with each key in changes set to its value, or dropped for MISSING."""
    cfg = dict(base)
    for key, value in changes.items():
        if value is MISSING:
            del cfg[key]
        else:
            cfg[key] = value
    return cfg


def row(name, command, cfg, code, message):
    return pytest.param(command, cfg, code, message, id=name)


def run(tmp_path, capsys, command, cfg, *extra):
    """(exit code, stdout, stderr) of cli.main on cfg, with OUTPUT in tmp_path."""
    if isinstance(cfg, dict) and cfg.get("output") == OUTPUT:
        cfg = {**cfg, "output": str(tmp_path / "density.csv")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SECTOR = "must be 'symmetric' or 'antisymmetric', got"

SINGLE_FAULTS = [
    row("root_not_an_object", "count", [PLANCK], 2, "config root must be a JSON object"),
    # count, Planck shape
    row("planck_N_missing", "count", fault(PLANCK, N=MISSING), 2, "count: missing keys ['N']"),
    row("planck_P_missing", "count", fault(PLANCK, P=MISSING), 2, "count: missing keys ['P']"),
    row("planck_unknown", "count", fault(PLANCK, d=3), 2, "count: unknown keys ['d']"),
    row("planck_N_string", "count", fault(PLANCK, N="3"), 2, "count: N must be an integer"),
    row("planck_N_zero", "count", fault(PLANCK, N=0), 2, "count: N must be >= 1"),
    row("planck_P_float", "count", fault(PLANCK, P=2.0), 2, "count: P must be an integer"),
    row("planck_P_negative", "count", fault(PLANCK, P=-1), 2, "count: P must be >= 0"),
    row("planck_k_string", "count", fault(PLANCK, k="1"), 2, "count: k must be a number"),
    row("planck_k_nan", "count", fault(PLANCK, k=float("nan")), 2,
        "count: k must be a finite number"),
    # count, microstate shape
    row("micro_n_missing", "count", fault(MICROSTATES, n=MISSING), 2,
        "count: missing keys ['n']"),
    row("micro_d_missing", "count", fault(MICROSTATES, d=MISSING), 2,
        "count: missing keys ['d']"),
    row("micro_kinds_missing", "count", fault(MICROSTATES, kinds=MISSING), 2,
        "count: missing keys ['kinds']"),
    row("micro_unknown", "count", fault(MICROSTATES, sector="symmetric"), 2,
        "count: unknown keys ['sector']"),
    row("micro_n_bool", "count", fault(MICROSTATES, n=True), 2, "count: n must be an integer"),
    row("micro_n_negative", "count", fault(MICROSTATES, n=-1), 2, "count: n must be >= 0"),
    row("micro_d_zero", "count", fault(MICROSTATES, d=0), 2, "count: d must be >= 1"),
    row("micro_d_string", "count", fault(MICROSTATES, d="3"), 2, "count: d must be an integer"),
    row("micro_kinds_string", "count", fault(MICROSTATES, kinds="bose_einstein"), 2,
        "count: kinds must be a non-empty list"),
    row("micro_kinds_empty", "count", fault(MICROSTATES, kinds=[]), 2,
        "count: kinds must be a non-empty list"),
    row("micro_kinds_unknown", "count", fault(MICROSTATES, kinds=["bose_einstein", "anyons"]),
        2, "count: unknown statistics kind 'anyons'"),
    row("micro_k_bool", "count", fault(MICROSTATES, k=True), 2, "count: k must be a number"),
    row("micro_k_inf", "count", fault(MICROSTATES, k=float("inf")), 2,
        "count: k must be a finite number"),
    # basis
    row("basis_d_missing", "basis", fault(BASIS, d=MISSING), 2, "basis: missing keys ['d']"),
    row("basis_n_missing", "basis", fault(BASIS, n=MISSING), 2, "basis: missing keys ['n']"),
    row("basis_sector_missing", "basis", fault(BASIS, sector=MISSING), 2,
        "basis: missing keys ['sector']"),
    row("basis_unknown", "basis", fault(BASIS, kinds=["boltzmann"]), 2,
        "basis: unknown keys ['kinds']"),
    row("basis_d_zero", "basis", fault(BASIS, d=0), 2, "basis: d must be >= 1"),
    row("basis_d_float", "basis", fault(BASIS, d=2.0), 2, "basis: d must be an integer"),
    row("basis_n_zero", "basis", fault(BASIS, n=0), 2, "basis: n must be >= 1"),
    row("basis_n_string", "basis", fault(BASIS, n="2"), 2, "basis: n must be an integer"),
    row("basis_sector_unknown", "basis", fault(BASIS, sector="bosonic"), 2,
        f"basis: sector {SECTOR} 'bosonic'"),
    row("basis_sector_number", "basis", fault(BASIS, sector=1), 2, f"basis: sector {SECTOR} 1"),
    # analyze, symbol shape
    row("symbol_symbol_missing", "analyze", fault(SYMBOL, symbol=MISSING), 2,
        "analyze: missing keys ['amplitudes', 'n_slots']"),
    row("symbol_sector_missing", "analyze", fault(SYMBOL, sector=MISSING), 2,
        f"analyze: sector {SECTOR} None"),
    row("symbol_unknown", "analyze", fault(SYMBOL, n_slots=2), 2,
        "analyze: unknown keys ['n_slots']"),
    row("symbol_symbol_list", "analyze", fault(SYMBOL, symbol=["f_{e1}"]), 2,
        "analyze: symbol must be a string"),
    row("symbol_d_zero", "analyze", fault(SYMBOL, d=0), 2, "analyze: d must be >= 1"),
    row("symbol_d_float", "analyze", fault(SYMBOL, d=3.0), 2, "analyze: d must be an integer"),
    row("symbol_sector_unknown", "analyze", fault(SYMBOL, sector="fermionic"), 2,
        f"analyze: sector {SECTOR} 'fermionic'"),
    # analyze, amplitude shape
    row("amplitudes_amplitudes_missing", "analyze", fault(AMPLITUDES, amplitudes=MISSING), 2,
        "analyze: missing keys ['amplitudes']"),
    row("amplitudes_d_missing", "analyze", fault(AMPLITUDES, d=MISSING), 2,
        "analyze: missing keys ['d']"),
    row("amplitudes_n_slots_missing", "analyze", fault(AMPLITUDES, n_slots=MISSING), 2,
        "analyze: missing keys ['n_slots']"),
    row("amplitudes_sector_missing", "analyze", fault(AMPLITUDES, sector=MISSING), 2,
        f"analyze: sector {SECTOR} None"),
    row("amplitudes_unknown", "analyze", fault(AMPLITUDES, kinds=["boltzmann"]), 2,
        "analyze: unknown keys ['kinds']"),
    row("amplitudes_not_a_list", "analyze", fault(AMPLITUDES, amplitudes={"re": 1}), 2,
        "analyze: amplitudes must be a list of [re, im] pairs"),
    row("amplitudes_short_pair", "analyze", fault(AMPLITUDES, amplitudes=[[1], [0, 0]]), 2,
        "analyze: amplitudes must be a list of [re, im] pairs"),
    row("amplitudes_entry_string", "analyze", fault(AMPLITUDES, amplitudes=[[1, "0"], [0, 0]]),
        2, "analyze: amplitudes[0][1] must be a number"),
    row("amplitudes_entry_minus_inf", "analyze",
        fault(AMPLITUDES, amplitudes=[[1, 0], [float("-inf"), 0]]), 2,
        "analyze: amplitudes[1][0] must be a finite number"),
    row("amplitudes_d_zero", "analyze", fault(AMPLITUDES, d=0), 2, "analyze: d must be >= 1"),
    row("amplitudes_d_string", "analyze", fault(AMPLITUDES, d="2"), 2,
        "analyze: d must be an integer"),
    row("amplitudes_n_slots_zero", "analyze", fault(AMPLITUDES, n_slots=0), 2,
        "analyze: n_slots must be >= 1"),
    row("amplitudes_n_slots_bool", "analyze", fault(AMPLITUDES, n_slots=True), 2,
        "analyze: n_slots must be an integer"),
    row("amplitudes_wrong_count", "analyze",
        fault(AMPLITUDES, amplitudes=[[1, 0], [0, 0], [0, 0]]), 2,
        "analyze: expected 2 amplitudes, got 3"),
    row("amplitudes_sector_unknown", "analyze", fault(AMPLITUDES, sector=None), 2,
        f"analyze: sector {SECTOR} None"),
    # hom
    row("hom_unknown", "hom", fault(HOM, spins=["up", "down"]), 2,
        "hom: unknown keys ['spins']"),
    row("hom_splitter_string", "hom", fault(HOM, splitter="identity"), 2,
        "hom: splitter must be a 2x2 matrix of [re, im] pairs"),
    row("hom_splitter_three_rows", "hom",
        fault(HOM, splitter=[*HOM["splitter"], [[0, 0], [0, 0]]]), 2,
        "hom: splitter must be a 2x2 matrix of [re, im] pairs"),
    row("hom_splitter_row_of_numbers", "hom", fault(HOM, splitter=[[1, 0], HOM["splitter"][1]]),
        2, "hom: invalid splitter override: hom: amplitudes must be a list of [re, im] pairs"),
    row("hom_splitter_entry_string", "hom",
        fault(HOM, splitter=[[[0.6, 0], [0.8, "0"]], HOM["splitter"][1]]), 2,
        "hom: invalid splitter override: hom: splitter[0][1][1] must be a number"),
    row("hom_splitter_not_unitary", "hom",
        fault(HOM, splitter=[[[1, 0], [0, 0]], [[0, 0], [2, 0]]]), 2,
        "hom: invalid splitter override: matrix is not unitary (max |u^H u - I| = 3)"),
    # density
    row("density_packet_s_missing", "density", fault(DENSITY, packet_s=MISSING), 2,
        "density: missing keys ['packet_s']"),
    row("density_packet_n_missing", "density", fault(DENSITY, packet_n=MISSING), 2,
        "density: missing keys ['packet_n']"),
    row("density_grid_missing", "density", fault(DENSITY, grid=MISSING), 2,
        "density: missing keys ['grid']"),
    row("density_output_missing", "density", fault(DENSITY, output=MISSING), 2,
        "density: no output path (config 'output' or --output)"),
    row("density_unknown", "density", fault(DENSITY, sector="antisymmetric"), 2,
        "density: unknown keys ['sector']"),
    row("density_packet_s_list", "density", fault(DENSITY, packet_s=[0.0, 1.0]), 2,
        "packet_s: expected a JSON object"),
    row("density_packet_n_number", "density", fault(DENSITY, packet_n=5), 2,
        "packet_n: expected a JSON object"),
    row("density_grid_string", "density", fault(DENSITY, grid="fine"), 2,
        "grid: expected a JSON object"),
    row("packet_center_missing", "density",
        fault(DENSITY, packet_s=fault(PACKET, center=MISSING)), 2,
        "packet_s: missing keys ['center']"),
    row("packet_width_missing", "density",
        fault(DENSITY, packet_n=fault(PACKET, width=MISSING)), 2,
        "packet_n: missing keys ['width']"),
    row("packet_unknown", "density", fault(DENSITY, packet_s=fault(PACKET, sigma=1.0)), 2,
        "packet_s: unknown keys ['sigma']"),
    row("packet_center_string", "density", fault(DENSITY, packet_s=fault(PACKET, center="0")),
        2, "packet_s: center must be a number"),
    row("packet_width_nan", "density",
        fault(DENSITY, packet_n=fault(PACKET, width=float("nan"))), 2,
        "packet_n: width must be a finite number"),
    row("packet_phase_velocity_bool", "density",
        fault(DENSITY, packet_s=fault(PACKET, phase_velocity=True)), 2,
        "packet_s: phase_velocity must be a number"),
    row("grid_x_min_missing", "density", fault(DENSITY, grid=fault(GRID, x_min=MISSING)), 2,
        "grid: missing keys ['x_min']"),
    row("grid_x_max_missing", "density", fault(DENSITY, grid=fault(GRID, x_max=MISSING)), 2,
        "grid: missing keys ['x_max']"),
    row("grid_n_points_missing", "density", fault(DENSITY, grid=fault(GRID, n_points=MISSING)),
        2, "grid: missing keys ['n_points']"),
    row("grid_unknown", "density", fault(DENSITY, grid=fault(GRID, dx=0.5)), 2,
        "grid: unknown keys ['dx']"),
    row("grid_x_max_string", "density", fault(DENSITY, grid=fault(GRID, x_max="16")), 2,
        "grid: x_max must be a number"),
    row("grid_x_min_past_float", "density", fault(DENSITY, grid=fault(GRID, x_min=-10 ** 400)),
        2, "grid: x_min must be a finite number"),
    row("grid_n_points_one", "density", fault(DENSITY, grid=fault(GRID, n_points=1)), 2,
        "grid: n_points must be >= 2"),
    row("grid_n_points_float", "density", fault(DENSITY, grid=fault(GRID, n_points=64.0)), 2,
        "grid: n_points must be an integer"),
]


@pytest.mark.parametrize("name", VALID)
def test_each_base_config_is_valid(tmp_path, capsys, name):
    command, cfg = VALID[name]
    code, out, err = run(tmp_path, capsys, command, cfg)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command,cfg,code,message", SINGLE_FAULTS)
def test_a_single_fault_gives_one_error_line(tmp_path, capsys, command, cfg, code, message):
    prefix = {2: "config error", 3: "cap exceeded"}[code]
    assert run(tmp_path, capsys, command, cfg) == (code, "", f"{prefix}: {message}\n")
    assert not (tmp_path / "density.csv").exists()


def slot_cap(n: int) -> str:
    return f"N = {n} slots exceed the dense-tensor cap of 63 (numpy's 64-axis limit)"


NEW_REFUSALS = [
    # untyped keys: "false" and 1 enumerated, "no" added a stage, and an
    # integer output wrote the CSV into that file descriptor
    row("planck_enumerate_string", "count", fault(PLANCK, enumerate="false"), 2,
        "count: enumerate must be true or false"),
    row("planck_enumerate_one", "count", fault(PLANCK, enumerate=1), 2,
        "count: enumerate must be true or false"),
    row("hom_baseline_string", "hom", fault(HOM, baseline="no"), 2,
        "hom: baseline must be true or false"),
    row("density_output_number", "density", fault(DENSITY, output=1), 2,
        "density: output must be a string"),
    row("density_output_list", "density", fault(DENSITY, output=["x"]), 2,
        "density: output must be a string"),
    # the slot cap before d ** n_slots and before the basis count
    row("amplitudes_n_slots_1e11", "analyze",
        fault(AMPLITUDES, amplitudes=[[1, 0]], n_slots=10 ** 11), 3, slot_cap(10 ** 11)),
    row("amplitudes_n_slots_5e6", "analyze",
        fault(AMPLITUDES, amplitudes=[[1, 0]], n_slots=5 * 10 ** 6), 3, slot_cap(5 * 10 ** 6)),
    row("amplitudes_n_slots_1000", "analyze",
        fault(AMPLITUDES, amplitudes=[[1, 0]], n_slots=1000), 3, slot_cap(1000)),
    row("basis_n_1e11", "basis", fault(BASIS, n=10 ** 11), 3, slot_cap(10 ** 11)),
    row("basis_d_1e6_n_1e11", "basis", fault(BASIS, d=10 ** 6, n=10 ** 11), 3,
        slot_cap(10 ** 11)),
    row("basis_fermions_d_1e6_n_1e5", "basis",
        fault(BASIS, d=10 ** 6, n=10 ** 5, sector="antisymmetric"), 3, slot_cap(10 ** 5)),
]


@pytest.mark.parametrize("command,cfg,code,message", NEW_REFUSALS)
def test_untyped_and_unbounded_configs_are_refused_within_a_second(
    tmp_path, capsys, command, cfg, code, message
):
    start = time.perf_counter()
    result = run(tmp_path, capsys, command, cfg)
    assert time.perf_counter() - start < 1.0
    prefix = {2: "config error", 3: "cap exceeded"}[code]
    assert result == (code, "", f"{prefix}: {message}\n")
    assert not (tmp_path / "density.csv").exists()


def test_a_wrong_amplitude_count_within_the_cap_stays_a_config_error(tmp_path, capsys):
    cfg = fault(AMPLITUDES, amplitudes=[[1, 0]], n_slots=2)
    assert run(tmp_path, capsys, "analyze", cfg) == (
        2, "", "config error: analyze: expected 4 amplitudes, got 1\n"
    )


@pytest.mark.parametrize("n", [64, 200, 10 ** 11])
def test_more_fermions_than_modes_past_the_slot_cap_is_still_an_empty_sector(
    tmp_path, capsys, n
):
    cfg = {"d": 2, "n": n, "sector": "antisymmetric"}
    start = time.perf_counter()
    assert run(tmp_path, capsys, "basis", cfg) == (0, "occupation,amplitudes\n# empty sector\n", "")
    assert time.perf_counter() - start < 1.0


def test_the_output_flag_overrides_a_string_output(tmp_path, capsys):
    config_path = tmp_path / "from_config.csv"
    flag_path = tmp_path / "from_flag.csv"
    cfg = fault(DENSITY, output=str(config_path))
    code, out, err = run(tmp_path, capsys, "density", cfg, "--output", str(flag_path))
    assert (code, err) == (0, "")
    assert out.startswith("quantity,value\n")
    assert flag_path.read_text().startswith("x1,x2,")
    assert not config_path.exists()
