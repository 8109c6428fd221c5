import json
import pathlib
import subprocess
import sys
import time

import pytest

from identicals import cli

from conftest import EMPTY_DENSITY_GRIDS

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "identicals", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


GOLDEN_CASES = [
    ("count", "count_microstates"),
    ("count", "count_planck"),
    ("count", "count_planck_figure"),
    ("basis", "basis_symmetric_2_3"),
    ("basis", "basis_antisymmetric_4_2"),
    ("analyze", "analyze_condensate"),
    ("analyze", "analyze_fermion_pair"),
    ("hom", "hom_default"),
]


@pytest.mark.parametrize("command,name", GOLDEN_CASES)
def test_documented_configs_match_goldens_and_are_deterministic(command, name):
    config = str(CONFIGS / f"{name}.json")
    first = run_cli(command, "--config", config)
    second = run_cli(command, "--config", config)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == (GOLDEN / f"{name}.out").read_text()


def test_density_golden_and_determinism(tmp_path):
    config = str(CONFIGS / "density_far.json")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    first = run_cli("density", "--config", config, "--output", str(out1))
    second = run_cli("density", "--config", config, "--output", str(out2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == (GOLDEN / "density_far.out").read_text()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (GOLDEN / "density_far.csv").read_bytes()


def test_count_example_table():
    result = run_cli("count", "--config", str(CONFIGS / "count_microstates.json"))
    lines = result.stdout.strip().split("\n")
    assert lines[1].startswith("boltzmann,8,")
    assert lines[2].startswith("bose_einstein,4,")
    assert lines[3] == "fermi_dirac,0,undefined"


def test_count_planck_vacuum(tmp_path):
    config = write_config(tmp_path, {"N": 2, "P": 0})
    result = run_cli("count", "--config", config)
    assert result.returncode == 0
    assert "W,1" in result.stdout
    assert "S,0" in result.stdout


def test_count_enumeration_has_120_rows(tmp_path):
    config = write_config(tmp_path, {"N": 4, "P": 7, "enumerate": True})
    result = run_cli("count", "--config", config)
    symbol_rows = [
        line for line in result.stdout.strip().split("\n")[4:] if line
    ]
    assert len(symbol_rows) == 120
    assert any(line.endswith("4;2;0;1") for line in symbol_rows)


def test_basis_empty_sector_warns(tmp_path):
    config = write_config(tmp_path, {"d": 2, "n": 3, "sector": "antisymmetric"})
    result = run_cli("basis", "--config", config)
    assert result.returncode == 0
    assert "# empty sector" in result.stdout


def test_analyze_south_north_amplitudes(tmp_path):
    s = 0.7071067811865476
    config = write_config(
        tmp_path,
        {
            "sector": "antisymmetric",
            "d": 2,
            "n_slots": 2,
            "amplitudes": [[0, 0], [s, 0], [-s, 0], [0, 0]],
        },
    )
    result = run_cli("analyze", "--config", config)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["verdict"] == "PARTICLE_DECOMPOSITION"
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_analyze_two_slater_superposition(tmp_path):
    s = 0.5
    amps = [[0.0, 0.0]] * 16
    amps[1] = [s, 0.0]    # |m1 m2>
    amps[4] = [-s, 0.0]
    amps[11] = [s, 0.0]   # |m3 m4>
    amps[14] = [-s, 0.0]
    config = write_config(
        tmp_path,
        {"sector": "antisymmetric", "d": 4, "n_slots": 2, "amplitudes": amps},
    )
    result = run_cli("analyze", "--config", config)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "NO_PARTICLE_DECOMPOSITION"


def test_hom_defaults_without_config():
    result = run_cli("hom")
    assert result.returncode == 0
    assert "final,p_coincidence,0.5" in result.stdout
    assert "initial," not in result.stdout


def test_hom_baseline_flag():
    result = run_cli("hom", "--baseline")
    assert "initial,sz_sz,-1" in result.stdout


def test_hom_identity_splitter(tmp_path):
    config = write_config(
        tmp_path,
        {"splitter": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    )
    result = run_cli("hom", "--config", config)
    assert result.returncode == 0
    assert "final,p_coincidence,1" in result.stdout


def test_json_format(tmp_path):
    config = write_config(tmp_path, {"d": 2, "n": 3, "sector": "symmetric"})
    result = run_cli("basis", "--config", config, "--format", "json")
    payload = json.loads(result.stdout)
    assert len(payload["states"]) == 4


def test_output_flag_writes_file(tmp_path):
    config = write_config(tmp_path, {"N": 2, "P": 3})
    out = tmp_path / "report.csv"
    result = run_cli("count", "--config", config, "--output", str(out))
    assert result.returncode == 0
    assert "W,4" in out.read_text()


class TestExitCodes:
    def test_unknown_key_is_schema_error(self, tmp_path):
        config = write_config(tmp_path, {"N": 2, "P": 3, "bogus": 1})
        assert run_cli("count", "--config", config).returncode == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("count", "--config", str(path)).returncode == 2

    def test_non_unitary_splitter_is_schema_error(self, tmp_path):
        config = write_config(
            tmp_path, {"splitter": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}
        )
        assert run_cli("hom", "--config", config).returncode == 2

    def test_enumeration_cap_exceeded(self, tmp_path):
        config = write_config(tmp_path, {"N": 40, "P": 40, "enumerate": True})
        assert run_cli("count", "--config", config).returncode == 3

    def test_identical_packets_is_domain_error(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "packet_s": {"center": 0.0, "width": 1.0},
                "packet_n": {"center": 0.0, "width": 1.0},
                "grid": {"x_min": -6.0, "x_max": 6.0, "n_points": 64},
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert run_cli("density", "--config", config).returncode == 4

    def test_sector_violation_is_domain_error(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "sector": "antisymmetric",
                "d": 2,
                "n_slots": 2,
                "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]],
            },
        )
        assert run_cli("analyze", "--config", config).returncode == 4

    def test_unwritable_path_is_io_error(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "packet_s": {"center": 0.0, "width": 1.0},
                "packet_n": {"center": 10.0, "width": 1.0},
                "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": 64},
                "output": str(tmp_path / "missing_dir" / "out.csv"),
            },
        )
        assert run_cli("density", "--config", config).returncode == 5

    @pytest.mark.parametrize(
        "packet_s",
        [
            {"center": 0.0, "width": 1.0, "phase_velocity": 1e308},
            {"center": 1e308, "width": 1.0},
            {"center": 0.0, "width": 1e-300},
        ],
        ids=["nan_density", "center_overflow", "width_underflow"],
    )
    def test_out_of_range_packet_is_domain_error(self, tmp_path, packet_s):
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            {
                "packet_s": packet_s,
                "packet_n": {"center": 10.0, "width": 1.0},
                "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": 64},
                "output": str(out),
            },
        )
        result = run_cli("density", "--config", config)
        assert result.returncode == 4
        assert "domain error" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_nan_packet_is_named_without_numpy_warnings(self, tmp_path):
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            {
                "packet_s": {"center": 0.0, "width": 1.0, "phase_velocity": 1e308},
                "packet_n": {"center": 10.0, "width": 1.0},
                "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": 64},
                "output": str(out),
            },
        )
        result = run_cli("density", "--config", config)
        assert result.returncode == 4
        assert "RuntimeWarning" not in result.stderr
        assert "GaussianPacket(center=0.0, width=1.0, phase_velocity=1e+308)" in result.stderr
        assert "grid too coarse" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("case", EMPTY_DENSITY_GRIDS)
    def test_a_grid_without_density_exits_4_with_one_line(self, tmp_path, case):
        # rho vanishes on every point: the integral check refuses the grid
        # before cross_term_max divides by max rho, so numpy prints no warning
        packet_s, packet_n, grid = EMPTY_DENSITY_GRIDS[case]
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            {"packet_s": packet_s, "packet_n": packet_n, "grid": grid, "output": str(out)},
        )
        result = run_cli("density", "--config", config)
        assert result.returncode == 4
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("domain error:")
        assert not out.exists()

    def test_density_grid_over_the_cap_exits_3_quickly(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        config = write_config(
            tmp_path,
            {
                "packet_s": {"center": 0.0, "width": 1.0},
                "packet_n": {"center": 10.0, "width": 1.0},
                "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": 4097},
                "output": str(out),
            },
        )
        start = time.perf_counter()
        code = cli.main(["density", "--config", config])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert "cap exceeded" in capsys.readouterr().err
        assert not out.exists()


def test_basis_with_more_modes_than_the_recursion_limit(tmp_path):
    # passes the count x d^N cap; Bose-Einstein enumeration used to recurse once per mode
    config = write_config(tmp_path, {"d": 1200, "n": 1, "sector": "symmetric"})
    out = tmp_path / "basis.csv"
    assert cli.main(["basis", "--config", config, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1200
    assert lines[1].startswith("1;" + "0;" * 1198 + "0,")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("k", NON_FINITE, ids=["nan", "inf", "minus_inf"])
def test_non_finite_k_is_a_config_error(tmp_path, k, fmt):
    # json.dumps writes NaN and +-Infinity, and json.load reads them back
    config = write_config(tmp_path, {"N": 3, "P": 2, "k": k})
    result = run_cli("count", "--config", config, "--format", fmt)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "config error: count: k must be a finite number\n"


def test_integer_k_beyond_float_range_is_a_config_error(tmp_path):
    config = write_config(tmp_path, {"N": 3, "P": 2, "k": 10 ** 400})
    result = run_cli("count", "--config", config)
    assert result.returncode == 2
    assert result.stderr == "config error: count: k must be a finite number\n"


@pytest.mark.parametrize(
    "packet_s,grid,message",
    [
        ({"center": float("nan"), "width": 1.0}, {},
         "packet_s: center must be a finite number"),
        ({"center": 0.0, "width": 1.0}, {"x_min": float("-inf")},
         "grid: x_min must be a finite number"),
    ],
    ids=["nan_center", "minus_inf_x_min"],
)
def test_non_finite_density_number_is_a_config_error(tmp_path, packet_s, grid, message):
    out = tmp_path / "out.csv"
    config = write_config(
        tmp_path,
        {
            "packet_s": packet_s,
            "packet_n": {"center": 10.0, "width": 1.0},
            "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": 64, **grid},
            "output": str(out),
        },
    )
    result = run_cli("density", "--config", config)
    assert result.returncode == 2
    assert result.stderr == f"config error: {message}\n"
    assert not out.exists()


# a JSON [re, im] entry and the end of its config error
BAD_ENTRIES = [
    pytest.param("1", "must be a number", id="string"),
    pytest.param(True, "must be a number", id="bool"),
    pytest.param(float("nan"), "must be a finite number", id="nan"),
    pytest.param(float("inf"), "must be a finite number", id="inf"),
    pytest.param(float("-inf"), "must be a finite number", id="minus_inf"),
    pytest.param(10 ** 400, "must be a finite number", id="int_past_float"),
]


@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
@pytest.mark.parametrize("entry,error", BAD_ENTRIES)
def test_a_bad_amplitude_entry_is_a_config_error(tmp_path, capsys, entry, error, part):
    pair = [entry, 0] if part == 0 else [0, entry]
    config = write_config(
        tmp_path,
        {"sector": "symmetric", "d": 2, "n_slots": 1, "amplitudes": [[1, 0], pair]},
    )
    assert cli.main(["analyze", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: analyze: amplitudes[1][{part}] {error}\n"


@pytest.mark.parametrize("entry,error", BAD_ENTRIES)
def test_a_bad_splitter_entry_is_a_config_error(tmp_path, capsys, entry, error):
    config = write_config(
        tmp_path, {"splitter": [[[1, 0], [0, 0]], [[0, 0], [entry, 0]]]}
    )
    assert cli.main(["hom", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: hom: invalid splitter override: hom: splitter[1][1][0] {error}\n"
    )


@pytest.mark.parametrize(
    "splitter,reason",
    [
        # json reads 1e400 as inf
        ('[[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]',
         "hom: splitter[0][0][0] must be a finite number"),
        # finite entries whose product u^H u overflows
        ('[[[1e200, 0], [1e200, 0]], [[1e200, 0], [1, 0]]]',
         "matrix is not unitary (max |u^H u - I| = inf)"),
    ],
    ids=["inf_entry", "overflowing_product"],
)
def test_a_non_finite_splitter_is_one_config_error_line(tmp_path, splitter, reason):
    path = tmp_path / "config.json"
    path.write_text('{"splitter": %s}' % splitter)
    result = run_cli("hom", "--config", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"config error: hom: invalid splitter override: {reason}\n"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_hom_json_has_the_csv_numbers_and_is_deterministic(capsys):
    config = str(CONFIGS / "hom_default.json")
    text = run_main(capsys, "hom", "--config", config, "--format", "json")
    assert run_main(capsys, "hom", "--config", config, "--format", "json") == text
    flat = {}
    for stage, rows in json.loads(text).items():
        for name, value in rows.items():
            if name == "joint_probabilities":
                flat.update({(stage, f"p({k})"): v for k, v in value.items()})
            elif name == "correlators":
                flat.update({(stage, k): v for k, v in value.items()})
            else:
                flat[stage, name] = value
    header, *lines = run_main(capsys, "hom", "--config", config).splitlines()
    assert header == "stage,quantity,value"
    from_csv = {}
    for line in lines:
        stage, quantity, value = line.split(",")
        numbers = [float(v) for v in value.split(" ")]
        from_csv[stage, quantity] = numbers if quantity == "conditional_spin_state" else numbers[0]
    assert from_csv == flat


def test_density_json_has_the_csv_numbers_and_is_deterministic(tmp_path, capsys):
    config = str(CONFIGS / "density_far.json")
    grids = [tmp_path / f"{k}.csv" for k in range(3)]
    texts = [
        run_main(capsys, "density", "--config", config, "--output", str(path), *fmt)
        for path, fmt in zip(grids, [["--format", "json"], ["--format", "json"], []])
    ]
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    header, *rows = texts[2].splitlines()
    assert header == "quantity,value"
    assert {k: float(v) for k, v in (row.split(",") for row in rows)} == report
    golden = (GOLDEN / "density_far.csv").read_bytes()
    assert all(path.read_bytes() == golden for path in grids)


@pytest.mark.parametrize("command", ["count", "basis", "analyze", "density"])
def test_a_command_other_than_hom_needs_a_config(command, capsys):
    assert cli.main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {command}: --config is required\n"
