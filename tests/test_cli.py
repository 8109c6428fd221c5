import json
import pathlib
import subprocess
import sys
import time

import pytest

from identicals import cli

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
