"""One report cap for every command whose report can grow without limit.

errors.check_report_size compares an upper bound on a report's characters
with errors.MAX_REPORT_CHARS before anything is built.  `basis` and
`density` estimate from their config alone; `count --enumerate` and symbol
`analyze` have their own estimates (test_count_command.py,
test_symbol_report_bound.py).  A microstate `count` is at most one row per
kind, so a repeated kind is a config error.  An AST scan keeps the check the
only reader of the cap.  The repeated-kinds refusal is a row of
test_config_schema.py.
"""

import ast
import itertools
import json
import pathlib
import re
import time

import numpy as np
import pytest

from identicals import cli, counting, errors, interferometer
from identicals.counting import ExchangeSector
from identicals.interferometer import DensityGrid, GaussianPacket

SOURCE = pathlib.Path(errors.__file__).parent
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
CAP = "MAX_REPORT_CHARS"
FORMATS = ["csv", "json"]
SECTORS = list(ExchangeSector)
FAR = {"packet_s": {"center": 0.0, "width": 1.0}, "packet_n": {"center": 10.0, "width": 1.0}}


def run(tmp_path, capsys, command, cfg, fmt="csv"):
    """cli.main on cfg: (exit code, stdout, stderr, seconds)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    start = time.perf_counter()
    code = cli.main([command, "--config", str(config), "--format", fmt])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, out, err, elapsed


def density_config(tmp_path, n_points):
    return {**FAR, "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": n_points},
            "output": str(tmp_path / "density.csv")}


def basis_estimate(d, n, sector, fmt):
    count = counting.count_microstates(sector.statistics, n, d)
    return cli._basis_report_characters(d, n, count, fmt)


# ------------------------------------------------------------ one reader of the cap

def cap_reads(tree: ast.AST) -> list[str]:
    """The function around each read of MAX_REPORT_CHARS ('' at module level).

    A read is a loaded name, any attribute of that name, or an import of it.
    """
    reads = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.Name) and node.id == CAP and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == CAP
            or isinstance(node, ast.alias) and node.name == CAP
        ):
            reads.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return reads


def test_the_scan_sees_every_way_to_read_the_cap():
    code = (
        "from .errors import MAX_REPORT_CHARS\n"
        "MAX_REPORT_CHARS = 1\n"
        "def f(size):\n"
        "    return size > errors.MAX_REPORT_CHARS or MAX_REPORT_CHARS\n"
    )
    assert cap_reads(ast.parse(code)) == ["", "f", "f"]
    assert cap_reads(ast.parse("MAX_REPORT_CHARS = 2; cap = 'MAX_REPORT_CHARS'")) == []


def test_check_report_size_is_the_only_reader_of_the_cap():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "ENUMERATION_CHARACTER_CAP" not in text, path.name
        found += [(path.stem, where) for where in cap_reads(ast.parse(text))]
    # the comparison and the message: the scan sees the one allowed reader
    assert found == [("errors", "check_report_size")] * 2


def test_the_check_names_the_report_its_size_and_the_cap():
    errors.check_report_size(errors.MAX_REPORT_CHARS, "a report")
    with pytest.raises(errors.CapExceeded) as info:
        errors.check_report_size(errors.MAX_REPORT_CHARS + 1, "a report")
    assert str(info.value) == (
        f"a report is up to {errors.MAX_REPORT_CHARS + 1} characters, "
        f"over the report cap of {errors.MAX_REPORT_CHARS}"
    )


# ------------------------------------------------------------ the estimates bound the reports

@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
def test_the_basis_estimate_bounds_every_small_report(sector, fmt):
    empty = 0
    for d, n in itertools.product(range(1, 7), range(1, 5)):
        report = cli.cmd_basis({"d": d, "n": n, "sector": sector.value}, fmt)
        assert len(report) <= basis_estimate(d, n, sector, fmt), (d, n)
        empty += report in ("occupation,amplitudes\n# empty sector\n", '{\n  "states": []\n}\n')
    assert empty == {ExchangeSector.SYMMETRIC: 0, ExchangeSector.ANTISYMMETRIC: 6}[sector]


def test_the_density_estimate_bounds_every_grid():
    grids = []
    packets = [((0.0, 1.0, 0.0), (10.0, 1.0, 0.0)), ((0.0, 1.0, 0.0), (1.5, 1.2, 1.0)),
               ((-3.0, 0.3, -1.5), (3.0, 0.4, 0.7))]
    for (ps, pn), n_points in itertools.product(packets, [48, 97, 160]):
        margin = 7.0 * max(ps[1], pn[1])
        lo, hi = min(ps[0], pn[0]) - margin, max(ps[0], pn[0]) + margin
        grids.append(interferometer.joint_spatial_density(
            GaussianPacket(*ps), GaussianPacket(*pn), lo, hi, n_points
        ))
    # the widest %.12g numbers: a sign, 12 digits, '.', 'e-' and a 3-digit exponent
    widest = -1.23456789012e-300
    for n_points in [2, 3, 17]:
        grids.append(DensityGrid(np.full(n_points, widest),
                                 np.full((n_points, n_points), widest), 0.0))
    for grid in grids:
        assert len(grid.to_csv()) <= cli._density_csv_characters(grid.n_points), grid.n_points
    assert len(grids[-1].to_csv()) == cli._density_csv_characters(17)


def test_the_cap_admits_every_committed_and_benchmark_config():
    # the benchmark's generated basis configs, then the committed ones; the
    # largest basis and density the other tests run
    bases = [(3, 3, "symmetric"), (5, 3, "antisymmetric"), (1200, 1, "symmetric")]
    n_points = [220, 64]
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if path.stem.startswith("basis"):
            bases.append((cfg["d"], cfg["n"], cfg["sector"]))
        elif path.stem.startswith("density"):
            n_points.append(cfg["grid"]["n_points"])
    assert len(bases) == 5 and len(n_points) == 3
    for d, n, sector in bases:
        formats = ["csv"] if d == 1200 else FORMATS
        for fmt in formats:
            assert basis_estimate(d, n, ExchangeSector(sector), fmt) <= errors.MAX_REPORT_CHARS
    for n in n_points:
        assert cli._density_csv_characters(n) <= errors.MAX_REPORT_CHARS


def test_the_largest_admitted_one_particle_basis_and_density_grid():
    sym = ExchangeSector.SYMMETRIC
    for fmt, largest in [("csv", 1824), ("json", 733)]:
        assert basis_estimate(largest, 1, sym, fmt) <= errors.MAX_REPORT_CHARS
        assert basis_estimate(largest + 1, 1, sym, fmt) > errors.MAX_REPORT_CHARS
    assert cli._density_csv_characters(577) <= errors.MAX_REPORT_CHARS
    assert cli._density_csv_characters(578) > errors.MAX_REPORT_CHARS


# ------------------------------------------------------------ the check decides at its bound

BOUNDED = [
    pytest.param("basis", lambda tmp: {"d": 3, "n": 2, "sector": "symmetric"}, "csv",
                 id="basis-csv"),
    pytest.param("basis", lambda tmp: {"d": 4, "n": 2, "sector": "antisymmetric"}, "json",
                 id="basis-json"),
    pytest.param("density", lambda tmp: density_config(tmp, 40), "csv", id="density"),
    pytest.param("count", lambda tmp: {"N": 4, "P": 3, "enumerate": True}, "json",
                 id="count-enumerate"),
    pytest.param("analyze", lambda tmp: {"symbol": "f_{e1e3}", "d": 5, "sector": "symmetric"},
                 "json", id="analyze-symbol"),
]


@pytest.mark.parametrize("command,cfg,fmt", BOUNDED)
def test_a_report_at_the_cap_runs_and_one_past_it_exits_3(
    tmp_path, capsys, monkeypatch, command, cfg, fmt
):
    # the estimate, as the check reports it past a cap of 0
    monkeypatch.setattr(errors, CAP, 0)
    code, out, err, _ = run(tmp_path, capsys, command, cfg(tmp_path), fmt)
    assert (code, out) == (3, "")
    (size,) = map(int, re.findall(r"is up to (\d+) characters, over the report cap of 0\n$", err))
    monkeypatch.setattr(errors, CAP, size)
    code, out, err, _ = run(tmp_path, capsys, command, cfg(tmp_path), fmt)
    assert (code, err) == (0, "")
    report = (tmp_path / "density.csv").read_text() if command == "density" else out
    assert len(report) <= size
    (tmp_path / "density.csv").unlink(missing_ok=True)
    monkeypatch.setattr(errors, CAP, size - 1)
    code, out, err, _ = run(tmp_path, capsys, command, cfg(tmp_path), fmt)
    assert (code, out) == (3, "")
    assert err.endswith(f"is up to {size} characters, over the report cap of {size - 1}\n")
    assert not (tmp_path / "density.csv").exists()


def test_the_basis_and_density_estimates_are_the_ones_checked(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(errors, CAP, 0)
    _, _, err, _ = run(tmp_path, capsys, "basis", {"d": 3, "n": 2, "sector": "symmetric"})
    size = basis_estimate(3, 2, ExchangeSector.SYMMETRIC, "csv")
    assert err == (
        f"cap exceeded: the basis report of 6 states over d^N = 3^2 amplitudes is up to {size} "
        "characters, over the report cap of 0\n"
    )
    _, _, err, _ = run(tmp_path, capsys, "density", density_config(tmp_path, 40))
    size = cli._density_csv_characters(40)
    assert err == (
        f"cap exceeded: the density CSV of 40^2 grid points is up to {size} characters, "
        "over the report cap of 0\n"
    )


# ------------------------------------------------------------ refused at the real cap, at once

def never(*args, **kwargs):
    raise AssertionError("the grid was computed")


REFUSED = [
    pytest.param("basis", lambda tmp: {"d": 4096, "n": 1, "sector": "symmetric"}, "csv",
                 id="basis-4096-csv"),
    pytest.param("basis", lambda tmp: {"d": 4096, "n": 1, "sector": "symmetric"}, "json",
                 id="basis-4096-json"),
    pytest.param("density", lambda tmp: density_config(tmp, 4096), "csv", id="density-4096"),
    pytest.param("density", lambda tmp: density_config(tmp, 578), "csv", id="density-578"),
]


@pytest.mark.parametrize("command,cfg,fmt", REFUSED)
def test_an_unbounded_report_is_refused_in_under_a_second(
    tmp_path, capsys, monkeypatch, command, cfg, fmt
):
    monkeypatch.setattr(interferometer, "joint_spatial_density", never)
    result, out, err, elapsed = run(tmp_path, capsys, command, cfg(tmp_path), fmt)
    assert (result, out) == (3, "")
    assert elapsed < 1.0
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1, err
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("n_points", [64, 4096])
def test_density_without_an_output_path_fails_before_the_grid(
    tmp_path, capsys, monkeypatch, n_points
):
    monkeypatch.setattr(interferometer, "joint_spatial_density", never)
    cfg = {**FAR, "grid": {"x_min": -6.0, "x_max": 16.0, "n_points": n_points}}
    code, out, err, elapsed = run(tmp_path, capsys, "density", cfg)
    assert (code, out, err) == (
        2, "", "config error: density: no output path (config 'output' or --output)\n"
    )
    assert elapsed < 1.0
