"""A symbol `analyze` report is bounded before it is built.

cli._symbol_report_characters bounds the characters of the report from d
and the symbol's distinct modes; past counting.ENUMERATION_CHARACTER_CAP
the command exits 3 before any per-mode work starts.
"""

import itertools
import json
import time

import pytest

from identicals import cli, counting

SECTORS = ["symmetric", "antisymmetric"]


@pytest.mark.parametrize("sector", SECTORS)
def test_the_bound_holds_for_every_small_symbol(sector):
    combos = (itertools.combinations_with_replacement if sector == "symmetric"
              else itertools.combinations)
    compared = 0
    for d, n in itertools.product(range(1, 9), range(1, 5)):
        for modes in combos(range(1, d + 1), n):
            text = "f_{" + "".join(f"e{m}" for m in modes) + "}"
            report = cli.cmd_analyze({"symbol": text, "d": d, "sector": sector}, "json")
            assert len(report) <= cli._symbol_report_characters(d, len(set(modes))), text
            compared += 1
    assert compared == {"symmetric": 1278, "antisymmetric": 372}[sector]


@pytest.mark.parametrize("d", [2 ** 20, 2 ** 24])
def test_a_report_past_the_cap_exits_3_in_under_a_second(tmp_path, capsys, d):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"symbol": "f_{e1}", "d": d, "sector": "symmetric"}))
    start = time.perf_counter()
    assert cli.main(["analyze", "--config", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    size = cli._symbol_report_characters(d, 1)
    assert size > counting.ENUMERATION_CHARACTER_CAP
    assert captured.err == (
        f"cap exceeded: the report of 1 defining states over d = {d} modes is up to {size} "
        f"characters, over the character cap of {counting.ENUMERATION_CHARACTER_CAP}\n"
    )
