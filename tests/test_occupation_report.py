"""The closed-form report of an occupation state and the CLI's symbol `analyze`.

The dense pipeline (occupation_to_labeled, then detect_emergent_particles,
formatted as `analyze` formats it) is kept here as the reference the closed
form must match byte for byte.
"""

import inspect
import itertools
import json
import pickle
import time
import typing

import pytest

import identicals
from identicals import cli, counting, emergence, errors, exchange, fock, states
from identicals.counting import OccupationState, Verdict, occupation_report, parse_symbol
from identicals.fock import occupation_to_labeled
from identicals.states import OneParticleBasis

SYM = counting.ExchangeSector.SYMMETRIC
ANTI = counting.ExchangeSector.ANTISYMMETRIC

#: every symbol of d modes and N tokens with d^N at most this is compared
REFERENCE_DIM = 1296


def dense_report(text: str, d: int, sector) -> str:
    """`analyze` of a symbol through the labeled state, formatted as `analyze` does."""
    state = occupation_to_labeled(parse_symbol(text, d, sector), OneParticleBasis.default(d))
    report = emergence.detect_emergent_particles(state, sector)
    payload = {
        "verdict": report.verdict.value,
        "defining_states": [
            {"occupation": n_i, "state": cli._interleave(vec)}
            for vec, n_i in report.defining_states
        ],
        "fidelity": report.fidelity,
        "natural_spectrum": report.natural_spectrum,
    }
    return json.dumps(cli._round_floats(payload), indent=2) + "\n"


def symbols(d: int, n: int, sector):
    combos = itertools.combinations_with_replacement if sector is SYM else itertools.combinations
    for modes in combos(range(1, d + 1), n):
        yield "f_{" + "".join(f"e{m}" for m in modes) + "}"


def write_config(tmp_path, payload) -> list[str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return ["analyze", "--config", str(path)]


@pytest.mark.parametrize("sector", [SYM, ANTI], ids=["symmetric", "antisymmetric"])
def test_every_small_symbol_matches_the_dense_report(sector):
    compared = 0
    for d, n in itertools.product(range(1, 9), repeat=2):
        if d ** n > REFERENCE_DIM:
            continue
        for text in symbols(d, n, sector):
            cfg = {"symbol": text, "d": d, "sector": sector.value}
            assert cli.cmd_analyze(cfg, "json") == dense_report(text, d, sector), cfg
            compared += 1
    assert compared == {SYM: 877, ANTI: 267}[sector]


@pytest.mark.parametrize(
    "text,d,sector",
    [
        ("f_{" + "e1" * 40 + "}", 1, SYM),
        ("f_{e3e1e3e2e3}", 3, SYM),
        ("f_{e2e4}", 64, SYM),
        ("f_{e100e1}", 100, ANTI),
        ("f_{e70}", 70, SYM),
    ],
)
def test_sampled_larger_symbols_match_the_dense_report(text, d, sector):
    cfg = {"symbol": text, "d": d, "sector": sector.value}
    assert cli.cmd_analyze(cfg, "json") == dense_report(text, d, sector)


def unit(m: int, d: int) -> list[float]:
    return [1.0 if i == 2 * m else 0.0 for i in range(2 * d)]


# At the dense cap the dense path drifts in the 12th digit (fidelity
# 1.00000000001 and 0.999999999989, spectra 0.625000000004 and 0.499999999994),
# so these are asserted as exact values.
@pytest.mark.parametrize(
    "ones,twos,spectrum,defining",
    [
        (9, 15, [0.625, 0.375], [(15, 1), (9, 0)]),
        (12, 12, [0.5, 0.5], [(12, 0), (12, 1)]),
    ],
)
def test_symbols_at_the_dense_cap_are_exact(ones, twos, spectrum, defining):
    text = "f_{" + "e1" * ones + "e2" * twos + "}"
    report = json.loads(cli.cmd_analyze({"symbol": text, "sector": "symmetric"}, "json"))
    assert report == {
        "verdict": "CONDENSED_OBJECT",
        "defining_states": [{"occupation": n, "state": unit(m, 2)} for n, m in defining],
        "fidelity": 1.0,
        "natural_spectrum": spectrum,
    }


def test_the_report_orders_modes_by_occupation_then_index():
    report = occupation_report(OccupationState((1, 0, 3, 1, 3, 0), SYM))
    assert report.verdict is Verdict.CONDENSED_OBJECT
    assert report.defining_states == [(2, 3), (4, 3), (0, 1), (3, 1)]
    assert report.fidelity == 1.0
    assert report.natural_spectrum == [3 / 8, 3 / 8, 1 / 8, 1 / 8, 0.0, 0.0]
    singles = occupation_report(OccupationState((0, 1, 1), ANTI))
    assert singles.verdict is Verdict.PARTICLE_DECOMPOSITION
    assert singles.defining_states == [(1, 1), (2, 1)]


def test_the_report_of_the_vacuum_is_the_labeled_path_error():
    with pytest.raises(ValueError, match=f"^{errors.VACUUM}$"):
        occupation_report(OccupationState((0, 0), SYM))
    with pytest.raises(ValueError, match=f"^{errors.VACUUM}$"):
        occupation_to_labeled(OccupationState((0, 0), SYM), OneParticleBasis.default(2))


#: the occupation level, defined in counting
OCCUPATION_LEVEL = [
    "EmergenceReport", "OccupationState", "Verdict", "format_symbol", "occupation_report",
    "parse_symbol", "replace_indistinguishable", "symbol_modes",
]

#: names that a module other than their own once bound only to be imported there
UNBOUND = {
    states: ["MAX_DIM", "MAX_SLOTS"],
    exchange: ["MAX_DIM", "MAX_SLOTS"],
    fock: ["VACUUM", "format_symbol", "parse_symbol", "replace_indistinguishable", "symbol_modes"],
    emergence: ["occupation_report"],
}


def test_moved_names_are_exported_from_counting_and_bound_nowhere_else():
    for name in OCCUPATION_LEVEL:
        if name in identicals.__all__:
            assert getattr(identicals, name) is getattr(counting, name), name
    for module, names in UNBOUND.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)


#: every public class of the package
PUBLIC_CLASSES = [name for name in identicals.__all__ if inspect.isclass(getattr(identicals, name))]


@pytest.mark.parametrize("name", PUBLIC_CLASSES)
def test_the_type_hints_of_every_public_class_resolve(name):
    # annotations are strings (from __future__ import annotations): each name
    # must be bound in the defining module, numpy-free ones included
    cls = getattr(identicals, name)
    typing.get_type_hints(cls)
    typing.get_type_hints(cls.__init__)


#: pickles written before the occupation level moved into counting, when
#: these classes were identicals.fock.OccupationState and identicals.emergence.*
PARENT_PICKLES = {
    "OccupationState-protocol0": (
        OccupationState((2, 0, 1), SYM),
        b"cidenticals.fock\nOccupationState\np0\n((I2\nI0\nI1\ntp1\ncidenticals.counting\n"
        b"ExchangeSector\np2\n(Vsymmetric\np3\ntp4\nRp5\ntp6\nRp7\n.",
    ),
    "OccupationState-protocol4": (
        OccupationState((2, 0, 1), SYM),
        b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x0fidenticals.fock\x94\x8c\x0f"
        b"OccupationState\x94\x93\x94K\x02K\x00K\x01\x87\x94\x8c\x13identicals.counting"
        b"\x94\x8c\x0eExchangeSector\x94\x93\x94\x8c\tsymmetric\x94\x85\x94R\x94\x86\x94R"
        b"\x94.",
    ),
    "EmergenceReport-protocol0": (
        occupation_report(OccupationState((2, 0, 1), SYM)),
        b"cidenticals.emergence\nEmergenceReport\np0\n(cidenticals.emergence\nVerdict\np1\n"
        b"(VCONDENSED_OBJECT\np2\ntp3\nRp4\n(lp5\n(I0\nI2\ntp6\na(I2\nI1\ntp7\naF1.0\n"
        b"(lp8\nF0.6666666666666666\naF0.3333333333333333\naF0.0\natp9\nRp10\n.",
    ),
    "EmergenceReport-protocol4": (
        occupation_report(OccupationState((2, 0, 1), SYM)),
        b"\x80\x04\x95\x8e\x00\x00\x00\x00\x00\x00\x00\x8c\x14identicals.emergence\x94"
        b"\x8c\x0fEmergenceReport\x94\x93\x94(h\x00\x8c\x07Verdict\x94\x93\x94\x8c\x10"
        b"CONDENSED_OBJECT\x94\x85\x94R\x94]\x94(K\x00K\x02\x86\x94K\x02K\x01\x86\x94eG?"
        b"\xf0\x00\x00\x00\x00\x00\x00]\x94(G?\xe5UUUUUUG?\xd5UUUUUUG\x00\x00\x00\x00"
        b"\x00\x00\x00\x00et\x94R\x94.",
    ),
    "Verdict-protocol0": (
        Verdict.PARTICLE_DECOMPOSITION,
        b"cidenticals.emergence\nVerdict\np0\n(VPARTICLE_DECOMPOSITION\np1\ntp2\nRp3\n.",
    ),
    "Verdict-protocol4": (
        Verdict.PARTICLE_DECOMPOSITION,
        b"\x80\x04\x95A\x00\x00\x00\x00\x00\x00\x00\x8c\x14identicals.emergence\x94\x8c"
        b"\x07Verdict\x94\x93\x94\x8c\x16PARTICLE_DECOMPOSITION\x94\x85\x94R\x94.",
    ),
}


@pytest.mark.parametrize("case", PARENT_PICKLES)
def test_pickles_naming_the_old_modules_still_load(case):
    value, data = PARENT_PICKLES[case]
    loaded = pickle.loads(data)
    assert type(loaded) is type(value)
    assert loaded == value


def test_a_symbol_with_4096_modes_is_analyzed_in_under_a_second(tmp_path, capsys):
    argv = write_config(tmp_path, {"symbol": "f_{e1e4096}", "sector": "symmetric"})
    start = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "PARTICLE_DECOMPOSITION"
    assert [s["state"] for s in report["defining_states"]] == [unit(0, 4096), unit(4095, 4096)]
    assert report["natural_spectrum"] == [0.5, 0.5] + [0.0] * 4094


def test_the_vacuum_with_a_huge_d_exits_4_before_allocating(tmp_path, capsys):
    argv = write_config(
        tmp_path, {"symbol": "f_{}", "d": 100_000_000_000, "sector": "symmetric"}
    )
    start = time.perf_counter()
    assert cli.main(argv) == 4
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: cannot build a labeled state for the vacuum\n"


# config -> (exit code, stderr) of the dense symbol path; stdout is empty
SYMBOL_ERRORS = {
    "malformed": (
        {"symbol": "f_{e1x}", "sector": "symmetric"},
        4, "domain error: malformed symbol: 'f_{e1x}'",
    ),
    "bad_sector": (
        {"symbol": "f_{e1}", "sector": "bosonic"},
        2, "config error: analyze: sector must be 'symmetric' or 'antisymmetric', got 'bosonic'",
    ),
    "bad_sector_and_key": (
        {"symbol": "f_{e1}", "n_slots": 1},
        2, "config error: analyze: sector must be 'symmetric' or 'antisymmetric', got None",
    ),
    "unknown_key": (
        {"symbol": "f_{e1}", "sector": "symmetric", "n_slots": 1},
        2, "config error: analyze: unknown keys ['n_slots']",
    ),
    "non_string_symbol": (
        {"symbol": 5, "sector": "symmetric"},
        2, "config error: analyze: symbol must be a string",
    ),
    "malformed_before_d": (
        {"symbol": "f_{e1x}", "d": 0, "sector": "symmetric"},
        4, "domain error: malformed symbol: 'f_{e1x}'",
    ),
    "d_zero": (
        {"symbol": "f_{e1}", "d": 0, "sector": "symmetric"},
        2, "config error: analyze: d must be >= 1",
    ),
    "d_string": (
        {"symbol": "f_{e1}", "d": "3", "sector": "symmetric"},
        2, "config error: analyze: d must be an integer",
    ),
    "d_bool": (
        {"symbol": "f_{e1}", "d": True, "sector": "symmetric"},
        2, "config error: analyze: d must be an integer",
    ),
    "over_the_dense_cap": (
        {"symbol": "f_{e1e1}", "d": 5000, "sector": "symmetric"},
        3, "cap exceeded: d^N = 5000^2 exceeds the dense-storage cap 16777216",
    ),
    "over_the_dense_cap_before_the_mode_range": (
        {"symbol": "f_{e9000e9000}", "d": 5000, "sector": "antisymmetric"},
        3, "cap exceeded: d^N = 5000^2 exceeds the dense-storage cap 16777216",
    ),
    "n64_at_d1": (
        {"symbol": "f_{" + "e1" * 64 + "}", "sector": "symmetric"},
        3, "cap exceeded: N = 64 slots exceed the dense-tensor cap of 63 (numpy's 64-axis limit)",
    ),
    "n70_at_d1": (
        {"symbol": "f_{" + "e1" * 70 + "}", "d": 1, "sector": "symmetric"},
        3, "cap exceeded: N = 70 slots exceed the dense-tensor cap of 63 (numpy's 64-axis limit)",
    ),
    "mode_out_of_range": (
        {"symbol": "f_{e5}", "d": 3, "sector": "symmetric"},
        4, "domain error: mode index 5 out of range 1..3",
    ),
    "mode_zero": (
        {"symbol": "f_{e0}", "sector": "symmetric"},
        4, "domain error: mode index 0 out of range 1..1",
    ),
    "pauli": (
        {"symbol": "f_{e2e1e2}", "sector": "antisymmetric"},
        4, "domain error: antisymmetric occupations cannot exceed 1",
    ),
    "vacuum_at_small_d": (
        {"symbol": "f_{}", "d": 3, "sector": "symmetric"},
        4, "domain error: cannot build a labeled state for the vacuum",
    ),
    "vacuum": (
        {"symbol": "f_{}", "sector": "antisymmetric"},
        4, "domain error: cannot build a labeled state for the vacuum",
    ),
}


@pytest.mark.parametrize("name", SYMBOL_ERRORS)
def test_symbol_errors_keep_their_code_and_message(tmp_path, capsys, name):
    cfg, code, message = SYMBOL_ERRORS[name]
    assert cli.main(write_config(tmp_path, cfg)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
