"""The exchange and Fock kernels against term-by-term N!-permutation sums.

The references here sum over all N! slot permutations, as the definitions
read.  They live in the tests only, as the yardstick for the factorised
projector and the occupation-orbit tables of the package.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from identicals import (
    CapExceeded,
    ExchangeSector,
    FockVector,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    Permutation,
    StatisticsKind,
    enumerate_distributions,
    fock_to_labeled,
    is_in_sector,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
)
from identicals import cli, counting, errors
from identicals.exchange import _project_raw, orbit_table

from conftest import random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
TOL = 1e-12


def reference_project(arr, sector):
    """(1/N!) sum_p (+-1)^p P_p, one term per permutation."""
    out = np.zeros(arr.shape, dtype=complex)
    for mapping in itertools.permutations(range(arr.ndim)):
        sign = Permutation(mapping).parity if sector is ANTI else 1
        out += sign * arr.transpose(mapping)
    return out / math.factorial(arr.ndim)


def reference_basis(d, n, sector):
    """One row per occupation: the normalized projection of the mode-ascending
    product of unit vectors, its first significant amplitude made positive."""
    eye = np.eye(d, dtype=complex)
    rows = []
    for occ in enumerate_distributions(sector.statistics, n, d):
        factors = [eye[i] for i, n_i in enumerate(occ) for _ in range(n_i)]
        product = factors[0]
        for f in factors[1:]:
            product = np.multiply.outer(product, f)
        vec = reference_project(product, sector).reshape(-1)
        vec /= np.linalg.norm(vec)
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        rows.append(vec * (abs(lead) / lead))
    return np.array(rows).reshape(len(rows), d ** n)


def random_tensor(seed, d, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)


sizes = st.tuples(st.integers(1, 4), st.integers(1, 5))
sectors = st.sampled_from([SYM, ANTI])
seeds = st.integers(0, 2 ** 32 - 1)
reference_settings = settings(max_examples=40, deadline=None)


@reference_settings
@given(size=sizes, sector=sectors, seed=seeds)
def test_project_raw_matches_permutation_sum(size, sector, seed):
    d, n = size
    arr = random_tensor(seed, d, n)
    np.testing.assert_allclose(
        _project_raw(arr, sector), reference_project(arr, sector), rtol=0, atol=TOL
    )


@reference_settings
@given(size=sizes, sector=sectors)
def test_sector_basis_matches_permutation_sum(size, sector):
    d, n = size
    got = np.array([s.amplitudes for s in sector_basis(d, n, sector)])
    expected = reference_basis(d, n, sector)
    assert got.shape[0] == expected.shape[0]
    if expected.size:
        np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)


@reference_settings
@given(size=sizes, sector=sectors, pick=st.integers(0, 10 ** 6))
def test_occupation_to_labeled_matches_permutation_sum(size, sector, pick):
    d, n = size
    occs = enumerate_distributions(sector.statistics, n, d)
    assume(occs)
    k = pick % len(occs)
    basis = OneParticleBasis.default(d)
    got = occupation_to_labeled(OccupationState(occs[k], sector), basis)
    np.testing.assert_allclose(
        got.amplitudes, reference_basis(d, n, sector)[k], rtol=0, atol=TOL
    )


@reference_settings
@given(size=sizes, sector=sectors, seed=seeds)
def test_labeled_to_fock_matches_permutation_sum(size, sector, seed):
    d, n = size
    raw = reference_project(random_tensor(seed, d, n), sector).reshape(-1)
    norm = np.linalg.norm(raw)
    assume(norm > 1e-6)
    state = LabeledState(n, OneParticleBasis.default(d), raw / norm)
    fv = labeled_to_fock(state, sector)
    occs = enumerate_distributions(sector.statistics, n, d)
    expected = reference_basis(d, n, sector).conj() @ state.amplitudes
    for occ, c in zip(occs, expected):
        assert abs(fv.terms.get(occ, 0) - c) <= TOL
    assert set(fv.terms) == {occ for occ, c in zip(occs, expected) if abs(c) > 1e-12}


@reference_settings
@given(size=sizes, sector=sectors, seed=seeds)
def test_fock_to_labeled_matches_permutation_sum(size, sector, seed):
    d, n = size
    occs = enumerate_distributions(sector.statistics, n, d)
    assume(occs)
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(len(occs), size=rng.integers(1, len(occs) + 1), replace=False))
    coeffs = rng.normal(size=len(chosen)) + 1j * rng.normal(size=len(chosen))
    coeffs /= np.linalg.norm(coeffs)
    fv = FockVector({occs[k]: complex(c) for k, c in zip(chosen, coeffs)}, sector, n)
    got = fock_to_labeled(fv, OneParticleBasis.default(d))
    expected = coeffs @ reference_basis(d, n, sector)[chosen]
    np.testing.assert_allclose(got.amplitudes, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("sector,d", [(SYM, 3), (ANTI, 6)])
def test_near_sector_state_round_trips(sector, d):
    # a sector state off by a renormalised 1e-10 perturbation is still in the
    # sector, and its Fock vector still passes the unit-norm check.  The
    # perturbation sits on the sorted index tuples, in phase with the state:
    # reading one amplitude per occupation would scale it by up to sqrt(N!).
    rng = np.random.default_rng(6)
    state = random_sector_state(rng, d, 6, sector)
    classes, first = np.unique(orbit_table(d, 6, sector)[0], return_index=True)
    noise = np.zeros(state.dim, dtype=complex)
    sorted_tuples = first[classes >= 0]
    noise[sorted_tuples] = state.amplitudes[sorted_tuples]
    amps = state.amplitudes + 1e-10 * noise / np.linalg.norm(noise)
    near = LabeledState(6, state.basis, amps / np.linalg.norm(amps))
    assert is_in_sector(near, sector)
    back = fock_to_labeled(labeled_to_fock(near, sector), near.basis)
    assert abs(np.vdot(near.amplitudes, back.amplitudes)) >= 1 - 1e-9


def test_orbit_table_checks_the_dense_cap_first(monkeypatch):
    monkeypatch.setattr(errors, "MAX_DIM", 8)
    with pytest.raises(CapExceeded):
        orbit_table(3, 2, SYM)
    with pytest.raises(CapExceeded):
        occupation_to_labeled(OccupationState((1, 1, 0), SYM), OneParticleBasis.default(3))


def test_sector_basis_caps_the_whole_basis(monkeypatch):
    # one patched cap moves both dense checks: each of the 4 vectors has
    # 8 <= 16 amplitudes, so d^N passes, but the basis has 32
    monkeypatch.setattr(errors, "MAX_DIM", 16)
    assert errors.check_dense_dim(2, 3) == 8
    assert len(sector_basis(2, 2, SYM)) == 3
    with pytest.raises(CapExceeded):
        sector_basis(2, 3, SYM)


def test_fermi_dirac_enumeration_is_direct():
    start = time.perf_counter()
    occs = enumerate_distributions(StatisticsKind.FERMI_DIRAC, 9, 18)
    assert time.perf_counter() - start < 2.0
    assert len(occs) == 48620 == math.comb(18, 9)


@pytest.mark.parametrize("d", range(1, 7))
def test_fermi_dirac_enumeration_matches_filtered_bose_einstein(d):
    for n in range(0, 8):
        filtered = [
            occ for occ in enumerate_distributions(StatisticsKind.BOSE_EINSTEIN, n, d)
            if max(occ, default=0) <= 1
        ]
        assert enumerate_distributions(StatisticsKind.FERMI_DIRAC, n, d) == filtered


def test_cli_basis_over_the_cap_exits_3_quickly(tmp_path, capsys):
    config = tmp_path / "basis.json"
    config.write_text(json.dumps({"d": 16, "n": 6, "sector": "symmetric"}))
    start = time.perf_counter()
    code = cli.main(["basis", "--config", str(config)])
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("n", [64, 70])
@pytest.mark.parametrize(
    "command,cfg",
    [
        ("basis", lambda n: {"d": 1, "n": n, "sector": "symmetric"}),
        ("analyze", lambda n: {"symbol": "f_{" + "e1" * n + "}", "d": 1, "sector": "symmetric"}),
    ],
)
def test_cli_more_slots_than_numpy_axes_exits_3(tmp_path, capsys, command, cfg, n):
    # numpy arrays have at most 64 axes, and np.indices over N slots adds one
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg(n)))
    assert cli.main([command, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert f"N = {n} slots exceed the dense-tensor cap of 63" in err


def test_the_slot_cap_is_the_last_n_numpy_can_hold():
    assert errors.check_dense_dim(1, errors.MAX_SLOTS) == 1
    assert len(sector_basis(1, errors.MAX_SLOTS, SYM)) == 1
    with pytest.raises(CapExceeded):
        errors.check_dense_dim(1, errors.MAX_SLOTS + 1)


def test_cli_symbol_infers_d_from_its_largest_mode(tmp_path, capsys):
    config = tmp_path / "analyze.json"
    config.write_text(json.dumps({"symbol": "f_{e70}", "sector": "symmetric"}))
    assert cli.main(["analyze", "--config", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "PARTICLE_DECOMPOSITION"
    (defining,) = report["defining_states"]
    assert len(defining["state"]) == 2 * 70


def basis_csv_one_value_at_a_time(d, n, sector):
    """The basis CSV formatted with one `_fmt` call per amplitude, kept as the reference."""
    lines = ["occupation,amplitudes"]
    occs = enumerate_distributions(sector.statistics, n, d)
    for occ, state in zip(occs, sector_basis(d, n, sector)):
        values = []
        for z in state.amplitudes:
            values.extend([float(z.real), float(z.imag)])
        amps = " ".join(cli._fmt(v) for v in values)
        lines.append(f"{';'.join(map(str, occ))},{amps}")
    if len(lines) == 1:
        lines.append("# empty sector")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sector", [SYM, ANTI])
@pytest.mark.parametrize("d,n", [(1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (5, 3), (2, 4)])
def test_cli_basis_csv_matches_one_value_at_a_time(d, n, sector):
    cfg = {"d": d, "n": n, "sector": sector.value}
    assert cli.cmd_basis(cfg, "csv") == basis_csv_one_value_at_a_time(d, n, sector)


@pytest.mark.parametrize("sector", [SYM, ANTI])
@pytest.mark.parametrize("d,n", [(1, 3), (2, 1), (3, 2), (3, 3), (4, 3), (2, 4)])
def test_cli_basis_csv_prints_negative_zero_as_zero(d, n, sector):
    rows = counting.basis_rows(sector, n, d)
    assert not any(amp == 0 and math.copysign(1.0, amp) < 0 for row in rows for _, amp in row)
    out = cli.cmd_basis({"d": d, "n": n, "sector": sector.value}, "csv")
    values = [
        value
        for line in out.splitlines()[1:]
        if not line.startswith("#")
        for value in line.split(",")[1].split(" ")
    ]
    assert len(values) == 2 * d ** n * len(rows)
    assert all(value == "0" for value in values if float(value) == 0)


def basis_rows_bits(rows):
    return [[(flat, amp.hex()) for flat, amp in row] for row in rows]


def sector_basis_bits(d, n, sector):
    """Each sector_basis vector's nonzero amplitudes (+ 0.0), as (flat index, float.hex) pairs."""
    rows = []
    for state in sector_basis(d, n, sector):
        amps = state.amplitudes + 0.0
        assert not amps.imag.any()
        (flat,) = np.nonzero(amps)
        rows.append([(i, amp.hex()) for i, amp in zip(flat.tolist(), amps.real[flat].tolist())])
    return rows


@pytest.mark.parametrize(
    "d,n,sector",
    [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]
    + [(1, n, sector) for n in range(6, 64) for sector in (SYM, ANTI)]
    + [(2, n, SYM) for n in range(6, 18)]
    + [(2, 64, ANTI), (3, 100, ANTI)],
    ids=str,
)
def test_basis_rows_match_sector_basis_bit_for_bit(d, n, sector):
    rows = counting.basis_rows(sector, n, d)
    assert basis_rows_bits(rows) == sector_basis_bits(d, n, sector)
    assert len(rows) == counting.count_microstates(sector.statistics, n, d)


def test_basis_rows_size_nothing_before_the_empty_sector_and_the_dense_cap():
    start = time.perf_counter()
    # neither count has to be computed: one is 0, the other has ~10^6 digits
    assert counting.basis_rows(ANTI, 10 ** 7, 10 ** 6) == []
    with pytest.raises(CapExceeded, match="slots"):
        counting.basis_rows(SYM, 10 ** 7, 10 ** 6)
    with pytest.raises(CapExceeded, match="dense-storage"):
        counting.basis_rows(SYM, 25, 2)
    assert time.perf_counter() - start < 1.0
