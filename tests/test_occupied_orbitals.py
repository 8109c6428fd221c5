"""The detector's occupied-subspace path and its fallback, at larger sizes.

detect_emergent_particles takes the natural spectrum from eigvalsh.  When
the occupation screen passes and the eigenvalues past the r occupied ones
sum to at most TAU_RANK, the occupied orbitals come from r pivoted-Cholesky
steps and an r x r eigh; any other state goes through the full
natural_orbitals.  Both paths are held to the reference pipeline of
test_emergence_equivalence and to the closed-form occupation report, at
sizes beyond those two files compare.
"""

import numpy as np
import pytest

from identicals import cli, emergence
from identicals.emergence import TAU_RANK, Verdict
from identicals.fock import occupation_to_labeled, parse_symbol
from identicals.states import OneParticleBasis

from test_emergence_equivalence import (
    ANTI,
    KIND_SECTORS,
    SYM,
    assert_same_report,
    condensate,
    make_state,
    reference_detect,
    slater,
)
from test_occupation_report import dense_report, symbols


def spy_on_eigh(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every matrix np.linalg.eigh is called on."""
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


@pytest.mark.parametrize("d,n", [(64, 2), (16, 3)])
@pytest.mark.parametrize("kind", ["slater", "condensate"])
def test_a_rank_r_state_runs_no_eigh_larger_than_n_by_n(monkeypatch, kind, d, n):
    rng = np.random.default_rng(10 * d + n)
    if kind == "slater":
        sector, state, verdict = ANTI, slater(rng, d, n), Verdict.PARTICLE_DECOMPOSITION
    else:
        # occupations (2) and (2, 1): a non-degenerate occupied spectrum
        occupations = [2] if n == 2 else [2, 1]
        sector, state, verdict = SYM, condensate(rng, d, occupations), Verdict.CONDENSED_OBJECT
    shapes = spy_on_eigh(monkeypatch)
    report = emergence.detect_emergent_particles(state, sector)
    assert report.verdict is verdict
    assert shapes and all(max(shape) <= n for shape in shapes), shapes
    monkeypatch.undo()
    assert_same_report(state, sector)


def test_a_state_not_of_its_occupations_rank_keeps_the_natural_orbital_fidelity(monkeypatch):
    state = make_state("superposition", 2, 2, SYM, np.random.default_rng(1))
    verdict, _, fidelity, spectrum = reference_detect(state, SYM)
    # occupations (2, 0) pass the screen, but the unoccupied eigenvalue is no rounding error
    assert [round(2 * lam) for lam in spectrum] == [2, 0]
    assert spectrum[1] > TAU_RANK
    shapes = spy_on_eigh(monkeypatch)
    report = emergence.detect_emergent_particles(state, SYM)
    assert shapes == [(2, 2)]
    assert report.verdict is verdict is Verdict.NO_PARTICLE_DECOMPOSITION
    assert report.fidelity == pytest.approx(fidelity, rel=0, abs=1e-12)
    assert report.fidelity == pytest.approx(0.98133, rel=0, abs=1e-5)
    monkeypatch.undo()
    assert_same_report(state, SYM)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [8, 16, 24])
@pytest.mark.parametrize("kind,sector", KIND_SECTORS, ids=[f"{k}-{s.value}" for k, s in KIND_SECTORS])
def test_larger_states_match_the_reference(kind, sector, d, n):
    rng = np.random.default_rng(1000 * d + 10 * n + KIND_SECTORS.index((kind, sector)))
    for _ in range(2):
        assert_same_report(make_state(kind, d, n, sector, rng), sector)


@pytest.mark.parametrize("sector", [SYM, ANTI], ids=["symmetric", "antisymmetric"])
def test_every_symbol_at_larger_sizes_matches_the_dense_report(sector):
    compared = 0
    for d, n in [(16, 3), (8, 4)]:
        for text in symbols(d, n, sector):
            cfg = {"symbol": text, "d": d, "sector": sector.value}
            assert cli.cmd_analyze(cfg, "json") == dense_report(text, d, sector), cfg
            compared += 1
    assert compared == {SYM: 816 + 330, ANTI: 560 + 70}[sector]


@pytest.mark.parametrize(
    "text,d,sector",
    [
        ("f_{e1e2e5e5}", 8, SYM),
        ("f_{e4e4e7e7}", 8, SYM),
        ("f_{e2e9e9}", 16, SYM),
        ("f_{e3e7e16}", 16, ANTI),
        ("f_{e1e3e6e8}", 8, ANTI),
    ],
)
def test_degenerate_symbols_have_exact_unit_vector_orbitals(text, d, sector):
    occ = parse_symbol(text, d, sector)
    state = occupation_to_labeled(occ, OneParticleBasis.default(d))
    report = emergence.detect_emergent_particles(state, sector)
    want = emergence.occupation_report(occ)
    assert report.verdict is want.verdict
    assert [n_i for _, n_i in report.defining_states] == [n_m for _, n_m in want.defining_states]
    for (vec, _), (m, _) in zip(report.defining_states, want.defining_states):
        assert np.array_equal(vec, np.eye(d)[m])
