"""States the Fock bridge builds are not validated again.

sector_basis, occupation_to_labeled, labeled_to_fock and fock_to_labeled
build their results through the private _trusted constructors of
LabeledState and FockVector, which check nothing.  These tests rebuild every
such result through the public constructor, show that the four functions
run no __post_init__ while their errors stay as they were, and keep the
trusted constructors out of every other function of the package.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from identicals import (
    ExchangeSector,
    FockVector,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    enumerate_distributions,
    fock_to_labeled,
    labeled_to_fock,
    occupation_to_labeled,
    sector_basis,
    states,
)
from identicals.errors import MAX_SLOTS, CapExceeded

from conftest import edge_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SOURCE = pathlib.Path(states.__file__).parent
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]


def assert_public_rebuild(state):
    """The public constructor accepts a trusted state's fields and keeps them equal."""
    public = LabeledState(state.n_slots, state.basis, state.amplitudes.copy())
    assert (public.n_slots, public.basis) == (state.n_slots, state.basis)
    assert public.amplitudes.dtype == state.amplitudes.dtype == complex
    assert np.array_equal(public.amplitudes, state.amplitudes)
    assert not state.amplitudes.flags.writeable


@pytest.mark.parametrize("d,n,sector", SIZES, ids=str)
def test_every_basis_vector_passes_the_public_constructor(d, n, sector):
    vectors = sector_basis(d, n, sector)
    occupations = enumerate_distributions(sector.statistics, n, d)
    assert len(vectors) == len(occupations)
    basis = OneParticleBasis.default(d)
    # one (count, d^N) array, each vector a view of its row
    rows = vectors[0].amplitudes.base if vectors else None
    assert not vectors or rows.shape == (len(vectors), d ** n)
    for k, (vector, occ) in enumerate(zip(vectors, occupations)):
        assert_public_rebuild(vector)
        assert vector.amplitudes.base is rows and np.shares_memory(vector.amplitudes, rows[k])
        single = occupation_to_labeled(OccupationState(occ, sector), basis)
        assert_public_rebuild(single)
        assert np.array_equal(single.amplitudes, vector.amplitudes)


@settings(max_examples=120, deadline=None)
@given(
    size=st.tuples(st.integers(1, 6), st.integers(1, 5)),
    sector=st.sampled_from([SYM, ANTI]),
    seed=st.integers(0, 2 ** 32 - 1),
    edge=st.sampled_from([-1, 0, 1]),
)
def test_every_fock_vector_passes_the_public_constructor(size, sector, seed, edge):
    d, n = size
    state = edge_state(d, n, sector, seed, edge)
    assume(state is not None)
    fv = labeled_to_fock(state, sector)
    public = FockVector(dict(fv.terms), fv.sector, fv.total_number)
    assert (public.terms, public.sector, public.total_number) == (fv.terms, sector, n)
    assert list(public.terms) == list(fv.terms)
    assert all(type(k) is tuple and all(type(m) is int for m in k) for k in fv.terms)
    assert all(type(c) is complex for c in fv.terms.values())
    back = fock_to_labeled(fv, state.basis)
    assert_public_rebuild(back)
    assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-9


# ---------------------------------------------------------------- no second validation

def outcome(build):
    """('ok', value) or (exception type, message) of a call."""
    try:
        return "ok", build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def test_the_bridge_runs_no_post_init(monkeypatch):
    basis3 = OneParticleBasis.default(3)
    sym = edge_state(3, 3, SYM, 1, 0)
    anti = edge_state(4, 3, ANTI, 2, 0)
    fermions = LabeledState(3, OneParticleBasis.default(2), np.eye(8)[1])
    # Fock vectors made before __post_init__ is forbidden: the bridge's, a caller's, the vacuum
    fv_sym, fv_anti = labeled_to_fock(sym, SYM), labeled_to_fock(anti, ANTI)
    # this one's amplitudes land past the unit-norm rule and are divided
    fv_edge = labeled_to_fock(edge_state(3, 3, SYM, 11, -1), SYM)
    fv_caller = FockVector({(1, 0, 2): 0.6, (0, 3, 0): 0.8j}, SYM, 3)
    vacuum = FockVector({(0, 0, 0): 1.0}, SYM, 0)

    def basis_rows(d, n, sector):
        return np.array([v.amplitudes for v in sector_basis(d, n, sector)])

    def boson(occupations):
        return occupation_to_labeled(OccupationState(occupations, SYM), basis3).amplitudes

    calls = {
        "basis_sym": lambda: basis_rows(4, 3, SYM),
        "basis_anti": lambda: basis_rows(5, 3, ANTI),
        "basis_fermions_past_modes": lambda: sector_basis(3, 5, ANTI),
        "basis_fermions_past_the_slot_cap": lambda: sector_basis(3, MAX_SLOTS + 1, ANTI),
        "basis_cap": lambda: sector_basis(2, 23, SYM),
        "basis_slot_cap": lambda: sector_basis(2, MAX_SLOTS + 1, SYM),
        "occupation": lambda: boson((1, 0, 2)),
        "occupation_width": lambda: boson((1, 2)),
        "occupation_vacuum": lambda: boson((0, 0, 0)),
        "occupation_cap": lambda: boson((20, 0, 0)),
        "fock_sym": lambda: labeled_to_fock(sym, SYM).terms,
        "fock_anti": lambda: labeled_to_fock(anti, ANTI).terms,
        "fock_not_in_sector": lambda: labeled_to_fock(sym, ANTI),
        "fock_fermions_past_modes": lambda: labeled_to_fock(fermions, ANTI),
        "labeled_sym": lambda: fock_to_labeled(fv_sym, basis3).amplitudes,
        "labeled_anti": lambda: fock_to_labeled(fv_anti, anti.basis).amplitudes,
        "labeled_edge": lambda: fock_to_labeled(fv_edge, basis3).amplitudes,
        "labeled_caller": lambda: fock_to_labeled(fv_caller, basis3).amplitudes,
        "labeled_width": lambda: fock_to_labeled(fv_caller, anti.basis),
        "labeled_vacuum": lambda: fock_to_labeled(vacuum, basis3),
    }
    expected = {name: outcome(call) for name, call in calls.items()}

    def forbidden(self):
        raise AssertionError(f"{type(self).__name__}.__post_init__ ran")

    monkeypatch.setattr(LabeledState, "__post_init__", forbidden)
    monkeypatch.setattr(FockVector, "__post_init__", forbidden)
    with pytest.raises(AssertionError, match="LabeledState.__post_init__ ran"):
        LabeledState(1, basis3, np.eye(3)[0])
    for name, call in calls.items():
        got, want = outcome(call), expected[name]
        if isinstance(want[1], np.ndarray):
            assert got[0] == "ok" and np.array_equal(got[1], want[1]), name
        else:
            assert got == want, name
    not_anti = (ValueError, "state is not in the antisymmetric sector")
    edges = {
        "basis_fermions_past_modes": ("ok", []),
        "basis_fermions_past_the_slot_cap": ("ok", []),
        "occupation_width": (ValueError, "occupation has 2 modes, basis has 3"),
        "occupation_vacuum": (ValueError, "cannot build a labeled state for the vacuum"),
        "fock_not_in_sector": not_anti,
        "fock_fermions_past_modes": not_anti,
        "labeled_width": (ValueError, "occupation has 3 modes, basis has 4"),
        "labeled_vacuum": (ValueError, "cannot build a labeled state for the vacuum"),
    }
    assert {name: expected[name] for name in edges} == edges
    assert expected["basis_cap"] == (CapExceeded, (
        "24 basis vectors of d^N = 2^23 amplitudes exceed the dense-storage cap 16777216"))
    assert expected["basis_slot_cap"][0] is expected["occupation_cap"][0] is CapExceeded


# ---------------------------------------------------------------- who may trust

TRUSTED_CALLERS = {
    ("exchange.py", "sector_basis"),
    ("fock.py", "occupation_to_labeled"),
    ("fock.py", "labeled_to_fock"),
    ("fock.py", "fock_to_labeled"),
}


def trusted_uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of each reference to a `_trusted` name.

    Attribute reads (X._trusted), bare names, imported names and the string
    "_trusted" (getattr) all count; code outside any function is "<module>".
    """
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = (
            (isinstance(node, ast.Attribute) and node.attr == "_trusted")
            or (isinstance(node, ast.Name) and node.id == "_trusted")
            or (isinstance(node, ast.alias) and "_trusted" in (node.name, node.asname))
            or (isinstance(node, ast.Constant) and node.value == "_trusted")
        )
        if hit:
            found.append((function, getattr(node, "lineno", 0)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_the_scan_sees_every_way_to_reach_a_trusted_constructor():
    code = (
        "LabeledState._trusted(1, b, a)\n"
        "def f():\n    return states.LabeledState._trusted\n"
        "class C:\n    def g(self):\n        return getattr(FockVector, '_trusted')\n"
        "from x import _trusted\n"
        "h = lambda: _trusted(1)\n"
    )
    assert trusted_uses(ast.parse(code)) == [
        ("<module>", 1), ("f", 3), ("g", 6), ("<module>", 7), ("<module>", 8)]
    assert trusted_uses(ast.parse("LabeledState(1, b, a); x.trusted; '_trusted_'")) == []


def test_only_the_bridge_builds_trusted_states():
    used = set()
    for path in sorted(SOURCE.glob("*.py")):
        for function, line in trusted_uses(ast.parse(path.read_text(encoding="utf-8"))):
            assert (path.name, function) in TRUSTED_CALLERS, f"{path.name}:{line} in {function}"
            used.add((path.name, function))
    assert used == TRUSTED_CALLERS
