"""states.norm, the one rule by which the package measures a state.

Its vector and row forms agree with math.fsum of the squares at every block
boundary; an overflow gives inf and NaN gives NaN, without a warning; it
allocates nothing state-sized.  An AST scan keeps it the only norm in the
package, and the dense emergence report is exact with it at 2^20 amplitudes.
States, product factors and Fock vectors are held to one unit-norm rule,
states.off_unit_norm, which refuses NaN; a second scan keeps it the only
comparison with TAU_NORM.
"""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from identicals import states
from identicals.counting import ExchangeSector
from identicals.counting import OccupationState, occupation_report
from identicals.emergence import detect_emergent_particles
from identicals.fock import FockVector
from identicals.states import _NORM_BLOCK as B
from identicals.states import TAU_NORM, LabeledState, OneParticleBasis, norm, tensor_product

SYM = ExchangeSector.SYMMETRIC

SIZES = [1, B - 1, B, B + 1, 3 * B + 5]
SOURCE = pathlib.Path(states.__file__).parent


def fsum_squares(floats):
    return math.fsum(x * x for x in np.asarray(floats, dtype=float).ravel())


def complex_of(floats):
    return floats[0::2] + 1j * floats[1::2]


@pytest.mark.parametrize("size", SIZES)
def test_the_vector_form_is_the_root_of_the_exact_sum_of_squares(size):
    rng = np.random.default_rng(size)
    floats = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3], size=size)
    want = math.sqrt(fsum_squares(floats))
    assert norm(floats) == pytest.approx(want, rel=1e-15)
    if size % 2 == 0:
        assert norm(complex_of(floats)) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("length", [3, B - 1, B, B + 3, 2 * B + 7])
def test_the_row_form_is_the_exact_sum_of_squares_of_each_row(length):
    rng = np.random.default_rng(length)
    real = rng.normal(size=(4, length))
    want = [fsum_squares(row) for row in real]
    np.testing.assert_allclose(norm(real, rows=True), want, rtol=1e-15, atol=0)
    wide = rng.normal(size=(3, 2 * length))
    amps = wide[:, 0::2] + 1j * wide[:, 1::2]
    want = [fsum_squares(row) for row in wide]
    np.testing.assert_allclose(norm(amps, rows=True), want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("size", [4, 3 * B + 5])
def test_a_squared_norm_that_overflows_is_inf_without_a_warning(size):
    floats = np.full(size, 1e200)
    assert norm(floats) == math.inf
    assert norm(complex_of(np.append(floats, floats))) == math.inf
    assert np.all(norm(floats.reshape(1, -1).repeat(2, axis=0), rows=True) == math.inf)
    # finite block sums whose pairwise sum overflows
    assert norm(np.full(3 * B + 5, 1e152)) == math.inf


@pytest.mark.parametrize("size", [4, 3 * B + 5])
def test_nan_gives_nan(size):
    floats = np.ones(size)
    floats[size // 2] = np.nan
    assert math.isnan(norm(floats))
    assert np.isnan(norm(np.stack([floats, np.ones(size)]), rows=True)).tolist() == [True, False]


def batched_matmul_squares(floats):
    """The squared norm of each row of a float64 matrix wider than one block, by batched matmul.

    The form norm used before np.vecdot: each block, and the tail, multiplied by
    its own transpose.  Kept as the reference for the bits of the np.vecdot form.
    """
    count, length = floats.shape
    full = length - length % B
    blocks = floats[:, :full].reshape(count, -1, 1, B)
    tail = floats[:, np.newaxis, full:]
    return np.concatenate(
        [
            (blocks @ blocks.swapaxes(2, 3)).reshape(count, -1),
            (tail @ tail.swapaxes(1, 2)).reshape(count, 1),
        ],
        axis=1,
    ).sum(axis=1)


@pytest.mark.parametrize(
    "length", [B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 3 * B, 3 * B + 1, 40001]
)
def test_the_blocked_sums_keep_the_bits_of_the_batched_matmul_form(length):
    rng = np.random.default_rng(length)
    floats = rng.normal(size=(3, length)) * rng.choice([1e-3, 1.0, 1e3], size=(3, length))
    want = batched_matmul_squares(floats)
    assert norm(floats, rows=True).tobytes() == want.tobytes()
    for row, squares in zip(floats, want):
        assert norm(row) == math.sqrt(squares)
    if length % 2 == 0:
        assert norm(complex_of(floats[0])) == math.sqrt(want[0])
        assert norm(floats[:, 0::2] + 1j * floats[:, 1::2], rows=True).tobytes() == want.tobytes()


def test_a_state_of_2_20_amplitudes_is_measured_in_under_a_megabyte():
    rng = np.random.default_rng(20)
    amps = rng.normal(size=2 ** 20) + 1j * rng.normal(size=2 ** 20)
    norm(amps)
    tracemalloc.start()
    try:
        norm(amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------- one norm rule

def self_norms(tree: ast.AST) -> list[str]:
    """Each linalg.norm, and each vdot, vecdot, dot or inner of an array with itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "norm" and (
            isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
        ):
            found.append(f"line {node.lineno}: linalg.norm")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            # f(x, x), or the method form x.f(x)
            pair = node.args if len(node.args) == 2 else [getattr(func, "value", None), *node.args]
            if name in ("vdot", "vecdot", "dot", "inner") and len(pair) == 2 and (
                ast.dump(pair[0]) == ast.dump(pair[1])
            ):
                found.append(f"line {node.lineno}: {name}(x, x)")
    return found


def test_the_scan_sees_every_way_to_measure_a_state():
    code = (
        "np.linalg.norm(a); np.vdot(v, v); v.dot(v); np.inner(a[0], a[0]); np.vdot(a, b);"
        " np.vecdot(t, t)"
    )
    assert len(self_norms(ast.parse(code))) == 5
    assert self_norms(ast.parse("np.vdot(x, y); x.dot(y); np.dot(x)")) == []


def test_states_norm_is_the_only_norm_in_the_package():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "states.py":
            (rule,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "norm"]
            tree.body.remove(rule)
        found += [f"{path.name} {hit}" for hit in self_norms(tree)]
    assert found == []


# ---------------------------------------------------------------- one unit-norm rule

TWO = OneParticleBasis.default(2)


def unit_norm_outcomes(values):
    """The error message, or None, of each constructor that holds values to unit norm."""
    builds = {
        "state": lambda: LabeledState(1, TWO, values),
        "factor": lambda: tensor_product([np.eye(2)[0], values], TWO),
        "fock": lambda: FockVector(dict(zip([(1, 1), (2, 0)], values)), SYM, 2),
    }
    got = {}
    for name, build in builds.items():
        try:
            build()
            got[name] = None
        except ValueError as exc:
            got[name] = str(exc)
    return got


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=str)
def test_every_constructor_refuses_non_finite_values(bad):
    assert unit_norm_outcomes([bad, 0.0]) == {
        "state": "amplitudes must be finite",
        "factor": "factor 1 must be finite",
        "fock": "Fock coefficients must be finite",
    }


@pytest.mark.parametrize("scale", [1.0, 1 + TAU_NORM / 2, 1 - TAU_NORM / 2, 1 + 0.99 * TAU_NORM])
def test_every_constructor_admits_a_norm_within_tau_norm(scale):
    c = scale / math.sqrt(2)
    assert unit_norm_outcomes([c, c]) == dict.fromkeys(["state", "factor", "fock"])


@pytest.mark.parametrize("scale", [1 + 5 * TAU_NORM, 1 - 5 * TAU_NORM, 1 + 1.01 * TAU_NORM, 3.0])
def test_every_constructor_refuses_a_norm_past_tau_norm(scale):
    c = scale / math.sqrt(2)
    length = norm([c, c])
    assert unit_norm_outcomes([c, c]) == {
        "state": f"state norm {length} deviates from 1",
        "factor": f"factor 1 is not unit norm (norm {length})",
        "fock": f"Fock vector norm {length} deviates from 1",
    }


def unit_norm_rules(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of each comparison that reads TAU_NORM."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(
            getattr(sub, "id", getattr(sub, "attr", None)) == "TAU_NORM" for sub in ast.walk(node)
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_the_scan_sees_every_comparison_with_tau_norm():
    code = (
        "if abs(x - 1) > TAU_NORM: pass\n"
        "def f(x):\n    return x <= states.TAU_NORM\n"
        "_normalize(raw, TAU_NORM)\n"
    )
    assert unit_norm_rules(ast.parse(code)) == [("<module>", 1), ("f", 3)]


def test_the_unit_norm_rule_is_written_once():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += [(path.name, *hit) for hit in unit_norm_rules(ast.parse(path.read_text("utf-8")))]
    assert [(name, function) for name, function, _ in found] == [("states.py", "off_unit_norm")]


# ---------------------------------------------------------------- the dense report

def occupation_amplitudes(n1: int, n2: int) -> np.ndarray:
    """The symmetric occupation state (n1, n2) of d = 2 modes, written directly.

    Amplitude 1/sqrt(C(N, n1)) on every flat index with n2 ones among its N
    binary digits, and 0 elsewhere.
    """
    n = n1 + n2
    ones = np.zeros(2 ** n, dtype=np.uint8)
    for bit in range(n):
        ones[1 << bit : 2 << bit] = ones[: 1 << bit] + 1
    return np.where(ones == n2, 1 / math.sqrt(math.comb(n, n1)), 0.0).astype(complex)


@pytest.mark.parametrize("occupations", [(8, 12), (9, 11)], ids=str)
def test_the_dense_report_is_exact_at_2_20_amplitudes(occupations):
    sector = ExchangeSector.SYMMETRIC
    state = LabeledState(20, OneParticleBasis.default(2), occupation_amplitudes(*occupations))
    got = detect_emergent_particles(state, sector)
    want = occupation_report(OccupationState(occupations, sector))
    assert got.verdict is want.verdict
    np.testing.assert_allclose(got.natural_spectrum, want.natural_spectrum, rtol=0, atol=1e-14)
    assert got.fidelity == pytest.approx(want.fidelity, rel=0, abs=1e-14)
    assert [n_i for _, n_i in got.defining_states] == [n_i for _, n_i in want.defining_states]
    for (vec, _), (mode, _) in zip(got.defining_states, want.defining_states):
        np.testing.assert_allclose(vec, np.eye(2)[mode], rtol=0, atol=1e-14)
