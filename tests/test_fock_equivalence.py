"""The array Fock bridge against the per-occupation code it replaced.

The references below are the bridge as first written on the orbit table:
`labeled_to_fock` naming its occupations through `enumerate_distributions`,
`fock_to_labeled` finding each occupation's sorted index tuple in a Python
loop, and `FockVector` validating one term at a time through
`OccupationState`.  They live in the tests only, as the yardstick for the
whole-array bridge of the package.  Over every d <= 6, N <= 5 the bridge's
bits are held to them, with a warm orbit-table cache and with none.
"""

import cmath
import copy
import dataclasses
import itertools
import pickle

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
from identicals import counting, exchange, fock
from identicals.exchange import _project_raw, orbit_table
from identicals.states import TAU_NORM

from conftest import edge_state, random_sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC
SIZES = [(d, n, sector) for d in range(1, 7) for n in range(1, 6) for sector in (SYM, ANTI)]


def reference_validate(terms, sector, total_number):
    """FockVector's checks, one term at a time."""
    for occ, _ in terms.items():
        if sum(occ) != total_number:
            raise ValueError(f"occupation {occ} breaks the total number {total_number}")
        OccupationState(occ, sector)  # validates sector constraint
    if not all(cmath.isfinite(c) for c in terms.values()):
        raise ValueError("Fock coefficients must be finite")
    norm = np.sqrt(sum(abs(c) ** 2 for c in terms.values()))
    if not abs(norm - 1.0) <= TAU_NORM:
        raise ValueError(f"Fock vector norm {norm} deviates from 1")


def reference_first_index(occupations, basis):
    """Flat index of the mode-ascending index tuple with these occupations."""
    if len(occupations) != basis.dim:
        raise ValueError(f"occupation has {len(occupations)} modes, basis has {basis.dim}")
    n = sum(occupations)
    if n == 0:
        raise ValueError("cannot build a labeled state for the vacuum")
    modes = [i for i, n_i in enumerate(occupations) for _ in range(n_i)]
    return int(np.ravel_multi_index(modes, (basis.dim,) * n))


def reference_labeled_to_fock(state, sector):
    """Coefficients by bincount, occupations named by enumerate_distributions."""
    n = state.n_slots
    occs = enumerate_distributions(sector.statistics, n, state.basis.dim)
    cls, amp, _ = orbit_table(state.basis.dim, n, sector)
    weights = amp * state.amplitudes
    bins = cls + 1
    size = len(occs) + 1
    coeffs = (
        np.bincount(bins, weights.real, size)[1:]
        + 1j * np.bincount(bins, weights.imag, size)[1:]
    )
    terms = {occ: complex(c) for occ, c in zip(occs, coeffs) if abs(c) > 1e-12}
    reference_validate(terms, sector, n)
    return terms


def reference_fock_to_labeled(fv, basis):
    firsts = [reference_first_index(occ, basis) for occ in fv.terms]
    cls, amp, _ = orbit_table(basis.dim, fv.total_number, fv.sector)
    coeffs = np.zeros(cls.max() + 2, dtype=complex)
    coeffs[cls[firsts]] = list(fv.terms.values())
    return coeffs[cls] * amp


def outcome(build):
    """('ok', value) or (exception type, message) of a call."""
    try:
        return "ok", build()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def sector_state(d, n, sector, n_terms, seed):
    """A dense random sector state (n_terms None) or one on n_terms occupations."""
    rng = np.random.default_rng(seed)
    basis = OneParticleBasis.default(d)
    if n_terms is None:
        raw = _project_raw(rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n), sector)
        norm = np.linalg.norm(raw)
        assume(norm > 1e-6)
        return LabeledState(n, basis, raw.reshape(-1) / norm)
    occs = enumerate_distributions(sector.statistics, n, d)
    chosen = sorted(rng.choice(len(occs), size=min(n_terms, len(occs)), replace=False))
    coeffs = rng.normal(size=len(chosen)) + 1j * rng.normal(size=len(chosen))
    coeffs /= np.linalg.norm(coeffs)
    fv = FockVector({occs[k]: complex(c) for k, c in zip(chosen, coeffs)}, sector, n)
    return LabeledState(n, basis, reference_fock_to_labeled(fv, basis))


sizes = st.tuples(st.integers(1, 5), st.integers(1, 5))
sectors = st.sampled_from([SYM, ANTI])
term_counts = st.sampled_from([None, 1, 2, 3])
seeds = st.integers(0, 2 ** 32 - 1)
equivalence_settings = settings(max_examples=60, deadline=None)


@equivalence_settings
@given(size=sizes, sector=sectors, n_terms=term_counts, seed=seeds)
def test_round_trip_matches_per_occupation_reference(size, sector, n_terms, seed):
    d, n = size
    assume(sector is SYM or n <= d)
    state = sector_state(d, n, sector, n_terms, seed)
    fv = labeled_to_fock(state, sector)
    expected = reference_labeled_to_fock(state, sector)
    # same keys in the same order, equal values, plain Python types
    assert list(fv.terms.items()) == list(expected.items())
    assert all(type(k) is tuple and all(type(m) is int for m in k) for k in fv.terms)
    assert all(type(c) is complex for c in fv.terms.values())
    back = fock_to_labeled(fv, state.basis)
    assert np.array_equal(back.amplitudes, reference_fock_to_labeled(fv, state.basis))


@settings(max_examples=80, deadline=None)
@given(size=sizes, sector=sectors, n_terms=term_counts, seed=seeds)
def test_bridge_copied_and_caller_vectors_give_the_same_bits(size, sector, n_terms, seed):
    d, n = size
    assume(sector is SYM or n <= d)
    state = sector_state(d, n, sector, n_terms, seed)
    basis = state.basis
    fv = labeled_to_fock(state, sector)
    expected = fock_to_labeled(fv, basis).amplitudes.tobytes()
    # the round trip read the kept arrays alone
    assert "terms" not in vars(fv) and "_occ" not in vars(fv)
    twins = [
        pickle.loads(pickle.dumps(fv)),
        copy.deepcopy(fv),
        dataclasses.replace(fv),
        FockVector(dict(fv.terms), sector, n),
    ]
    assert all(twin == fv for twin in twins)
    assert all(fock_to_labeled(twin, basis).amplitudes.tobytes() == expected for twin in twins)
    assert np.array_equal(np.frombuffer(expected, complex), reference_fock_to_labeled(fv, basis))
    # every table leaves the cache, then none is kept: the same bits
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exchange, "_orbit_tables", exchange._TableCache())
        assert fock_to_labeled(fv, basis).amplitudes.tobytes() == expected
        m.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
        m.setattr(exchange, "_orbit_tables", exchange._TableCache())
        assert all(fock_to_labeled(v, basis).amplitudes.tobytes() == expected for v in [fv, *twins])


def mutate(terms, kind, rng):
    """A copy of a valid term dict broken in one way (keys keep their width)."""
    keys, values = list(terms), list(terms.values())
    k = int(rng.integers(len(keys)))
    occ = list(keys[k])
    m = int(rng.integers(len(occ)))
    other = (m + 1) % len(occ)
    if kind == "total":
        occ[m] += int(rng.choice([-1, 1]))
    elif kind == "negative":
        occ[other] += occ[m] + 1  # same total, one mode at -1
        occ[m] = -1
    elif kind == "pauli":
        occ[m] += 1
        occ[other] -= 1
    else:  # "norm": values that are exact in binary, so both norms are exact
        values = [complex(v, 0) if i % 2 else complex(0, v) for i, v in
                  enumerate(rng.integers(-4, 5, size=len(values)) / 4)]
        return dict(zip(keys, values))
    keys[k] = tuple(occ)
    return dict(zip(keys, values))


@equivalence_settings
@given(
    size=sizes, sector=sectors, n_terms=term_counts, seed=seeds,
    kind=st.sampled_from(["total", "negative", "pauli", "norm"]),
)
def test_validation_raises_the_per_term_error(size, sector, n_terms, seed, kind):
    d, n = size
    assume(sector is SYM or n <= d)
    valid = labeled_to_fock(sector_state(d, n, sector, n_terms, seed), sector).terms
    terms = mutate(valid, kind, np.random.default_rng(seed))
    assume(len(terms) == len(valid))  # the broken key did not merge with another
    got = outcome(lambda: FockVector(terms, sector, n).terms)
    expected = outcome(lambda: reference_validate(terms, sector, n) or terms)
    assert got == expected


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_first_bad_term_decides_the_message(sector):
    # one valid term, then one breaking each rule, in every order
    terms = {(1, 1, 0): 0.6, (0, 2, 0): 0.8, (3, -1, 0): 0.0, (1, 0, 0): 0.0}
    for order in itertools.permutations(terms):
        shuffled = {k: terms[k] for k in order}
        expected = outcome(lambda: reference_validate(shuffled, sector, 2))
        assert outcome(lambda: FockVector(shuffled, sector, 2)) == expected
        assert expected[0] is ValueError


def test_bad_norm_message_for_inexact_coefficients():
    # the norm is summed in another order; it may move in its last digit only
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.normal(size=3) + 1j * rng.normal(size=3)
        terms = dict(zip([(3, 0), (2, 1), (1, 2)], map(complex, values)))
        got, expected = outcome(lambda: FockVector(terms, SYM, 3)), outcome(
            lambda: reference_validate(terms, SYM, 3))
        assert got[0] is expected[0] is ValueError
        got_words, expected_words = got[1].split(), expected[1].split()
        assert got_words[:3] + got_words[4:] == expected_words[:3] + expected_words[4:]
        assert float(got_words[3]) == pytest.approx(float(expected_words[3]), rel=1e-15)


def test_fock_vector_rejects_mixed_mode_counts():
    with pytest.raises(ValueError, match="different mode counts"):
        FockVector({(1, 0): 0.6, (0, 0, 1): 0.8}, SYM, 1)


@pytest.mark.parametrize("occupations,message", [
    ((1, 0), "occupation has 2 modes, basis has 3"),
    ((0, 0, 0), "cannot build a labeled state for the vacuum"),
])
def test_fock_to_labeled_keeps_the_index_errors(occupations, message):
    basis = OneParticleBasis.default(3)
    fv = FockVector({occupations: 1.0}, SYM, sum(occupations))
    with pytest.raises(ValueError) as got:
        fock_to_labeled(fv, basis)
    with pytest.raises(ValueError) as expected:
        reference_first_index(occupations, basis)
    assert str(got.value) == str(expected.value) == message


@pytest.mark.parametrize("sector,d,n", [(SYM, 8, 3), (ANTI, 6, 4), (SYM, 16, 3)])
def test_round_trip_enumerates_nothing_per_occupation(monkeypatch, sector, d, n):
    state = random_sector_state(np.random.default_rng(1), d, n, sector)

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the round-trip path")

    monkeypatch.setattr(counting, "enumerate_distributions", forbidden)
    monkeypatch.setattr(fock, "OccupationState", forbidden)
    back = fock_to_labeled(labeled_to_fock(state, sector), state.basis)
    assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-12


def test_orbit_table_first_lists_each_class_once():
    for sector in (SYM, ANTI):
        cls, amp, first = exchange.orbit_table(4, 3, sector)
        assert np.array_equal(cls[first], np.arange(first.size))
        assert np.all(amp[first] > 0)
        occs = [
            tuple(np.bincount(modes, minlength=4))
            for modes in zip(*np.unravel_index(first, (4,) * 3))
        ]
        assert occs == enumerate_distributions(sector.statistics, 3, 4)


# ---------------------------------------------------------------- bits over every small size


def enumeration_amplitudes(terms, d, n, sector):
    """The coefficients placed in enumerate_distributions order, then coeffs[cls] * amp.

    Divided by their norm only where it breaks the unit-norm rule, as
    fock_to_labeled documents.
    """
    cls, amp, first = orbit_table(d, n, sector)
    position = {occ: k for k, occ in enumerate(enumerate_distributions(sector.statistics, n, d))}
    coeffs = np.zeros(first.size + 1, dtype=complex)
    for occ, c in terms.items():
        coeffs[position[occ]] = c
    amps = coeffs[cls] * amp
    length = states.norm(amps)
    return amps / length if states.off_unit_norm(length) else amps


def two_term_state(d, n, sector, rng):
    """A random superposition of two sector basis vectors, from sector_basis alone."""
    basis = sector_basis(d, n, sector)
    if not basis:
        return None
    picks = rng.choice(len(basis), size=min(2, len(basis)), replace=False)
    c = rng.normal(size=picks.size) + 1j * rng.normal(size=picks.size)
    amps = sum(ck * basis[p].amplitudes for ck, p in zip(c, picks))
    return LabeledState(n, basis[0].basis, amps / np.linalg.norm(amps))


def bridge_bits(d, n, sector, inputs):
    """The terms and round-trip amplitudes of each input, and every basis vector, as exact bits."""
    basis = OneParticleBasis.default(d)
    out = []
    for state in inputs:
        fv = labeled_to_fock(state, sector)
        back = fock_to_labeled(fv, basis).amplitudes.tobytes()
        # a caller's vector with the same terms finds the same classes
        twin = FockVector(dict(fv.terms), sector, n)
        assert fock_to_labeled(twin, basis).amplitudes.tobytes() == back
        values = np.array(list(fv.terms.values()), dtype=complex)
        out.append((list(fv.terms), values.tobytes(), back))
    for occ in enumerate_distributions(sector.statistics, n, d):
        out.append(occupation_to_labeled(OccupationState(occ, sector), basis).amplitudes.tobytes())
    return out


def reference_bits(d, n, sector, inputs):
    """bridge_bits by the per-occupation references and enumeration_amplitudes."""
    out = []
    for state in inputs:
        terms = reference_labeled_to_fock(state, sector)
        values = np.array(list(terms.values()), dtype=complex)
        back = enumeration_amplitudes(terms, d, n, sector)
        out.append((list(terms), values.tobytes(), back.tobytes()))
    for occ in enumerate_distributions(sector.statistics, n, d):
        # + 0 makes the zeros that 0 * amp gives with a negative amp +0, as a basis vector holds
        out.append((enumeration_amplitudes({occ: 1.0}, d, n, sector) + 0).tobytes())
    return out


@pytest.mark.parametrize("d,n,sector", SIZES, ids=str)
def test_bridge_bits_match_the_enumeration_reference_warm_and_uncached(monkeypatch, d, n, sector):
    rng = np.random.default_rng(1800 + 10 * d + n)
    inputs = [
        s
        for s in (two_term_state(d, n, sector, rng), random_sector_state(rng, d, n, sector))
        if s is not None
    ]
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    cold = bridge_bits(d, n, sector, inputs)
    warm = bridge_bits(d, n, sector, inputs)
    monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
    monkeypatch.setattr(exchange, "_orbit_tables", exchange._TableCache())
    uncached = bridge_bits(d, n, sector, inputs)
    assert exchange._orbit_tables.tables == {} and exchange._orbit_tables.nbytes == 0
    assert cold == warm == uncached == reference_bits(d, n, sector, inputs)
    order = enumerate_distributions(sector.statistics, n, d)
    for terms, _, _ in cold[: len(inputs)]:
        # kept terms follow the occupation enumeration, keyed by tuples of Python ints
        assert terms == sorted(terms, key=order.index)
        assert all(type(k) is tuple and all(type(m) is int for m in k) for k in terms)


@pytest.mark.parametrize("seed", range(4))
def test_round_trips_at_the_edge_of_the_unit_norm_rule_never_raise(seed):
    for d, n, sector in SIZES:
        for edge in (-1, 1):
            state = edge_state(d, n, sector, 1000 * seed + 10 * d + n, edge)
            if state is None:
                continue
            back = fock_to_labeled(labeled_to_fock(state, sector), state.basis)
            assert abs(np.vdot(state.amplitudes, back.amplitudes)) >= 1 - 1e-9


@pytest.mark.parametrize("d,n,sector", [(3, 3, SYM), (4, 3, ANTI), (5, 2, SYM)], ids=str)
def test_amplitudes_within_the_rule_are_not_divided(d, n, sector):
    fv = labeled_to_fock(edge_state(d, n, sector, 7, 0), sector)
    cls, amp, first = exchange.orbit_table(d, n, sector)
    order = enumerate_distributions(sector.statistics, n, d)
    coeffs = np.zeros(first.size + 1, dtype=complex)
    for occ, c in fv.terms.items():
        coeffs[order.index(occ)] = c
    direct = coeffs[cls] * amp
    assert not states.off_unit_norm(states.norm(direct))
    back = fock_to_labeled(fv, OneParticleBasis.default(d))
    assert back.amplitudes.tobytes() == direct.tobytes()


# ---------------------------------------------------------------- coefficient sums

def head_sums(bins, amp, psi, size):
    """The sums as once written: both parts of one complex weight array, then re + 1j * im."""
    w = amp * psi
    return np.bincount(bins, w.real, size) + 1j * np.bincount(bins, w.imag, size)


def sum_inputs(d, n, sector, seed):
    """Sector states that are real, purely imaginary, one-term and dense, each also negated and conjugated."""
    rng = np.random.default_rng(seed)
    vectors = [v.amplitudes for v in sector_basis(d, n, sector)]
    if not vectors:
        return []
    real = sum(rng.normal() * v for v in vectors)
    dense = sum(complex(*rng.normal(size=2)) * v for v in vectors)
    one = vectors[int(rng.integers(len(vectors)))]
    found = []
    for psi in (real + 0j, 1j * real, one + 0j, 1j * one, (-0.6 + 0.8j) * one, dense):
        found += [psi, -psi, psi.conj(), -psi.conj()]
    return found


@pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (3, 3), (4, 2), (3, 4), (5, 3)], ids=str)
@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_coefficient_sums_keep_the_bits_of_two_bincounts(d, n, sector):
    cls, amp, first = exchange.orbit_table(d, n, sector)
    bins, size = cls + 1, first.size + 1
    inputs = sum_inputs(d, n, sector, 10 * d + n)
    assert inputs or (sector is ANTI and n > d)
    for psi in inputs:
        got = fock._bin_sums(bins, amp, psi, size)
        # bit patterns, so a -0.0 against a +0.0 fails
        assert got.view(np.uint64).tolist() == head_sums(bins, amp, psi, size).view(np.uint64).tolist()
    if inputs:
        # the signed zeros are there to be summed: bin 0 and every class off a one-term state
        assert any(np.signbit(psi.real).any() and (psi.real == 0).any() for psi in inputs)
