"""The orbit-table coordinates a bridge-built Fock vector remembers, and the batched memo reads.

labeled_to_fock gives its Fock vector the class index and coefficient of
every term, read-only, with the (d, N, sector) key of the table they were
read from; fock_to_labeled reads them instead of looking each occupation up
again.  A caller's vector, or a pickled copy, remembers none and takes the
lookup.  These tests show that both paths give the same bits, that the
coordinates change no field, no error and no pickle, that the memo readers
give the per-item reads for any number of items, and that the coefficient
sums keep the bits of the two bincounts they replaced, sign of zero included.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from identicals import (
    ExchangeSector,
    FockVector,
    OneParticleBasis,
    enumerate_distributions,
    exchange,
    fock,
    fock_to_labeled,
    labeled_to_fock,
    sector_basis,
)

from conftest import random_sector_state
from test_fock_equivalence import sector_state

SYM = ExchangeSector.SYMMETRIC
ANTI = ExchangeSector.ANTISYMMETRIC


@pytest.fixture
def cache(monkeypatch):
    """An empty cache for the test, so no other test's tables or memos are in it."""
    fresh = exchange._TableCache()
    monkeypatch.setattr(exchange, "_orbit_tables", fresh)
    return fresh


# ---------------------------------------------------------------- batched memo reads

MEMO_SIZES = [(3, 2, SYM), (4, 3, ANTI), (5, 3, SYM), (6, 1, ANTI), (1, 4, SYM)]


def picks(count):
    """Class lists of 0, 1 and many classes, out of order and with a repeat where there is room."""
    many = [count - 1, 0, count // 2, 0] if count > 1 else [0, 0]
    return [[], [count - 1], many, list(range(count))]


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no_memo"])
@pytest.mark.parametrize("d,n,sector", MEMO_SIZES, ids=str)
def test_batched_reads_equal_the_per_item_reads(monkeypatch, cache, memo, d, n, sector):
    if not memo:
        # the table is kept, its memo does not fit beside it
        monkeypatch.setattr(exchange, "ORBIT_CACHE_BYTES", sum(
            a.nbytes for a in exchange._build_orbit_table(d, n, sector)))
    entry = exchange._orbit_entry(d, n, sector)
    occupations = enumerate_distributions(sector.statistics, n, d)
    for classes in picks(len(occupations)):
        got = fock._class_occupations(entry, classes)
        assert list(got) == [occupations[k] for k in classes]
        assert all(type(o) is tuple and all(type(m) is int for m in o) for o in got)
        keys = [occupations[k] for k in classes]
        found = fock._classes(entry, keys)
        assert list(found) == classes and all(type(k) is int for k in found)
    assert (exchange._occupation_memo(entry) is not None) is memo


# ---------------------------------------------------------------- remembered coordinates

sizes = st.tuples(st.integers(1, 5), st.integers(1, 5))
sectors = st.sampled_from([SYM, ANTI])
term_counts = st.sampled_from([None, 1, 2, 3])
seeds = st.integers(0, 2 ** 32 - 1)


def amplitude_bits(fv, basis):
    return fock_to_labeled(fv, basis).amplitudes.tobytes()


@settings(max_examples=80, deadline=None)
@given(size=sizes, sector=sectors, n_terms=term_counts, seed=seeds)
def test_the_round_trip_keeps_its_bits_with_and_without_coordinates(size, sector, n_terms, seed):
    d, n = size
    assume(sector is SYM or n <= d)
    state = sector_state(d, n, sector, n_terms, seed)
    basis = state.basis
    fv = labeled_to_fock(state, sector)
    key, index, values = fv._coordinates
    assert key == (d, n, sector)
    occupations = enumerate_distributions(sector.statistics, n, d)
    assert [occupations[k] for k in index.tolist()] == list(fv.terms)
    assert values.tobytes() == np.array(list(fv.terms.values()), complex).tobytes()
    expected = amplitude_bits(fv, basis)

    copy = pickle.loads(pickle.dumps(fv))
    twin = FockVector(dict(fv.terms), sector, n)
    assert copy._coordinates is None and twin._coordinates is None
    assert amplitude_bits(copy, basis) == amplitude_bits(twin, basis) == expected
    # the table, its memo and every other table leave the cache between the two calls
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exchange, "_orbit_tables", exchange._TableCache())
        assert amplitude_bits(fv, basis) == expected
        # without a kept table the lookup counts each class off a new one
        m.setattr(exchange, "ORBIT_CACHE_BYTES", 0)
        assert amplitude_bits(twin, basis) == expected


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_coordinates_are_read_only_and_change_no_field(sector):
    state = random_sector_state(np.random.default_rng(5), 4, 3, sector)
    fv = labeled_to_fock(state, sector)
    _, index, values = fv._coordinates
    assert not index.flags.writeable and not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0
    twin = FockVector(dict(fv.terms), sector, 3)
    assert fv == twin and twin == fv
    assert repr(fv) == repr(twin)
    assert "_coordinates" not in repr(fv)
    assert pickle.dumps(fv) == pickle.dumps(twin)
    assert pickle.loads(pickle.dumps(fv)) == fv


def test_coordinates_of_another_table_are_not_read(monkeypatch):
    state = random_sector_state(np.random.default_rng(3), 4, 2, SYM)
    fv = labeled_to_fock(state, SYM)
    expected = amplitude_bits(fv, state.basis)
    _, index, values = fv._coordinates
    # a key that is not the table's: its arrays would put the coefficients elsewhere
    monkeypatch.setitem(vars(fv), "_coordinates", ((4, 2, ANTI), index[::-1], values))
    assert amplitude_bits(fv, state.basis) == expected


@pytest.mark.parametrize("sector", [SYM, ANTI])
def test_a_basis_of_another_dimension_raises_the_old_error_first(sector):
    fv = labeled_to_fock(random_sector_state(np.random.default_rng(8), 4, 2, sector), sector)
    for dim in (3, 5):
        with pytest.raises(ValueError, match=f"occupation has 4 modes, basis has {dim}"):
            fock_to_labeled(fv, OneParticleBasis.default(dim))


# ---------------------------------------------------------------- coefficient sums

def head_sums(bins, amp, psi, size):
    """The sums as written before: both parts of one complex weight array, then re + 1j * im."""
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
