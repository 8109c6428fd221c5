"""The sector projector holds the bits of the plain coset loop.

exchange divides its complex buffers by a real scalar through one float64
multiply by the reciprocal, and writes each coset round's first sum
straight into a work buffer.  numpy divides a complex by c + 0j as
(re + im 0) fl(1/c), so every value must keep its bits, but a zero may
change its sign.  The loop below is the projector as it was written
before: a copy of the input, a copy per round, then `/=`.
"""

import itertools

import numpy as np
import pytest

from identicals import exchange, states
from identicals.counting import ExchangeSector
from identicals.exchange import MIN_PRODUCT_NORM, TAU_SECTOR
from identicals.states import TAU_NORM, LabeledState, OneParticleBasis, tensor_product

SECTORS = list(ExchangeSector)
SIZES = list(itertools.product(range(1, 9), range(1, 6)))


def frozen_project_raw(arr, sector):
    op = np.subtract if sector is ExchangeSector.ANTISYMMETRIC else np.add
    out = arr.astype(np.result_type(arr, float))
    acc = np.empty_like(out)
    for k in range(1, arr.ndim):
        np.copyto(acc, out)
        for j in range(k):
            op(acc, out.swapaxes(j, k), out=acc)
        acc /= k + 1
        out, acc = acc, out
    return out


def frozen_sector_projection(state, sector):
    """(P psi / |P psi| as a slot tensor, membership verdict), or (None, False)."""
    projected = frozen_project_raw(state.tensor(), sector)
    norm = states.norm(projected)
    if norm <= TAU_NORM:
        return None, False
    projected /= norm
    return projected, states.norm(projected.reshape(-1) - state.amplitudes) <= TAU_SECTOR


def frozen_sector_project(state, sector):
    raw = frozen_project_raw(state.tensor(), sector)
    norm = states.norm(raw)
    return None if norm <= TAU_NORM else raw.reshape(-1) / norm


def frozen_symmetrized_product(factors, sector, basis):
    raw = frozen_project_raw(tensor_product(factors, basis).tensor(), sector)
    norm = states.norm(raw)
    return None if norm < MIN_PRODUCT_NORM else raw.reshape(-1) / norm


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    g = np.ascontiguousarray(got).reshape(-1).view(np.float64)
    w = np.ascontiguousarray(want).reshape(-1).view(np.float64)
    differ = g.view(np.int64) != w.view(np.int64)
    # a zero may differ only in sign
    assert np.all((g[differ] == 0) & (w[differ] == 0))


def random_state(rng, d, n):
    v = rng.normal(size=d ** n) + 1j * rng.normal(size=d ** n)
    return LabeledState(n, OneParticleBasis.default(d), v / np.linalg.norm(v))


def unit_vectors(rng, d, n):
    vecs = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return list(vecs / np.linalg.norm(vecs, axis=1, keepdims=True))


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
@pytest.mark.parametrize("d,n", SIZES)
def test_the_projector_keeps_the_bits_of_the_coset_loop(sector, d, n):
    rng = np.random.default_rng(100 * d + 10 * n + (sector is ExchangeSector.ANTISYMMETRIC))
    state = random_state(rng, d, n)
    real = rng.normal(size=(d,) * n)
    for arr in (state.tensor(), real):
        assert_same_bits(exchange._project_raw(arr, sector), frozen_project_raw(arr, sector))

    want = frozen_sector_project(state, sector)
    got = exchange.sector_project(state, sector)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert_same_bits(got.amplitudes, want)

    # a random state is outside the sector unless it has one slot or one mode;
    # its normalised projection is inside
    inside = LabeledState(n, state.basis, want)
    for probe, member in ((state, n == 1 or d == 1), (inside, True)):
        want_tensor, want_member = frozen_sector_projection(probe, sector)
        got_tensor = exchange._sector_projection(probe, sector)
        assert want_member == member
        assert (got_tensor is not None) == want_member == exchange.is_in_sector(probe, sector)
        if got_tensor is not None:
            assert_same_bits(got_tensor, want_tensor)
    assert_same_bits(exchange.sector_project(inside, sector).amplitudes,
                     frozen_sector_project(inside, sector))


@pytest.mark.parametrize("sector", SECTORS, ids=lambda s: s.value)
@pytest.mark.parametrize("d,n", SIZES)
def test_symmetrized_products_keep_the_bits_of_the_coset_loop(sector, d, n):
    rng = np.random.default_rng(1000 + 100 * d + 10 * n)
    basis = OneParticleBasis.default(d)
    for factors in (unit_vectors(rng, d, n), [unit_vectors(rng, d, 1)[0]] * n):
        want = frozen_symmetrized_product(factors, sector, basis)
        if want is None:
            with pytest.raises(ValueError, match="Pauli"):
                exchange.symmetrized_product(factors, sector, basis)
        else:
            assert_same_bits(exchange.symmetrized_product(factors, sector, basis).amplitudes, want)
