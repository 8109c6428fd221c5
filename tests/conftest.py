import sys

import numpy as np
import pytest

from identicals import (
    ExchangeSector,
    LabeledState,
    OneParticleBasis,
    sector_project,
)
from identicals import states
from identicals.exchange import _project_raw
from identicals.states import TAU_NORM


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def random_unit_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthonormal_set(rng, d, k):
    return list(random_unitary(rng, d)[:, :k].T)


def random_sector_state(rng, d, n, sector):
    """Random unit vector in the requested exchange sector (None if empty)."""
    basis = OneParticleBasis.default(d)
    for _ in range(20):
        v = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
        raw = LabeledState(n, basis, v / np.linalg.norm(v))
        projected = sector_project(raw, sector)
        if projected is not None:
            return projected
    return None


def perturbed(state, sector, size, rng):
    """state plus a component of norm `size` orthogonal to the sector, renormalized."""
    eta = rng.normal(size=state.dim) + 1j * rng.normal(size=state.dim)
    off = eta - _project_raw(eta.reshape(state.tensor().shape), sector).reshape(-1)
    amps = state.amplitudes + size * off / np.linalg.norm(off)
    return LabeledState(state.n_slots, state.basis, amps / np.linalg.norm(amps))


def edge_state(d, n, sector, seed, edge):
    """A random sector state whose norm sits at 1 + edge * TAU_NORM, edge in {-1, 0, 1}.

    At edge +-1 the amplitudes are scaled to that norm, then stepped back
    towards 1 by one part in 2^52 at a time until the unit-norm rule admits
    them: the last scale that LabeledState accepts.  None when the random
    tensor's projection (nearly) vanishes.
    """
    rng = np.random.default_rng(seed)
    raw = _project_raw(rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n), sector)
    length = states.norm(raw)
    if length <= 1e-6:
        return None
    amps = raw.reshape(-1) / length * (1 + edge * TAU_NORM)
    while states.off_unit_norm(states.norm(amps)):
        amps *= 1 - edge * 2.0 ** -52
    return LabeledState(n, OneParticleBasis.default(d), amps)


def basis_charge(states):
    """The bytes charged for a kept sector basis: sys.getsizeof of each distinct object it holds.

    The tuple, and for every state the state, its row view, the array
    behind the rows, its OneParticleBasis, that basis's labels tuple and
    label strings.
    """
    held = {id(states): states}
    for s in states:
        modes = s.basis
        for obj in (s, s.amplitudes, s.amplitudes.base, modes, modes.labels, *modes.labels):
            held[id(obj)] = obj
    return sum(map(sys.getsizeof, held.values()))


def cache_bytes(cache):
    """A recount of what an orbit-table cache holds, from its (value, charge) pairs.

    A table counts its arrays by nbytes; a basis, a tuple of states, counts
    the charge recorded when it was stored, since a later getsizeof of the
    objects it holds can drift (a OneParticleBasis built since, say).
    """
    total = 0
    for value, charge in cache.tables.values():
        if isinstance(value[0], np.ndarray):
            total += sum(a.nbytes for a in value)
        else:
            total += charge
    return total


#: density configs whose grid holds no density: (packet_s, packet_n, grid) by id
EMPTY_DENSITY_GRIDS = {
    "packet_off_the_grid": (
        {"center": 0.0, "width": 1.0},
        {"center": 1000.0, "width": 1.0},
        {"x_min": -6.0, "x_max": 16.0, "n_points": 96},
    ),
    "packets_narrower_than_the_spacing": (
        {"center": 0.1, "width": 0.001},
        {"center": 10.1, "width": 0.001},
        {"x_min": -6.0, "x_max": 16.0, "n_points": 12},
    ),
    "one_point_grid": (
        {"center": 0.0, "width": 1.0},
        {"center": 10.0, "width": 1.0},
        {"x_min": 5.0, "x_max": 5.0, "n_points": 16},
    ),
    "grid_of_span_2e300": (
        {"center": 0.0, "width": 1.0},
        {"center": 10.0, "width": 1.0},
        {"x_min": -1e300, "x_max": 1e300, "n_points": 16},
    ),
    "grid_of_infinite_span": (
        {"center": 0.0, "width": 1.0},
        {"center": 10.0, "width": 1.0},
        {"x_min": -1e308, "x_max": 1e308, "n_points": 16},
    ),
}
