import numpy as np
import pytest

from identicals import (
    ExchangeSector,
    LabeledState,
    OneParticleBasis,
    sector_project,
)
from identicals.exchange import _project_raw


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
