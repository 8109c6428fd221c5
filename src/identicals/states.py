"""Dense N-slot, d-mode tensor-product states and their basic linear algebra.

A state lives on N particle slots, each carrying a d-dimensional one-particle
space.  Amplitudes are stored flat, with slot 0 as the most significant
base-d digit, so flat index = sum_k i_k * d^(N-1-k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded

TAU_NORM = 1e-10
TAU_UNITARY = 1e-10
TAU_PSD = 1e-10
TAU_ORTH = 1e-10

#: dense storage only; anything bigger is out of desk scale
MAX_DIM = 2 ** 24
#: numpy arrays have at most 64 axes: one per slot, and np.indices adds one
MAX_SLOTS = 63


def check_dense_dim(d: int, n: int) -> int:
    """d^N, or CapExceeded when N slots of d modes do not fit a dense tensor."""
    if n > MAX_SLOTS:
        raise CapExceeded(
            f"N = {n} slots exceed the dense-tensor cap of {MAX_SLOTS} "
            "(numpy's 64-axis limit)"
        )
    dim = d ** n
    if dim > MAX_DIM:
        raise CapExceeded(f"d^N = {d}^{n} exceeds the dense-storage cap {MAX_DIM}")
    return dim


@dataclass(frozen=True)
class OneParticleBasis:
    """Ordered mode names, optionally with per-mode energies (units of epsilon)."""

    labels: tuple[str, ...]
    energies: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"mode labels must be distinct: {self.labels}")
        if not self.labels:
            raise ValueError("basis needs at least one mode")
        if self.energies is not None and len(self.energies) != len(self.labels):
            raise ValueError("energies must match the number of modes")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def default(cls, d: int) -> "OneParticleBasis":
        return cls(tuple(f"m{i + 1}" for i in range(d)))


@dataclass(frozen=True)
class Permutation:
    """A bijection on slot indices {0, ..., n-1}."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError(f"not a bijection on 0..{len(self.mapping) - 1}: {self.mapping}")

    @property
    def size(self) -> int:
        return len(self.mapping)

    @property
    def parity(self) -> int:
        m = self.mapping
        inversions = sum(
            1 for i, j in itertools.combinations(range(len(m)), 2) if m[i] > m[j]
        )
        return -1 if inversions % 2 else 1

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "Permutation":
        m = list(range(n))
        m[i], m[j] = m[j], m[i]
        return cls(tuple(m))


def compose(q: Permutation, p: Permutation) -> Permutation:
    """q after p: (q o p)(k) = q(p(k))."""
    if q.size != p.size:
        raise ValueError("permutation sizes differ")
    return Permutation(tuple(q.mapping[p.mapping[k]] for k in range(p.size)))


@dataclass(frozen=True)
class LabeledState:
    """Unit vector in the N-fold tensor power of a d-dimensional one-particle space."""

    n_slots: int
    basis: OneParticleBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError("n_slots must be positive")
        dim = check_dense_dim(self.basis.dim, self.n_slots)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > TAU_NORM:
            raise ValueError(f"state norm {norm} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.basis.dim ** self.n_slots

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per slot."""
        return self.amplitudes.reshape((self.basis.dim,) * self.n_slots)


def _check_compatible(a: LabeledState, b: LabeledState):
    if a.n_slots != b.n_slots or a.basis.labels != b.basis.labels:
        raise ValueError("states live on different spaces")


def tensor_product(factors: list[np.ndarray], basis: OneParticleBasis) -> LabeledState:
    """Product state of one-particle vectors (one per slot, shared basis)."""
    if not factors:
        raise ValueError("need at least one factor")
    d = basis.dim
    vecs = []
    for k, f in enumerate(factors):
        v = np.asarray(f, dtype=complex)
        if v.shape != (d,):
            raise ValueError(f"factor {k} has dimension {v.shape}, basis has {d} modes")
        if abs(np.linalg.norm(v) - 1.0) > TAU_NORM:
            raise ValueError(f"factor {k} is not unit norm (norm {np.linalg.norm(v)})")
        vecs.append(v)
    out = vecs[0]
    for v in vecs[1:]:
        out = np.tensordot(out, v, axes=0)
    return LabeledState(len(vecs), basis, out.reshape(-1))


def inner_product(a: LabeledState, b: LabeledState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_compatible(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_permutation(state: LabeledState, p: Permutation) -> LabeledState:
    """Move the content of slot k to slot p(k).

    Applying p then q equals applying compose(q, p).
    """
    if p.size != state.n_slots:
        raise ValueError(f"permutation acts on {p.size} slots, state has {state.n_slots}")
    arr = state.tensor().transpose(p.mapping)
    return LabeledState(state.n_slots, state.basis, arr.reshape(-1))


def check_unitary(u: np.ndarray, d: int) -> np.ndarray:
    """u as a complex d x d array; ValueError unless |u^H u - I| <= TAU_UNITARY."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if dev > TAU_UNITARY:
        raise ValueError(f"matrix is not unitary (max |u^H u - I| = {dev:.3g})")
    return u


def fix_phase(amps: np.ndarray) -> None:
    """Make the first significant amplitude of a vector, or of each row, real positive.

    Works in place on a 1-D vector or on the rows of a 2-D array.
    Significant means |a| > 1e-12, first means lowest index; a vector with
    no significant amplitude is left as it is.
    """
    rows = amps if amps.ndim == 2 else amps[np.newaxis]
    significant = np.abs(rows) > 1e-12
    lead = rows[np.arange(len(rows)), significant.argmax(axis=1)]
    lead = np.where(significant.any(axis=1), lead, 1.0)
    rows *= (np.abs(lead) / lead)[:, np.newaxis]


def apply_one_particle_unitary(state: LabeledState, u: np.ndarray) -> LabeledState:
    """Apply the same one-particle unitary to every slot (u x u x ... x u)."""
    u = check_unitary(u, state.basis.dim)
    arr = state.tensor()
    for k in range(state.n_slots):
        arr = np.moveaxis(np.tensordot(u, arr, axes=([1], [k])), 0, k)
    return LabeledState(state.n_slots, state.basis, arr.reshape(-1))


def reduce_one_particle(state: LabeledState) -> np.ndarray:
    """One-particle reduced density matrix, averaged over all slots.

    Hermitian, trace 1, positive semidefinite (within floating tolerance).
    """
    d = state.basis.dim
    n = state.n_slots
    arr = state.tensor()
    rdm = np.zeros((d, d), dtype=complex)
    for k in range(n):
        m = np.moveaxis(arr, k, 0).reshape(d, -1)
        rdm += m @ m.conj().T
    return rdm / n
