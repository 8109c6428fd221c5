"""Dense N-slot, d-mode tensor-product states and their basic linear algebra.

A state lives on N particle slots, each carrying a d-dimensional one-particle
space.  Amplitudes are stored flat, with slot 0 as the most significant
base-d digit, so flat index = sum_k i_k * d^(N-1-k).
"""

from __future__ import annotations

import math

import numpy as np

from . import counting
from .counting import _set, _Value
# the dense caps, re-exported for the modules and callers that read them here
from .errors import MAX_DIM, MAX_SLOTS, check_dense_dim

TAU_NORM = 1e-10
TAU_UNITARY = 1e-10
TAU_PSD = 1e-10
TAU_ORTH = 1e-10
#: floats of the float64 view that norm sums with one BLAS dot
_NORM_BLOCK = 8192


def norm(amps: np.ndarray, rows: bool = False) -> float | np.ndarray:
    """The 2-norm of an array, or with rows=True the squared 2-norm of each row of a 2-D array.

    The one rule by which the package measures a state.  The float64 view of
    the array (re, im of each complex entry) is cut into blocks of at most
    _NORM_BLOCK floats, per row in the row form.  One BLAS dot sums each
    block's squares (np.vecdot over the blocks), and numpy's pairwise np.sum
    adds the block sums.  A dot over n floats loses up to ~sqrt(n) eps,
    ~1e-13 on 2^20 amplitudes; the pairwise sum of the blocks keeps the
    error near eps at every size (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
    A vector of one block is one dot, and rows of one block are one batched dot.
    Nothing state-sized is allocated: the blocks are views, and one float per
    block is kept.  A finite array whose squared norm overflows gives inf,
    without a warning; NaN gives NaN.
    """
    arr = np.asarray(amps)
    floats = np.ascontiguousarray(arr, complex if arr.dtype.kind == "c" else np.float64)
    floats = floats.view(np.float64)
    if not rows:
        if floats.size <= _NORM_BLOCK:
            # np.vdot of a real array is one BLAS dot, and it raises no overflow warning
            return math.sqrt(np.vdot(floats, floats))
        floats = floats.reshape(1, -1)
    count, length = floats.shape
    with np.errstate(over="ignore"):
        if length <= _NORM_BLOCK:
            return (floats[:, np.newaxis, :] @ floats[:, :, np.newaxis]).ravel()
        full = length - length % _NORM_BLOCK
        blocks = floats[:, :full].reshape(count, -1, _NORM_BLOCK)
        tail = floats[:, full:]
        sums = np.concatenate(
            [np.vecdot(blocks, blocks), np.vecdot(tail, tail)[:, np.newaxis]], axis=1
        ).sum(axis=1)
    return sums if rows else math.sqrt(sums[0])


def off_unit_norm(length: float) -> bool:
    """Whether a norm breaks the package's one unit-norm rule: off 1 by more than TAU_NORM.

    NaN breaks it, since it compares false.
    """
    return not abs(length - 1.0) <= TAU_NORM


def check_unit_norm(values, what: str, message: str) -> None:
    """ValueError unless the values, measured by norm, obey the unit-norm rule.

    Non-finite values (NaN or inf) raise '<what> must be finite'; any other
    break, a finite array whose squared norm overflows included, raises
    message with {norm} replaced by the norm.
    """
    length = norm(values)
    if off_unit_norm(length):
        if not math.isfinite(length) and not np.isfinite(values).all():
            raise ValueError(f"{what} must be finite")
        raise ValueError(message.format(norm=length))


class OneParticleBasis(_Value):
    """Ordered mode names, optionally with per-mode energies (units of epsilon)."""

    __slots__ = __match_args__ = ("labels", "energies")
    labels: tuple[str, ...]
    energies: tuple[float, ...] | None

    def __init__(self, labels: tuple[str, ...], energies: tuple[float, ...] | None = None):
        if len(set(labels)) != len(labels):
            raise ValueError(f"mode labels must be distinct: {labels}")
        if not labels:
            raise ValueError("basis needs at least one mode")
        if energies is not None and len(energies) != len(labels):
            raise ValueError("energies must match the number of modes")
        _set(self, "labels", labels)
        _set(self, "energies", energies)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def default(cls, d: int) -> "OneParticleBasis":
        return cls(tuple(f"m{i + 1}" for i in range(d)))


class Permutation(_Value):
    """A bijection on slot indices {0, ..., n-1}."""

    __slots__ = __match_args__ = ("mapping",)
    mapping: tuple[int, ...]

    def __init__(self, mapping: tuple[int, ...]):
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a bijection on 0..{len(mapping) - 1}: {mapping}")
        _set(self, "mapping", mapping)

    @property
    def size(self) -> int:
        return len(self.mapping)

    @property
    def parity(self) -> int:
        return counting.parity(self.mapping)

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


class LabeledState(_Value):
    """Unit vector in the N-fold tensor power of a d-dimensional one-particle space.

    Its repr leaves the amplitudes out.
    """

    __slots__ = __match_args__ = ("n_slots", "basis", "amplitudes")
    n_slots: int
    basis: OneParticleBasis
    amplitudes: np.ndarray

    def __init__(self, n_slots: int, basis: OneParticleBasis, amplitudes: np.ndarray):
        _set(self, "n_slots", n_slots)
        _set(self, "basis", basis)
        _set(self, "amplitudes", amplitudes)
        self.__post_init__()

    def __post_init__(self):
        if self.n_slots < 1:
            raise ValueError("n_slots must be positive")
        dim = check_dense_dim(self.basis.dim, self.n_slots)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {amps.shape}")
        check_unit_norm(amps, "amplitudes", "state norm {norm} deviates from 1")
        amps.setflags(write=False)
        _set(self, "amplitudes", amps)

    def __repr__(self):
        return f"{type(self).__qualname__}(n_slots={self.n_slots!r}, basis={self.basis!r})"

    @classmethod
    def _trusted(
        cls, n_slots: int, basis: OneParticleBasis, amplitudes: np.ndarray
    ) -> "LabeledState":
        """A state from amplitudes the package built valid; checks nothing.

        The amplitudes must be a complex array of shape (d^N,) whose norm
        obeys off_unit_norm: what __post_init__ checks, the only place the
        checks are made.  They are made read-only in place and kept, never
        copied.  Only a function that builds them valid by construction calls
        this, and its docstring says why (tests/test_trusted.py holds the list).
        """
        state = object.__new__(cls)
        amplitudes.setflags(write=False)
        _set(state, "n_slots", n_slots)
        _set(state, "basis", basis)
        _set(state, "amplitudes", amplitudes)
        return state

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
        check_unit_norm(v, f"factor {k}", f"factor {k} is not unit norm (norm {{norm}})")
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
    """u as a complex d x d array; ValueError unless |u^H u - I| <= TAU_UNITARY.

    A non-finite entry is refused before the product; a product that is not
    finite (NaN compares false) is refused as not unitary.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix, got {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if not dev <= TAU_UNITARY:
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
