"""Symmetrization and antisymmetrization over particle slots.

Projectors onto the symmetric/antisymmetric sectors, normalized
(anti)symmetrized products, and explicit orthonormal sector bases indexed
by occupation vectors.  No permutation sum is evaluated term by term: the
projector is applied as a product of transposition sums, N(N-1)/2 axis
swaps, and basis vectors are written in closed form from the orbits of the
slot index tuples under S_N.  A complex buffer is divided by a real scalar
(a coset round's 1/k, a norm) as one multiply of its float64 view by the
reciprocal (_divide): the bits of numpy's complex division, but for the
sign of a zero, without its cost.

sector_basis builds its vectors by the private LabeledState._trusted, which
checks nothing: each is a row of the orbit table, a unit vector by
construction, so validating it again would only repeat its norm.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from collections import OrderedDict

import numpy as np

from . import counting, errors
from .counting import ExchangeSector
from .errors import VACUUM, CapExceeded, check_dense_dim
from .states import TAU_NORM, LabeledState, OneParticleBasis, norm, tensor_product

TAU_SECTOR = 1e-9

#: at or below this pre-normalization norm an antisymmetrized product counts
#: as a Pauli violation rather than a usable state
MIN_PRODUCT_NORM = 1e-6


def _divide(arr: np.ndarray, c: float) -> None:
    """arr /= c in place for a real scalar c, with the bits of numpy's `/=` but a zero's sign.

    A complex128 array's float64 view is multiplied by 1 / c.  numpy divides
    a complex by c + 0j as (re + im 0) fl(1/c) and (im - re 0) fl(1/c), so
    the two differ at most in the sign of a zero, and this skips the complex
    division.  A real array keeps `/=`: there it is correctly rounded and a
    reciprocal multiply is not.
    """
    if arr.dtype == complex:
        view = arr.view(np.float64)
        view *= 1.0 / c
    else:
        arr /= c


def _normalize(arr: np.ndarray, floor: float) -> bool:
    """Divide arr by its norm in place; False, and arr untouched, if the norm is at most floor."""
    length = norm(arr)
    if length <= floor:
        return False
    _divide(arr, length)
    return True


def _project_raw(arr: np.ndarray, sector: ExchangeSector) -> np.ndarray:
    """(1/N!) sum_p (+-1)^p P_p applied to a slot-indexed tensor, in a new array.

    Uses the coset factorisation S_k = (1/k)(1 +- sum_{j<k} (j k)) S_{k-1},
    with (j k) a swap of two slot axes, and at most two work buffers.  Each
    round writes its first sum straight into a buffer, and the first round
    reads the input itself, so N = 2 needs one buffer.  A sector that is not
    an ExchangeSector is refused first (counting.check_sector).
    """
    counting.check_sector(sector)
    op = np.subtract if sector is ExchangeSector.ANTISYMMETRIC else np.add
    src = np.asarray(arr, dtype=np.result_type(arr, float))
    if src.ndim < 2:
        return src.copy()
    out, spare = src, None
    for k in range(1, src.ndim):
        acc = np.empty(src.shape, src.dtype) if spare is None else spare
        op(out, out.swapaxes(0, k), out=acc)
        for j in range(1, k):
            op(acc, out.swapaxes(j, k), out=acc)
        _divide(acc, k + 1)
        spare = None if out is src else out
        out = acc
    return out


def sector_project(state: LabeledState, sector: ExchangeSector) -> LabeledState | None:
    """Project onto the sector and renormalize; None when the projection vanishes."""
    raw = _project_raw(state.tensor(), sector)
    if not _normalize(raw, TAU_NORM):
        return None
    return LabeledState(state.n_slots, state.basis, raw.reshape(-1))


def symmetrized_product(
    factors: list[np.ndarray], sector: ExchangeSector, basis: OneParticleBasis
) -> LabeledState:
    """Normalized (anti)symmetrized product of one-particle vectors.

    Antisymmetric factors must be (numerically) linearly independent; a
    vanishing or ill-conditioned projection raises.
    """
    product = tensor_product(factors, basis)
    raw = _project_raw(product.tensor(), sector)
    if not _normalize(raw, MIN_PRODUCT_NORM):
        raise ValueError(
            "antisymmetrized product vanishes: factors are not linearly independent "
            "(Pauli exclusion)"
        )
    return LabeledState(product.n_slots, basis, raw.reshape(-1))


#: bytes of orbit tables and sector bases that the cache keeps for reuse,
#: each an entry of its own; one charged more than this is returned but not kept
ORBIT_CACHE_BYTES = 32 * 2 ** 20


class _TableCache:
    """A least-recently-used map of key -> (value, charge), with a running byte total.

    nbytes is the sum of the charges of the kept entries.  The lock keeps it
    exact when threads miss on the same key at once: each builds the value,
    only the first one stored is kept.
    """

    def __init__(self):
        self.tables: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def get(self, key):
        """The value kept under key, now the most recently used, or None."""
        with self.lock:
            held = self.tables.get(key)
            if held is None:
                return None
            self.tables.move_to_end(key)
            return held[0]

    def put(self, key, value, charge: int) -> None:
        """Keep value under key, charged charge bytes; the least recently used go first.

        Nothing is stored if the key is already kept (the first value stored
        wins) or if charge alone exceeds ORBIT_CACHE_BYTES.
        """
        with self.lock:
            if charge > ORBIT_CACHE_BYTES or key in self.tables:
                return
            self.tables[key] = value, charge
            self.nbytes += charge
            while self.nbytes > ORBIT_CACHE_BYTES:
                _, (_, old) = self.tables.popitem(last=False)
                self.nbytes -= old


_orbit_tables = _TableCache()


def orbit_table(
    d: int, n: int, sector: ExchangeSector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupation class and basis amplitude of every flat index of d^n amplitudes.

    Index tuples that sort to the same tuple share one occupation.  cls[i]
    is the position of that occupation in counting.enumerate_distributions
    (ascending sorted tuples), or -1 if the sector holds no such state.
    amp[i] is amplitude i of that occupation's normalized sector basis
    vector: sqrt(prod n_m! / N!) (symmetric), or the parity of the sort over
    sqrt(N!) (antisymmetric); 0 where cls is -1.  The amplitude on the
    sorted tuple itself, the first of its class, is positive.  first[k] is
    the flat index of that sorted tuple for class k, so first is ascending
    and np.unravel_index(first, (d,) * n) lists each class's modes.

    Before the cache is read, the arguments are refused as
    counting.sector_size refuses them, in its order, but no count is
    computed: a sector that is not an ExchangeSector (counting.check_sector),
    a negative n or no mode (counting._check_sizes), the vacuum (n = 0,
    errors.VACUUM), then the slot and dense caps (check_dense_dim).  More
    fermions than modes pass, and give a table with no class.
    Each (d, n, sector) table is built once and kept read-only under that
    key, charged the bytes of its arrays, so every caller shares the same
    three arrays.  The cache is one least-recently-used map of at most
    ORBIT_CACHE_BYTES, shared with sector_basis; a table larger than the
    whole budget is returned without being kept.
    """
    counting.check_sector(sector)
    counting._check_sizes(n, d)
    if n == 0:
        raise ValueError(VACUUM)
    check_dense_dim(d, n)
    key = (d, n, sector)
    tables = _orbit_tables.get(key)
    if tables is None:
        tables = _build_orbit_table(d, n, sector)
        for a in tables:
            a.setflags(write=False)
        _orbit_tables.put(key, tables, sum(a.nbytes for a in tables))
    return tables


def _occupation_rows(first: np.ndarray, d: int, n: int) -> np.ndarray:
    """The occupation matrix of the classes whose sorted index tuples are first, one row each.

    Row k counts how many of the n slots of flat index first[k] hold each of
    the d modes.  Over a whole orbit table's first it lists every occupation
    in the order of counting.enumerate_distributions.
    """
    modes = np.stack(np.unravel_index(first, (d,) * n), axis=1)
    cells = modes + d * np.arange(first.size)[:, None]
    return np.bincount(cells.ravel(), minlength=first.size * d).reshape(first.size, d)


def _build_orbit_table(
    d: int, n: int, sector: ExchangeSector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    shape = (d,) * n
    idx = np.indices(shape).reshape(n, -1)
    ordered = np.sort(idx, axis=0)
    key = np.ravel_multi_index(ordered, shape)
    repeats = ordered[1:] == ordered[:-1]
    if sector is ExchangeSector.ANTISYMMETRIC:
        inversions = sum(idx[i] > idx[j] for i, j in itertools.combinations(range(n), 2))
        sign = np.where(inversions % 2, -1.0, 1.0)
        amp = sign * ~repeats.any(axis=0) / math.sqrt(math.factorial(n))
    else:
        # prod n_m! is the product over slots of the sorted tuple's run length so far
        run = np.ones(key.size)
        weight = np.ones(key.size)
        for same in repeats:
            run = np.where(same, run + 1, 1)
            weight *= run
        amp = np.sqrt(weight / math.factorial(n))
    first = np.flatnonzero((key == np.arange(key.size)) & (amp != 0))
    position = np.full(key.size, -1)
    position[first] = np.arange(first.size)
    return position[key], amp, first


def _basis_bytes(states: tuple[LabeledState, ...]) -> int:
    """Bytes charged for a kept sector basis: what sys.getsizeof reports for the objects it holds.

    Those are the tuple; the one (count, d^N) array with its data; the
    OneParticleBasis with its labels; and each state and its row view.  The
    states and the basis keep their fields in __slots__, so their sizes are
    fixed by their classes.  Every state has a row of the same shape, so one
    is measured for all.
    """
    one = states[0]
    rows, modes = one.amplitudes, one.basis
    shared = (states, rows.base, modes, modes.labels, *modes.labels)
    each = (one, rows)
    return sum(map(sys.getsizeof, shared)) + len(states) * sum(map(sys.getsizeof, each))


def sector_basis(d: int, n: int, sector: ExchangeSector) -> list[LabeledState]:
    """Orthonormal sector basis, one vector per occupation vector, in a new list.

    Ordered by the occupation enumeration of the counting module; empty when
    the sector holds no states (more fermions than modes).  The sizes, and
    what is refused, are counting.sector_size's.  The whole basis is one
    dense array, so its count * d^N amplitudes are capped too, by
    errors.MAX_DIM as it stands at the call, the one check of its own.  Both
    come before the cache is read.

    The vectors are built trusted, without a second validation: row k of the
    one (count, d^N) complex array holds the orbit-table amplitudes of class
    k, the closed-form basis amplitudes of one occupation, so it has the
    right shape and norm 1 within rounding.  The array is made read-only
    before any row is taken, and each vector is a read-only view of its row;
    the array is never copied.

    The states are kept as a tuple in orbit_table's cache under a key of
    their own, ("basis", d, n, sector), charged _basis_bytes.  A basis is an
    entry like a table: it is kept when its charge alone fits
    ORBIT_CACHE_BYTES, and it leaves at its own least-recently-used
    position, not with its table.  A warm call reads neither the table nor
    the array and returns a new list of the same state objects.

    The CLI's `basis` report uses a numpy-free twin, counting.basis_rows,
    which shares no code with this function;
    tests/test_structured_kernels.py::test_basis_rows_match_sector_basis_bit_for_bit
    holds the two to the same amplitude bits.
    """
    count, dim = counting.sector_size(sector, n, d)
    if count * dim > errors.MAX_DIM:
        raise CapExceeded(
            f"{count} basis vectors of d^N = {d}^{n} amplitudes exceed the "
            f"dense-storage cap {errors.MAX_DIM}"
        )
    if count == 0:
        return []
    key = ("basis", d, n, sector)
    states = _orbit_tables.get(key)
    if states is None:
        cls, amp, _ = orbit_table(d, n, sector)
        (member,) = np.nonzero(cls >= 0)
        vectors = np.zeros((count, dim), dtype=complex)
        vectors[cls[member], member] = amp[member]
        vectors.setflags(write=False)
        basis = OneParticleBasis.default(d)
        states = tuple(LabeledState._trusted(n, basis, v) for v in vectors)
        _orbit_tables.put(key, states, _basis_bytes(states))
    return list(states)


def _sector_projection(state: LabeledState, sector: ExchangeSector) -> np.ndarray | None:
    """P psi / |P psi| as a slot tensor, if it lies within TAU_SECTOR of psi.

    None when the projection vanishes or the residual |P psi / |P psi| - psi|
    exceeds TAU_SECTOR.  Normalizes the projector's own buffer in place.
    """
    projected = _project_raw(state.tensor(), sector)
    return projected if _near_projection(projected, state.amplitudes) else None


def _near_projection(projected: np.ndarray, psi: np.ndarray) -> bool:
    """Whether psi is in the sector, given projected = P psi: the membership rule.

    False when |P psi| <= TAU_NORM or |P psi / |P psi| - psi| > TAU_SECTOR.
    Normalizes projected in place (if it does not vanish).
    """
    return _normalize(projected, TAU_NORM) and not norm(projected.reshape(-1) - psi) > TAU_SECTOR


def is_in_sector(state: LabeledState, sector: ExchangeSector) -> bool:
    """True iff the state is (numerically) a fixed point of the sector projector."""
    return _sector_projection(state, sector) is not None
