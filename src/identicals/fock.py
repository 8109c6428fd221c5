"""The label-free formalism: occupation-number states and their symbols.

Occupation vectors play the role of quasi-cardinals; the symbol grammar is
`f_{` (token)* `}` with token = `e<positive integer>` (the Unicode epsilon
form is accepted on input).  The maps to and from labeled sector states are
isometries onto the symmetric/antisymmetric sector bases.  Both directions
work on the orbit table of exchange.orbit_table.  FockVector validates a
Fock vector's occupations as one integer matrix (one row per term), read in
one call, never one occupation at a time.  Sector membership also comes
from the table: labeled_to_fock spreads its Fock coefficients back over it,
P psi = amp * c, and applies the membership rule of exchange.is_in_sector
to that, so the bridge runs no coset projector.  The table of each
(d, N, sector) is built once and then shared, read-only, by every call of
either direction and by occupation_to_labeled, with the occupation memo
kept with it (exchange._occupation_memo): every class's occupation and its
inverse, read with one itemgetter call per batch of classes.  A table that
keeps no memo, when it would not fit or would outweigh the table, has what
each call needs counted off it.

A Fock vector that labeled_to_fock built remembers its coordinates on the
table: the table's (d, N, sector) key, each term's class and each term's
coefficient, as read-only arrays.  fock_to_labeled reads those instead of
looking up every occupation again.  A class depends on the key alone, so
they stay valid when the table or its memo is dropped from the cache.  They
are no field of the vector, so ==, repr and pickling ignore them; a pickled
copy and a caller's vector have none, and take the lookup, with the same bits.

What the bridge builds is not validated a second time.  Its results come
from classes of the orbit table, or from a caller's Fock vector that
FockVector has validated, so they hold the invariants that FockVector and
LabeledState check.  They are built by the private _trusted constructors,
which check nothing, and each of the three functions says why its result
is valid.  A caller's FockVector or LabeledState is always validated.

Symbols and occupation states need only the standard library: numpy,
`exchange` and `states` are imported inside the functions that use them,
so parsing a symbol (and the CLI's symbol `analyze`) never imports numpy.
They name the package absolutely: a relative one resolves it on every call
(about 4% of a Fock round trip).
"""

from __future__ import annotations

import itertools
import operator
import re
import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from .counting import ExchangeSector

_SYMBOL_RE = re.compile(r"^f_\{((?:e[0-9]+)*)\}$")
_TOKEN_RE = re.compile(r"e([0-9]+)")
_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")
_NEGATIVE = "occupations must be non-negative"
_PAULI = "antisymmetric occupations cannot exceed 1"
VACUUM = "cannot build a labeled state for the vacuum"


@dataclass(frozen=True)
class OccupationState:
    """Per-mode occupation numbers, a tuple of 64-bit integers, in a fixed exchange sector."""

    occupations: tuple[int, ...]
    sector: ExchangeSector

    def __post_init__(self):
        object.__setattr__(self, "occupations", tuple(self.occupations))
        _pack_occupations([self.occupations], len(self.occupations))
        if any(n < 0 for n in self.occupations):
            raise ValueError(_NEGATIVE)
        if self.sector is ExchangeSector.ANTISYMMETRIC and any(
            n > 1 for n in self.occupations
        ):
            raise ValueError(_PAULI)

    @property
    def total(self) -> int:
        return sum(self.occupations)

    @property
    def n_modes(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class FockVector:
    """Superposition of occupation states with a common sector and total number.

    All occupations have the same number of modes and hold integers (see
    _occupation_matrix); the first occupation that does not raises first.
    Then a term that breaks the total number or the sector's occupation rule
    raises the error of the first such term, checked in that order.  terms
    is kept as a read-only view of a copy of the mapping given.
    """

    terms: Mapping[tuple[int, ...], complex]
    sector: ExchangeSector
    total_number: int

    #: (table key, class indices, coefficients) of the terms on a vector that
    #: labeled_to_fock built, None on any other; not a field (see _trusted)
    _coordinates = None

    def __post_init__(self):
        import numpy as np

        import identicals.states as states

        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        keys = list(self.terms)
        widths = set(map(len, keys))
        if len(widths) > 1:
            raise ValueError(f"occupations have different mode counts {sorted(widths)}")
        occ = _occupation_matrix(keys, max(widths, default=0))
        failed = np.stack(
            [
                occ.sum(axis=1) != self.total_number,
                (occ < 0).any(axis=1),
                (occ > 1).any(axis=1) & (self.sector is ExchangeSector.ANTISYMMETRIC),
            ],
            axis=1,
        )
        if failed.any():
            # row-major: the first failing term, then its first failed check
            term, check = divmod(int(np.argmax(failed)), failed.shape[1])
            total_error = f"occupation {keys[term]} breaks the total number {self.total_number}"
            raise ValueError((total_error, _NEGATIVE, _PAULI)[check])
        values = list(self.terms.values())
        states.check_unit_norm(values, "Fock coefficients", "Fock vector norm {norm} deviates from 1")

    def __reduce__(self):
        # a mapping proxy cannot be pickled; rebuild through the validating constructor
        return type(self), (dict(self.terms), self.sector, self.total_number)

    @classmethod
    def _trusted(
        cls,
        terms: dict[tuple[int, ...], complex],
        sector: ExchangeSector,
        total_number: int,
        coordinates: tuple,
    ) -> "FockVector":
        """A Fock vector from terms the package built valid; checks nothing.

        The occupations must be tuples of ints of one width, non-negative,
        summing to total_number and obeying the sector's occupation rule,
        and the coefficients' norm must obey states.off_unit_norm: what
        __post_init__ checks, the only place the checks are made.  Only a
        function that builds the terms valid by construction calls this, and
        its docstring says why (tests/test_trusted.py holds the list).  terms
        is wrapped without a copy: the caller must keep no other reference.

        coordinates are the terms' remembered orbit-table coordinates:
        (key, index, values), the (d, N, sector) key of the table they were
        read from, each term's class on it and each term's coefficient, as
        read-only arrays in the order of terms, with values bit-equal to
        terms' values.  A class depends on the key alone, so they stay valid
        after the table is dropped from the cache.  They are no field: ==,
        repr and pickling ignore them, and a pickled copy, rebuilt through
        the constructor, has none.
        """
        fv = object.__new__(cls)
        vars(fv).update(
            terms=MappingProxyType(terms),
            sector=sector,
            total_number=total_number,
            _coordinates=coordinates,
        )
        return fv


def _pack_occupations(keys: list, width: int) -> bytes:
    """The occupation keys packed as 64-bit integers, width per key, in one call.

    Every entry must be an integer that fits in 64 bits: an int, a bool or
    anything with __index__.  A float is refused even when it is integral,
    since reading it as an integer would truncate 2.5 to 2 without a word.
    ValueError names the first occupation that breaks this.
    """
    try:
        return struct.pack(f"{len(keys) * width}q", *itertools.chain.from_iterable(keys))
    except struct.error:
        for key in keys:
            try:
                struct.pack(f"{len(key)}q", *key)
            except struct.error:
                raise ValueError(f"occupation {key} must hold 64-bit integers") from None
        raise


def _occupation_matrix(keys: list, width: int) -> np.ndarray:
    """The occupation keys as one int64 matrix, one row per key (see _pack_occupations)."""
    import numpy as np

    return np.frombuffer(_pack_occupations(keys, width), np.int64).reshape(len(keys), width)


def symbol_modes(text: str) -> list[int]:
    """The 1-based mode index of every token of a symbol, in order."""
    normalized = text.replace("ε", "e").translate(_SUBSCRIPT_DIGITS)
    m = _SYMBOL_RE.match(normalized)
    if m is None:
        raise ValueError(f"malformed symbol: {text!r}")
    return [int(tok) for tok in _TOKEN_RE.findall(m.group(1))]


def parse_symbol(
    text: str, d: int, sector: ExchangeSector = ExchangeSector.SYMMETRIC
) -> OccupationState:
    """Parse a quasi-function symbol like f_{e1e1e2} into an occupation state."""
    occ = [0] * d
    for i in symbol_modes(text):
        if not 1 <= i <= d:
            raise ValueError(f"mode index {i} out of range 1..{d}")
        occ[i - 1] += 1
    return OccupationState(tuple(occ), sector)


def format_symbol(occ: OccupationState) -> str:
    """Canonical symbol text: modes ascending, each repeated by its occupation."""
    body = "".join(f"e{i + 1}" * n for i, n in enumerate(occ.occupations))
    return f"f_{{{body}}}"


def _check_modes(width: int, n: int, basis: OneParticleBasis) -> None:
    """An occupation must have one entry per basis mode, and hold at least one particle."""
    if width != basis.dim:
        raise ValueError(f"occupation has {width} modes, basis has {basis.dim}")
    if n == 0:
        raise ValueError(VACUUM)


def _sorted_tuple_index(occ: np.ndarray, n: int, d: int) -> np.ndarray:
    """Flat index of the mode-ascending index tuple of each occupation row.

    Every row holds n particles in d modes.  Repeating each mode by its
    occupation lists a row's n slots in order: slot s holds the first mode
    whose running occupation exceeds s.
    """
    import numpy as np

    mode_of_entry = np.tile(np.arange(d), len(occ))
    modes = np.repeat(mode_of_entry, occ.ravel()).reshape(len(occ), n)
    return np.ravel_multi_index(tuple(modes.T), (d,) * n)


def _read(table, keys: list) -> Sequence:
    """table[key] for each key, in one itemgetter call.

    itemgetter of a single key returns the bare item, and of none raises
    TypeError, so those two cases read each key in turn.
    """
    if len(keys) > 1:
        return operator.itemgetter(*keys)(table)
    return [table[key] for key in keys]


def _class_occupations(entry, classes: list[int]) -> Sequence[tuple[int, ...]]:
    """The occupation of each sector class, a tuple of d Python ints.

    From the table's memo, or counted off each class's first[k] in one pass.
    """
    import identicals.exchange as exchange

    memo = exchange._occupation_memo(entry)
    if memo is not None:
        return _read(memo[0], classes)
    d, n, _ = entry.key
    return list(map(tuple, exchange._occupation_rows(entry.tables[2][classes], d, n).tolist()))


def _classes(entry, keys: list) -> Sequence[int]:
    """The sector class of each occupation key.

    Every key must be a valid occupation of the entry's table: d integers
    summing to N, obeying the sector's occupation rule; bools or numpy ints
    find the class of the equal ints.  Read from the table's memo, or off
    the table at the keys' sorted index tuples (one _occupation_matrix).
    """
    import identicals.exchange as exchange

    memo = exchange._occupation_memo(entry)
    if memo is not None:
        return _read(memo[1], keys)
    d, n, _ = entry.key
    return entry.tables[0][_sorted_tuple_index(_occupation_matrix(keys, d), n, d)].tolist()


def _term_coordinates(fv: FockVector, entry) -> tuple[np.ndarray, np.ndarray]:
    """Each term's class on the entry's table and its coefficient, in term order.

    The coordinates fv remembers (FockVector._trusted) when their key is the
    table's; otherwise each occupation's class is read by _classes and the
    coefficients are read off terms.  Both give the same bits.
    """
    import numpy as np

    remembered = fv._coordinates
    if remembered is not None and remembered[0] == entry.key:
        return remembered[1], remembered[2]
    keys = list(fv.terms)
    index = np.fromiter(_classes(entry, keys), np.intp, len(keys))
    return index, np.fromiter(fv.terms.values(), complex, len(keys))


def _bin_sums(bins: np.ndarray, amp: np.ndarray, psi: np.ndarray, size: int) -> np.ndarray:
    """The sum of amp * psi over each of size bins, as one complex array.

    One contiguous bincount each for the real and the imaginary part.
    """
    import numpy as np

    # the bits of bincount(bins, w.real) + 1j * bincount(bins, w.imag), w = amp * psi:
    # bincount starts each bin at +0.0, so no sum is -0.0, and that assembly
    # only adds +-0 to the sums; w's parts differ from these weights only in
    # the sign of zero terms, which no bin's sum depends on
    sums = np.empty(size, complex)
    sums.real = np.bincount(bins, amp * psi.real, size)
    sums.imag = np.bincount(bins, amp * psi.imag, size)
    return sums


def occupation_to_labeled(occ: OccupationState, basis: OneParticleBasis) -> LabeledState:
    """The sector basis vector with the given occupations.

    Its class is one lookup in the orbit table's occupation memo (see
    labeled_to_fock), after the width and vacuum checks.  OccupationState
    has refused a float, so none is matched to the class of the equal ints.

    It is built trusted, without a second validation: it is one row of the
    orbit table, a new complex array of d^N amplitudes holding the basis
    amplitudes of one class, so its norm is 1 within rounding.  The class
    exists, since OccupationState has checked signs and Pauli and
    _check_modes the width and the vacuum.
    """
    import numpy as np

    import identicals.exchange as exchange
    import identicals.states as states

    _check_modes(occ.n_modes, occ.total, basis)
    entry = exchange._orbit_entry(basis.dim, occ.total, occ.sector)
    (k,) = _classes(entry, [occ.occupations])
    cls, amp, _ = entry.tables
    return states.LabeledState._trusted(occ.total, basis, np.where(cls == k, amp, 0j))


def labeled_to_fock(state: LabeledState, sector: ExchangeSector) -> FockVector:
    """Expand a sector state over the occupation-number basis.

    Each coefficient is the overlap <b_occ|psi>, summed over the orbit of
    the occupation's index tuples.  The state must be in the sector: P psi,
    each amplitude's basis amplitude times its class's coefficient, is held
    to the rule of exchange.is_in_sector.  Terms with |coefficient| > 1e-12
    are kept, in the order of counting.enumerate_distributions.

    The occupations are read from the orbit table's occupation memo, or
    counted off the table when it keeps none (exchange._occupation_memo);
    either way every key is a tuple of Python ints.  The result remembers
    the kept classes and coefficients, read-only, with the table's key, for
    fock_to_labeled (FockVector._trusted).

    The result is built trusted, without a second validation.  Each
    occupation is a tuple of d Python ints counted from a class of the
    sector, so it is non-negative, sums to N and obeys Pauli in the
    antisymmetric sector.  The coefficients' norm is that of P psi less the
    terms dropped below 1e-12; the membership rule puts it within ~1e-18
    (TAU_SECTOR^2 / 2) of |psi|, and |psi| is within TAU_NORM of 1.  Where
    psi sits at the edge of TAU_NORM and rounding carries the coefficients'
    norm past it, they are divided by that norm, so every result obeys the
    unit-norm rule.
    """
    import numpy as np

    import identicals.exchange as exchange
    import identicals.states as states

    n, d = state.n_slots, state.basis.dim
    entry = exchange._orbit_entry(d, n, sector)
    cls, amp, first = entry.tables
    psi = state.amplitudes
    # class -1 (outside the sector, zero weight) goes to bin 0
    bins = cls + 1
    coeffs = _bin_sums(bins, amp, psi, first.size + 1)
    # P psi: each amplitude's basis amplitude times its class's coefficient
    if not exchange._near_projection(amp * coeffs[bins], psi):
        raise ValueError(f"state is not in the {sector.value} sector")
    coeffs = coeffs[1:]
    (keep,) = np.nonzero(np.abs(coeffs) > 1e-12)
    values = coeffs[keep]
    length = states.norm(values)
    if states.off_unit_norm(length):
        values = values / length
    terms = dict(zip(_class_occupations(entry, keep.tolist()), values.tolist()))
    keep.setflags(write=False)
    values.setflags(write=False)
    return FockVector._trusted(terms, sector, n, (entry.key, keep, values))


def fock_to_labeled(fv: FockVector, basis: OneParticleBasis) -> LabeledState:
    """Inverse of labeled_to_fock.

    After the width and vacuum checks, each term's class and coefficient
    come from _term_coordinates: the coordinates a vector of labeled_to_fock
    remembers, valid for its table's key even after the table has left the
    cache, or else each occupation's class read by _classes and each
    coefficient read off terms, with the same bits.  A caller's vector or a
    pickled copy remembers none.  The amplitudes are each class's
    coefficient times its basis amplitude.  A Fock vector that
    labeled_to_fock made from a state at the edge of the unit-norm rule can
    give amplitudes whose norm, summed over d^N entries instead of over the
    classes, lands just past it; only then are they divided by it, as
    labeled_to_fock divides its coefficients.

    The result is built trusted, without a second validation: its d^N
    amplitudes come from the table, they are finite because FockVector
    checked the coefficients and its terms are read-only, and their norm is
    within TAU_NORM of 1, or 1 within rounding once divided.
    """
    import numpy as np

    import identicals.exchange as exchange
    import identicals.states as states

    n = fv.total_number
    _check_modes(len(next(iter(fv.terms))), n, basis)
    entry = exchange._orbit_entry(basis.dim, n, fv.sector)
    cls, amp, classes = entry.tables
    # one coefficient per class, plus a last 0 that class -1 reads
    coeffs = np.zeros(classes.size + 1, dtype=complex)
    index, values = _term_coordinates(fv, entry)
    coeffs[index] = values
    amps = coeffs[cls] * amp
    length = states.norm(amps)
    if states.off_unit_norm(length):
        amps = amps / length
    return states.LabeledState._trusted(n, basis, amps)


def replace_indistinguishable(occ: OccupationState, mode: int) -> OccupationState:
    """Remove one unit from a mode (1-based), then put one of the same kind back.

    The result is identical to the input: replacing an excitation by an
    indistinguishable one changes nothing at the occupation level.
    """
    if not 1 <= mode <= occ.n_modes:
        raise ValueError(f"mode {mode} out of range 1..{occ.n_modes}")
    if occ.occupations[mode - 1] < 1:
        raise ValueError(f"mode {mode} is empty; nothing to remove")
    lowered = list(occ.occupations)
    lowered[mode - 1] -= 1
    raised = list(lowered)
    raised[mode - 1] += 1
    return OccupationState(tuple(raised), occ.sector)
