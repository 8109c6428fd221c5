"""The Fock bridge: occupation-number states to and from labeled sector states.

The occupation level itself (OccupationState, the symbol grammar and
replace_indistinguishable) is numpy-free and lives in `counting`; this
module binds those names too.  The maps to and from labeled sector states
are isometries onto the symmetric/antisymmetric sector bases.  Both
directions work on the orbit table of exchange.orbit_table.  FockVector
validates a Fock vector's occupations as one integer matrix (one row per
term), read in one call, never one occupation at a time.  Sector
membership also comes from the table: labeled_to_fock spreads its Fock
coefficients back over it, P psi = amp * c, and applies the membership
rule of exchange.is_in_sector to that, so the bridge runs no coset
projector.  The table of each (d, N, sector) is built once and then
shared, read-only, by every call of either direction and by
occupation_to_labeled.

A FockVector is held as read-only arrays beside its fields: its mode count,
its coefficients, and each term's occupation either as an int64 row or as
the flat index of its sorted index tuple, which is where the term's class
sits in the table.  labeled_to_fock keeps the indices it found, and
fock_to_labeled reads each class at an index, so a round trip builds no
tuple.  The occupation rows, and the public terms mapping of Python int
tuples, are derived from the indices the first time they are read, and a
caller's vector gets its indices from its rows the same way (see
FockVector.__getattr__).  ==, repr and pickling read terms, so they behave
as on any vector the constructor built.

What the bridge builds is not validated a second time.  Its results come
from classes of the orbit table, or from a caller's Fock vector that
FockVector has validated, so they hold the invariants that FockVector and
LabeledState check.  They are built by the private _trusted constructors,
which check nothing, and each of the three functions says why its result
is valid.  A caller's FockVector or LabeledState is always validated.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import exchange, states
from .counting import (
    _NEGATIVE,
    _PAULI,
    ExchangeSector,
    OccupationState,
    _pack_occupations,
    _set,
    _Value,
    format_symbol,
    parse_symbol,
    replace_indistinguishable,
    symbol_modes,
)
from .errors import VACUUM


class FockVector(_Value):
    """Superposition of occupation states with a common sector and total number.

    All occupations have the same number of modes and hold integers (see
    _occupation_matrix); the first occupation that does not raises first.
    Then a term that breaks the total number or the sector's occupation rule
    raises the error of the first such term, checked in that order.  terms
    is kept as a read-only view of a copy of the mapping given.

    The vector is also held as read-only arrays, which are no fields: _modes,
    the mode count; _values, the coefficients in term order; and each term's
    occupation as _occ, one int64 row per term, or as _flat, the flat index
    of its mode-ascending index tuple in d^N amplitudes.  __getattr__ derives
    whichever of _occ, _flat, _values and terms a vector lacks on its first
    read and keeps it: the constructor keeps terms and _occ, labeled_to_fock
    _flat and _values (see _trusted).  So a vector has no __slots__: it keeps
    its fields and these forms in its instance dict.
    """
    __match_args__ = ("terms", "sector", "total_number")
    terms: Mapping[tuple[int, ...], complex]
    sector: ExchangeSector
    total_number: int

    def __init__(
        self, terms: Mapping[tuple[int, ...], complex], sector: ExchangeSector, total_number: int
    ):
        vars(self).update(terms=terms, sector=sector, total_number=total_number)
        self.__post_init__()

    def __post_init__(self):
        _set(self, "terms", MappingProxyType(dict(self.terms)))
        keys = list(self.terms)
        widths = set(map(len, keys))
        if len(widths) > 1:
            raise ValueError(f"occupations have different mode counts {sorted(widths)}")
        width = max(widths, default=0)
        occ = _occupation_matrix(keys, width)
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
        vars(self).update(_modes=width, _occ=occ)

    def __getattr__(self, name: str):
        # reached only for an attribute the vector does not hold: derive a form once
        if name == "terms":
            # tolist gives Python ints and complexes, so every key is a tuple of ints
            value = MappingProxyType(dict(zip(map(tuple, self._occ.tolist()), self._values.tolist())))
        else:
            if name == "_occ":
                value = exchange._occupation_rows(self._flat, self._modes, self.total_number)
            elif name == "_flat":
                value = _sorted_tuple_index(self._occ, self.total_number, self._modes)
            elif name == "_values":
                value = np.fromiter(self.terms.values(), complex, len(self.terms))
            else:
                raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
            value.setflags(write=False)
        # the first value kept wins, so threads that race here all read one object
        return vars(self).setdefault(name, value)

    def __reduce__(self):
        # a mapping proxy cannot be pickled; rebuild through the validating constructor
        return type(self), (dict(self.terms), self.sector, self.total_number)

    @classmethod
    def _trusted(
        cls,
        flat: np.ndarray,
        values: np.ndarray,
        modes: int,
        sector: ExchangeSector,
        total_number: int,
    ) -> "FockVector":
        """A Fock vector from terms the package built valid; checks nothing.

        flat holds each term's flat index of its mode-ascending index tuple
        in modes^total_number amplitudes, and values its coefficient, as
        read-only arrays in term order.  Each index must be the sorted tuple
        of an occupation that is valid in the sector, no two alike, and the
        coefficients' norm must obey states.off_unit_norm: what __post_init__
        checks, the only place the checks are made.  Only a function that
        builds the terms valid by construction calls this, and its docstring
        says why (tests/test_trusted.py holds the list).  The occupations and
        terms are derived from the arrays on first read (see __getattr__).
        """
        fv = object.__new__(cls)
        vars(fv).update(
            sector=sector, total_number=total_number, _modes=modes, _flat=flat, _values=values
        )
        return fv


def _occupation_matrix(keys: list, width: int) -> np.ndarray:
    """The occupation keys as one int64 matrix, one row per key (see _pack_occupations)."""

    return np.frombuffer(_pack_occupations(keys, width), np.int64).reshape(len(keys), width)


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
    mode_of_entry = np.tile(np.arange(d), len(occ))
    modes = np.repeat(mode_of_entry, occ.ravel()).reshape(len(occ), n)
    return np.ravel_multi_index(tuple(modes.T), (d,) * n)


def _bin_sums(bins: np.ndarray, amp: np.ndarray, psi: np.ndarray, size: int) -> np.ndarray:
    """The sum of amp * psi over each of size bins, as one complex array.

    One contiguous bincount each for the real and the imaginary part.
    """
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

    After the width and vacuum checks, its class is read off the orbit table
    at the flat index of its mode-ascending index tuple (_sorted_tuple_index
    of its _occupation_matrix row).  OccupationState has refused a float,
    and bools or numpy ints find the class of the equal ints.

    It is built trusted, without a second validation: it is one row of the
    orbit table, a new complex array of d^N amplitudes holding the basis
    amplitudes of one class, so its norm is 1 within rounding.  The class
    exists, since OccupationState has checked signs and Pauli and
    _check_modes the width and the vacuum.
    """
    n, d = occ.total, basis.dim
    _check_modes(occ.n_modes, n, basis)
    cls, amp, _ = exchange.orbit_table(d, n, occ.sector)
    (k,) = cls[_sorted_tuple_index(_occupation_matrix([occ.occupations], d), n, d)]
    return states.LabeledState._trusted(n, basis, np.where(cls == k, amp, 0j))


def labeled_to_fock(state: LabeledState, sector: ExchangeSector) -> FockVector:
    """Expand a sector state over the occupation-number basis.

    Each coefficient is the overlap <b_occ|psi>, summed over the orbit of
    the occupation's index tuples.  The state must be in the sector: P psi,
    each amplitude's basis amplitude times its class's coefficient, is held
    to the rule of exchange.is_in_sector.  Terms with |coefficient| > 1e-12
    are kept, in the order of counting.enumerate_distributions.

    The result holds each kept class's first[k], the flat index of its
    sorted index tuple, and its coefficient, as read-only arrays; no tuple
    is built.  Its occupations and terms are counted off those indices when
    first read (FockVector.__getattr__), every key a tuple of Python ints.

    The result is built trusted, without a second validation.  Each index
    is the sorted tuple of a distinct class of the sector, whose occupation
    is non-negative, sums to N and obeys Pauli in the antisymmetric sector.
    The coefficients' norm is that of P psi less the terms dropped below
    1e-12; the membership rule puts it within ~1e-18 (TAU_SECTOR^2 / 2) of
    |psi|, and |psi| is within TAU_NORM of 1.  Where psi sits at the edge of
    TAU_NORM and rounding carries the coefficients' norm past it, they are
    divided by that norm, so every result obeys the unit-norm rule.
    """
    n, d = state.n_slots, state.basis.dim
    cls, amp, first = exchange.orbit_table(d, n, sector)
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
    flat = first[keep]
    flat.setflags(write=False)
    values.setflags(write=False)
    return FockVector._trusted(flat, values, d, sector, n)


def fock_to_labeled(fv: FockVector, basis: OneParticleBasis) -> LabeledState:
    """Inverse of labeled_to_fock.

    After the width and vacuum checks, each term's class is read off the
    orbit table at its flat index (fv._flat: kept by labeled_to_fock, or
    derived from the occupation rows of a caller's vector), so neither
    direction builds a tuple.  A class depends on d and N alone, so an index
    stays valid whatever the cache holds.  The amplitudes are each class's
    coefficient times its basis amplitude.  A Fock vector that
    labeled_to_fock made from a state at the edge of the unit-norm rule can
    give amplitudes whose norm, summed over d^N entries instead of over the
    classes, lands just past it; only then are they divided by it, as
    labeled_to_fock divides its coefficients.

    The result is built trusted, without a second validation: its d^N
    amplitudes come from the table, they are finite because FockVector
    checked the coefficients and its arrays are read-only, and their norm is
    within TAU_NORM of 1, or 1 within rounding once divided.
    """
    n = fv.total_number
    _check_modes(fv._modes, n, basis)
    cls, amp, classes = exchange.orbit_table(basis.dim, n, fv.sector)
    # one coefficient per class, plus a last 0 that class -1 reads
    coeffs = np.zeros(classes.size + 1, dtype=complex)
    coeffs[cls[fv._flat]] = fv._values
    amps = coeffs[cls] * amp
    length = states.norm(amps)
    if states.off_unit_norm(length):
        amps = amps / length
    return states.LabeledState._trusted(n, basis, amps)
