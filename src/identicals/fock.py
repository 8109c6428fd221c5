"""The label-free formalism: occupation-number states and their symbols.

Occupation vectors play the role of quasi-cardinals; the symbol grammar is
`f_{` (token)* `}` with token = `e<positive integer>` (the Unicode epsilon
form is accepted on input).  The maps to and from labeled sector states are
isometries onto the symmetric/antisymmetric sector bases.  Both directions
work on the orbit table of exchange.orbit_table: the occupations of a Fock
vector are one integer matrix (one row per term), read in one call and
validated, indexed and counted as whole arrays, never one occupation at a
time.  Sector membership also comes from the table: labeled_to_fock spreads
its Fock coefficients back over it, P psi = amp * c, and applies the
membership rule of exchange.is_in_sector to that, so the bridge runs no
coset projector.  The table of each (d, N, sector) is built once and then
shared, read-only, by every call of either direction and by
occupation_to_labeled (see exchange.orbit_table for its cache and byte
budget).

Symbols and occupation states need only the standard library: numpy,
`exchange` and `states` are imported inside the functions that use them,
so parsing a symbol (and the CLI's symbol `analyze`) never imports numpy.
Those imports name the package absolutely: a relative import inside a
function resolves the package again on every call, which cost a Fock round
trip about 4%.
"""

from __future__ import annotations

import itertools
import re
import struct
from dataclasses import dataclass

from .counting import ExchangeSector

_SYMBOL_RE = re.compile(r"^f_\{((?:e[0-9]+)*)\}$")
_TOKEN_RE = re.compile(r"e([0-9]+)")
_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")
_NEGATIVE = "occupations must be non-negative"
_PAULI = "antisymmetric occupations cannot exceed 1"
VACUUM = "cannot build a labeled state for the vacuum"


@dataclass(frozen=True)
class OccupationState:
    """Per-mode occupation numbers in a fixed exchange sector."""

    occupations: tuple[int, ...]
    sector: ExchangeSector

    def __post_init__(self):
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
    raises the error of the first such term, checked in that order.
    """

    terms: dict[tuple[int, ...], complex]
    sector: ExchangeSector
    total_number: int

    def __post_init__(self):
        import numpy as np

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
        norm = np.linalg.norm(list(self.terms.values()))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"Fock vector norm {norm} deviates from 1")


def _occupation_matrix(keys: list, width: int) -> np.ndarray:
    """The occupation keys as one int64 matrix, one row per key, read in one call.

    Every entry must be an integer that fits in 64 bits: an int, a bool or
    anything with __index__.  A float is refused even when it is integral,
    since reading it as an integer would truncate 2.5 to 2 without a word.
    ValueError names the first occupation that breaks this.
    """
    import numpy as np

    try:
        packed = struct.pack(f"{len(keys) * width}q", *itertools.chain.from_iterable(keys))
    except struct.error:
        for key in keys:
            try:
                struct.pack(f"{len(key)}q", *key)
            except struct.error:
                raise ValueError(f"occupation {key} must hold 64-bit integers") from None
        raise
    return np.frombuffer(packed, np.int64).reshape(len(keys), width)


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


def _sorted_tuple_index(occ: np.ndarray, n: int, basis: OneParticleBasis) -> np.ndarray:
    """Flat index of the mode-ascending index tuple of each occupation row.

    Every row holds n particles.  Repeating each mode by its occupation lists
    a row's n slots in order: slot s holds the first mode whose running
    occupation exceeds s.
    """
    import numpy as np

    if occ.shape[1] != basis.dim:
        raise ValueError(f"occupation has {occ.shape[1]} modes, basis has {basis.dim}")
    if n == 0:
        raise ValueError(VACUUM)
    mode_of_entry = np.tile(np.arange(basis.dim), len(occ))
    modes = np.repeat(mode_of_entry, occ.ravel()).reshape(len(occ), n)
    return np.ravel_multi_index(tuple(modes.T), (basis.dim,) * n)


def occupation_to_labeled(occ: OccupationState, basis: OneParticleBasis) -> LabeledState:
    """The sector basis vector with the given occupations."""
    import numpy as np

    import identicals.exchange as exchange
    import identicals.states as states

    (first,) = _sorted_tuple_index(np.array([occ.occupations]), occ.total, basis)
    cls, amp, _ = exchange.orbit_table(basis.dim, occ.total, occ.sector)
    return states.LabeledState(occ.total, basis, np.where(cls == cls[first], amp, 0.0))


def labeled_to_fock(state: LabeledState, sector: ExchangeSector) -> FockVector:
    """Expand a sector state over the occupation-number basis.

    Each coefficient is the overlap <b_occ|psi>, summed over the orbit of
    the occupation's index tuples.  The state must be in the sector: P psi,
    each amplitude's basis amplitude times its class's coefficient, is held
    to the rule of exchange.is_in_sector.  Terms with |coefficient| > 1e-12
    are kept, in the order of counting.enumerate_distributions; their
    occupations are counted off the sorted index tuples of the orbit table.
    """
    import numpy as np

    import identicals.exchange as exchange

    n, d = state.n_slots, state.basis.dim
    cls, amp, first = exchange.orbit_table(d, n, sector)
    psi = state.amplitudes
    weights = amp * psi
    # class -1 (outside the sector, zero weight) goes to bin 0
    bins = cls + 1
    size = first.size + 1
    coeffs = np.bincount(bins, weights.real, size) + 1j * np.bincount(bins, weights.imag, size)
    # P psi: each amplitude's basis amplitude times its class's coefficient
    if not exchange._near_projection(amp * coeffs[bins], psi):
        raise ValueError(f"state is not in the {sector.value} sector")
    coeffs = coeffs[1:]
    (keep,) = np.nonzero(np.abs(coeffs) > 1e-12)
    modes = np.stack(np.unravel_index(first[keep], (d,) * n), axis=1)
    # occupation matrix: per kept term, how many of its n slots hold each mode
    cells = modes + d * np.arange(keep.size)[:, None]
    occ = np.bincount(cells.ravel(), minlength=keep.size * d).reshape(keep.size, d)
    terms = dict(zip(map(tuple, occ.tolist()), coeffs[keep].tolist()))
    return FockVector(terms, sector, n)


def fock_to_labeled(fv: FockVector, basis: OneParticleBasis) -> LabeledState:
    """Inverse of labeled_to_fock."""
    import numpy as np

    import identicals.exchange as exchange
    import identicals.states as states

    keys = list(fv.terms)
    occ = _occupation_matrix(keys, len(keys[0]))
    firsts = _sorted_tuple_index(occ, fv.total_number, basis)
    cls, amp, classes = exchange.orbit_table(basis.dim, fv.total_number, fv.sector)
    # one coefficient per class, plus a last 0 that class -1 reads
    coeffs = np.zeros(classes.size + 1, dtype=complex)
    coeffs[cls[firsts]] = list(fv.terms.values())
    return states.LabeledState(fv.total_number, basis, coeffs[cls] * amp)


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
