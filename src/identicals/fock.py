"""The label-free formalism: occupation-number states and their symbols.

Occupation vectors play the role of quasi-cardinals; the symbol grammar is
`f_{` (token)* `}` with token = `e<positive integer>` (the Unicode epsilon
form is accepted on input).  The maps to and from labeled sector states are
isometries onto the symmetric/antisymmetric sector bases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import counting, exchange
from .exchange import ExchangeSector
from .states import LabeledState, OneParticleBasis

_SYMBOL_RE = re.compile(r"^f_\{((?:e[0-9]+)*)\}$")
_TOKEN_RE = re.compile(r"e([0-9]+)")
_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")


@dataclass(frozen=True)
class OccupationState:
    """Per-mode occupation numbers in a fixed exchange sector."""

    occupations: tuple[int, ...]
    sector: ExchangeSector

    def __post_init__(self):
        if any(n < 0 for n in self.occupations):
            raise ValueError("occupations must be non-negative")
        if self.sector is ExchangeSector.ANTISYMMETRIC and any(
            n > 1 for n in self.occupations
        ):
            raise ValueError("antisymmetric occupations cannot exceed 1")

    @property
    def total(self) -> int:
        return sum(self.occupations)

    @property
    def n_modes(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class FockVector:
    """Superposition of occupation states with a common sector and total number."""

    terms: dict[tuple[int, ...], complex]
    sector: ExchangeSector
    total_number: int

    def __post_init__(self):
        for occ, _ in self.terms.items():
            if sum(occ) != self.total_number:
                raise ValueError(f"occupation {occ} breaks the total number {self.total_number}")
            OccupationState(occ, self.sector)  # validates sector constraint
        norm = np.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"Fock vector norm {norm} deviates from 1")


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


def _first_index(occupations: tuple[int, ...], basis: OneParticleBasis) -> int:
    """Flat index of the mode-ascending index tuple with these occupations."""
    if len(occupations) != basis.dim:
        raise ValueError(f"occupation has {len(occupations)} modes, basis has {basis.dim}")
    n = sum(occupations)
    if n == 0:
        raise ValueError("cannot build a labeled state for the vacuum")
    modes = [i for i, n_i in enumerate(occupations) for _ in range(n_i)]
    return int(np.ravel_multi_index(modes, (basis.dim,) * n))


def occupation_to_labeled(occ: OccupationState, basis: OneParticleBasis) -> LabeledState:
    """The sector basis vector with the given occupations."""
    first = _first_index(occ.occupations, basis)
    cls, amp = exchange.orbit_table(basis.dim, occ.total, occ.sector)
    return LabeledState(occ.total, basis, np.where(cls == cls[first], amp, 0.0))


def labeled_to_fock(state: LabeledState, sector: ExchangeSector) -> FockVector:
    """Expand a sector state over the occupation-number basis.

    Each coefficient is the overlap <b_occ|psi>, summed over the orbit of
    the occupation's index tuples.
    """
    if not exchange.is_in_sector(state, sector):
        raise ValueError(f"state is not in the {sector.value} sector")
    n = state.n_slots
    occs = counting.enumerate_distributions(sector.statistics, n, state.basis.dim)
    cls, amp = exchange.orbit_table(state.basis.dim, n, sector)
    weights = amp * state.amplitudes
    # class -1 (outside the sector, zero weight) goes to bin 0 and is dropped
    bins = cls + 1
    size = len(occs) + 1
    coeffs = (
        np.bincount(bins, weights.real, size)[1:]
        + 1j * np.bincount(bins, weights.imag, size)[1:]
    )
    terms = {occ: complex(c) for occ, c in zip(occs, coeffs) if abs(c) > 1e-12}
    return FockVector(terms, sector, n)


def fock_to_labeled(fv: FockVector, basis: OneParticleBasis) -> LabeledState:
    """Inverse of labeled_to_fock."""
    firsts = [_first_index(occ, basis) for occ in fv.terms]
    cls, amp = exchange.orbit_table(basis.dim, fv.total_number, fv.sector)
    # one coefficient per class, plus a last 0 that class -1 reads
    coeffs = np.zeros(cls.max() + 2, dtype=complex)
    coeffs[cls[firsts]] = list(fv.terms.values())
    return LabeledState(fv.total_number, basis, coeffs[cls] * amp)


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
