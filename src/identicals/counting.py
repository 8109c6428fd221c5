"""Exact counting of energy-distribution configurations.

Everything here is exact integer combinatorics: how many ways P quanta can
sit on N resonators, the symbol strings that realize the stars-and-bars
argument literally, and the Boltzmann / Bose-Einstein / Fermi-Dirac
microstate counts for n particles on d modes.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import CapExceeded

DEFAULT_ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class CountingProblem:
    """Distribute n_quanta indivisible energy units over n_resonators."""

    n_resonators: int
    n_quanta: int
    quantum_size: float = 1.0  # epsilon, carried for display only

    def __post_init__(self):
        if self.n_resonators < 1:
            raise ValueError("need at least one resonator")
        if self.n_quanta < 0:
            raise ValueError("quantum count must be non-negative")


class Mark(enum.IntEnum):
    SEPARATOR = 0
    QUANTUM = 1


_MARK_TEXT = bytes.maketrans(bytes([Mark.SEPARATOR, Mark.QUANTUM]), b"oe")


@dataclass(frozen=True)
class SymbolString:
    """A distribution symbol: P quantum marks split into N bins by N-1 separators."""

    marks: tuple[Mark, ...]

    def energies(self) -> tuple[int, ...]:
        """Per-resonator quantum counts, left to right."""
        return tuple(map(len, self.as_text().split("o")))

    def as_text(self) -> str:
        """Compact form: 'e' per quantum, 'o' per separator."""
        return bytes(self.marks).translate(_MARK_TEXT).decode("ascii")

    @classmethod
    def from_energies(cls, energies: tuple[int, ...]) -> "SymbolString":
        marks: list[Mark] = []
        for i, e in enumerate(energies):
            if i > 0:
                marks.append(Mark.SEPARATOR)
            marks.extend([Mark.QUANTUM] * e)
        return cls(tuple(marks))


class StatisticsKind(enum.Enum):
    BOLTZMANN = "boltzmann"
    BOSE_EINSTEIN = "bose_einstein"
    FERMI_DIRAC = "fermi_dirac"


def planck_count(problem: CountingProblem) -> int:
    """(N-1+P)! / ((N-1)! P!), exactly."""
    return math.comb(problem.n_resonators - 1 + problem.n_quanta, problem.n_quanta)


def enumerate_symbols(
    problem: CountingProblem, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[SymbolString]:
    """All distinct symbols, in lexicographic order with SEPARATOR < QUANTUM."""
    total = planck_count(problem)
    if total > cap:
        raise CapExceeded(f"{total} symbols exceed the enumeration cap {cap}")
    length = problem.n_resonators - 1 + problem.n_quanta
    symbols = []
    for quantum_positions in itertools.combinations(range(length), problem.n_quanta):
        marks = [Mark.SEPARATOR] * length
        for pos in quantum_positions:
            marks[pos] = Mark.QUANTUM
        symbols.append(SymbolString(tuple(marks)))
    symbols.sort(key=lambda s: s.marks)
    return symbols


def count_microstates(kind: StatisticsKind, n_particles: int, n_modes: int) -> int:
    """Number of distinct configurations of n particles on d modes, exactly."""
    if n_particles < 0:
        raise ValueError("particle number must be non-negative")
    if n_modes < 1:
        raise ValueError("need at least one mode")
    n, d = n_particles, n_modes
    if kind is StatisticsKind.BOLTZMANN:
        return d ** n
    if kind is StatisticsKind.BOSE_EINSTEIN:
        return math.comb(d + n - 1, n)
    return math.comb(d, n)  # 0 when n > d


def _compositions(n: int, d: int):
    # occupation vectors summing to n, in descending lexicographic order
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def _indicator(modes: tuple[int, ...], d: int) -> tuple[int, ...]:
    # occupation vector with one particle in each listed mode
    occ = [0] * d
    for m in modes:
        occ[m] = 1
    return tuple(occ)


def enumerate_distributions(
    kind: StatisticsKind, n: int, d: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[int, ...]]:
    """All configurations: occupation vectors (BE/FD) or slot assignments (Boltzmann)."""
    total = count_microstates(kind, n, d)
    if total > cap:
        raise CapExceeded(f"{total} configurations exceed the enumeration cap {cap}")
    if kind is StatisticsKind.BOLTZMANN:
        return list(itertools.product(range(d), repeat=n))
    if kind is StatisticsKind.BOSE_EINSTEIN:
        return list(_compositions(n, d))
    return [_indicator(modes, d) for modes in itertools.combinations(range(d), n)]


def entropy(count: int, k: float = 1.0) -> float:
    """S = k ln(count); count = 0 signals an impossible configuration."""
    if count < 1:
        raise ValueError(f"entropy undefined for count {count}")
    return k * math.log(count)
