"""Exact counting of energy-distribution configurations.

Everything here is exact integer combinatorics: how many ways P quanta can
sit on N resonators, the symbol strings that realize the stars-and-bars
argument literally, and the Boltzmann / Bose-Einstein / Fermi-Dirac
microstate counts for n particles on d modes.  The exchange sectors are
named here too, with the statistics of each, so that occupation-level code
needs no linear algebra; so is the closed form of each sector basis vector
over the index tuples of its occupation (basis_rows), from which the CLI
writes a basis without numpy.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import CapExceeded, check_dense_dim, check_report_size

DEFAULT_ENUMERATION_CAP = 10 ** 6


def enumeration_characters(
    problem: CountingProblem, fmt: str | None = None, framing: int = 0, head: int = 0
) -> int:
    """Estimated characters of the W symbols of a Planck enumeration.

    Each symbol text has N - 1 + P marks.  A `count` report in format `fmt`
    adds the N energies of each symbol, each at most digits(P) digits and a
    separator ("csv": ';' or ',') or the separator and indent of
    json.dumps(indent=2) (ten characters).  `framing` is what the report
    spends on each symbol besides; it is counted W + 1 times, the last for
    the report's tail.  `head` is what the report spends once, before its
    symbols, beyond that last framing.
    """
    w = planck_count(problem)
    k, p = problem.n_resonators, problem.n_quanta
    size = w * (k - 1 + p) + (w + 1) * framing + head
    if fmt is not None:
        size += w * k * (len(str(p)) + (1 if fmt == "csv" else 10))
    return size


@dataclass(frozen=True)
class CountingProblem:
    """Distribute n_quanta indivisible energy units over n_resonators."""

    n_resonators: int
    n_quanta: int

    def __post_init__(self):
        if self.n_resonators < 1:
            raise ValueError("need at least one resonator")
        if self.n_quanta < 0:
            raise ValueError("quantum count must be non-negative")


class Mark(enum.IntEnum):
    SEPARATOR = 0
    QUANTUM = 1


_MARK_TEXT = bytes.maketrans(bytes([Mark.SEPARATOR, Mark.QUANTUM]), b"oe")
_TEXT_MARK = {"o": Mark.SEPARATOR, "e": Mark.QUANTUM}


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


class ExchangeSector(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"

    @property
    def statistics(self) -> StatisticsKind:
        """The occupation statistics of the sector: Bose-Einstein or Fermi-Dirac."""
        if self is ExchangeSector.SYMMETRIC:
            return StatisticsKind.BOSE_EINSTEIN
        return StatisticsKind.FERMI_DIRAC


def planck_count(problem: CountingProblem) -> int:
    """(N-1+P)! / ((N-1)! P!), exactly."""
    return math.comb(problem.n_resonators - 1 + problem.n_quanta, problem.n_quanta)


def symbol_blocks(
    problem: CountingProblem, fmt: str | None = None, framing: int = 0, head: int = 0
) -> list[tuple[str, str, list[str], list[str]]]:
    """Every symbol's text ('ooee') and energies text ('0;0;2'), in enumerate_symbols order.

    The symbols come in blocks that share a left half: block (head,
    energies_head, texts, energies) holds the symbols head + texts[i] with
    energies energies_head + energies[i].  The blocks hold no text per
    symbol, so a caller formats each block with one template; the memo of
    half-enumerations behind them is dropped when the call returns.  Both caps
    are checked before anything is built: at most DEFAULT_ENUMERATION_CAP
    symbols, and the report cap (errors.check_report_size) for
    enumeration_characters(problem, fmt, framing, head), the estimated characters
    of the symbols, or of a `count` report in format `fmt`.
    """
    w = planck_count(problem)
    if w > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(f"{w} symbols exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    k, p = problem.n_resonators, problem.n_quanta
    check_report_size(
        enumeration_characters(problem, fmt, framing, head),
        f"the enumeration of {w} symbols of {k} resonators and {p} quanta",
    )
    if p == 0 or k <= 2:
        return [("", "", *_symbol_texts(k, p, {}))]
    return list(_halves(k, p, {}))


def _halves(k: int, p: int, memo: dict) -> Iterator[tuple[str, str, list[str], list[str]]]:
    """The symbols of k >= 3 resonators holding p quanta, one block per left half.

    The symbols are in ascending lexicographic order of their energies: where
    two symbols first differ, the one with fewer quanta in that resonator
    holds a separator, and o < e.  The left half is the first k // 2
    resonators plus one slack resonator: its symbols, k // 2 + 1 resonators
    holding p quanta, list every left half in order, once each, and the slack
    holds the s quanta left for the right half.  Each left row, cut after its
    last separator, heads the block of every symbol of the other k - k // 2
    resonators holding s quanta.
    """
    half = k // 2
    for left, left_energies in zip(*_symbol_texts(half + 1, p, memo)):
        cut = left.rindex("o") + 1
        yield (
            left[:cut],
            left_energies[: left_energies.rindex(";") + 1],
            *_symbol_texts(k - half, len(left) - cut, memo),
        )


def _symbol_texts(k: int, p: int, memo: dict) -> tuple[list[str], list[str]]:
    """Texts and energies texts of k resonators holding p quanta, in symbol order.

    Built from _halves with one concatenation per text and one per energies;
    `memo`, keyed by (resonators, quanta), builds each half once per call,
    so the depth is O(log k) and the work is O(output).
    """
    rows = memo.get((k, p))
    if rows is not None:
        return rows
    if p == 0:
        rows = ["o" * (k - 1)], ["0;" * (k - 1) + "0"]
    elif k == 1:
        rows = ["e" * p], [str(p)]
    elif k == 2:
        rows = (
            ["e" * i + "o" + "e" * (p - i) for i in range(p + 1)],
            [f"{i};{p - i}" for i in range(p + 1)],
        )
    else:
        texts: list[str] = []
        energies: list[str] = []
        for head, energies_head, right, right_energies in _halves(k, p, memo):
            texts += [head + text for text in right]
            energies += [energies_head + text for text in right_energies]
        rows = texts, energies
    memo[k, p] = rows
    return rows


def _texts(blocks: list[tuple[str, str, list[str], list[str]]]) -> Iterator[str]:
    for head, _, texts, _ in blocks:
        for text in texts:
            yield head + text


def enumerate_symbols(problem: CountingProblem) -> list[SymbolString]:
    """All distinct symbols, in lexicographic order with SEPARATOR < QUANTUM."""
    return [
        SymbolString(tuple(map(_TEXT_MARK.__getitem__, text)))
        for text in _texts(symbol_blocks(problem))
    ]


def _check_sizes(n_particles: int, n_modes: int):
    if n_particles < 0:
        raise ValueError("particle number must be non-negative")
    if n_modes < 1:
        raise ValueError("need at least one mode")


def count_microstates(kind: StatisticsKind, n_particles: int, n_modes: int) -> int:
    """Number of distinct configurations of n particles on d modes, exactly."""
    _check_sizes(n_particles, n_modes)
    n, d = n_particles, n_modes
    if kind is StatisticsKind.BOLTZMANN:
        return d ** n
    if kind is StatisticsKind.BOSE_EINSTEIN:
        return math.comb(d + n - 1, n)
    return math.comb(d, n)  # 0 when n > d


def count_log10(kind: StatisticsKind, n_particles: int, n_modes: int) -> float:
    """log10 of count_microstates(kind, n, d), estimated without computing the count.

    Off by well under one digit wherever the count has fewer than ~10^6
    digits; -inf for a count of 0, inf beyond the float range.  The Planck
    count W(N, P) is count_log10(BOSE_EINSTEIN, P, N).
    """
    _check_sizes(n_particles, n_modes)
    n, d = n_particles, n_modes
    try:
        if kind is StatisticsKind.BOLTZMANN:
            return n * math.log10(d)
        if kind is StatisticsKind.BOSE_EINSTEIN:
            return _log10_comb(d + n - 1, n)
        return _log10_comb(d, n) if n <= d else -math.inf
    except OverflowError:
        return math.inf


def _log10_comb(a: int, b: int) -> float:
    k = min(b, a - b)
    if k * k < a:
        # lgamma(a + 1) - lgamma(a - k + 1) cancels badly for a >> k; the sum
        # of ln(a - i), i < k, is k ln(a - (k - 1) / 2) to within k^3 / 6a^2
        ln = k * (math.log(2 * a - k + 1) - math.log(2)) - math.lgamma(k + 1)
    else:
        ln = math.lgamma(a + 1) - math.lgamma(k + 1) - math.lgamma(a - k + 1)
    return ln / math.log(10)


def _occupation(modes: tuple[int, ...], d: int) -> tuple[int, ...]:
    # occupation vector of an index tuple: how many slots hold each mode
    occ = [0] * d
    for m in modes:
        occ[m] += 1
    return tuple(occ)


def enumerate_distributions(kind: StatisticsKind, n: int, d: int) -> list[tuple[int, ...]]:
    """All configurations: occupation vectors (BE/FD) or slot assignments (Boltzmann)."""
    total = count_microstates(kind, n, d)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(
            f"{total} configurations exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    if total == 0:
        return []  # more fermions than modes: combinations would first fill n indices
    if kind is StatisticsKind.BOLTZMANN:
        return list(itertools.product(range(d), repeat=n))
    # ascending index tuples in lexicographic order give the occupation
    # vectors in descending lexicographic order
    if kind is StatisticsKind.BOSE_EINSTEIN:
        tuples = itertools.combinations_with_replacement(range(d), n)
    else:
        tuples = itertools.combinations(range(d), n)
    return [_occupation(modes, d) for modes in tuples]


def basis_rows(sector: ExchangeSector, n: int, d: int) -> list[list[tuple[int, float]]]:
    """The nonzero (flat index, amplitude) pairs of each sector basis vector, without numpy.

    Row k belongs to occupation k of enumerate_distributions(sector.statistics,
    n, d) and lists, in ascending flat index, every index tuple of n slots over
    d modes that sorts to that occupation's ascending tuple; in the
    antisymmetric sector a tuple with a repeated mode lies in no row.  The
    amplitudes are the closed forms of exchange.orbit_table with the same float
    operations, so each has its bits: sqrt(weight / n!), weight the running
    float product of the sorted tuple's run lengths (symmetric), or the
    parity of the tuple's inversions times 1 / sqrt(n!) (antisymmetric).
    Symmetric rows come from one pass over the d^n index tuples, each sorted
    and looked up by its sorted tuple.  An antisymmetric row lists the
    permutations of its ascending tuple, which come in lexicographic order,
    that is in ascending flat index, and which are its only members; no tuple
    with a repeated mode is visited.  Empty for more fermions than modes,
    before any size is computed; otherwise n and d^n must pass
    errors.check_dense_dim.
    """
    if sector is ExchangeSector.ANTISYMMETRIC and n > d:
        return []
    check_dense_dim(d, n)
    if sector is ExchangeSector.ANTISYMMETRIC:
        amp = 1.0 / math.sqrt(math.factorial(n))
        # permutations of any n distinct items come in the order of those of
        # range(n), so the sign of each is that of its inversion parity
        signs = [
            -amp if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else amp
            for p in itertools.permutations(range(n))
        ]
        strides = [d ** (n - 1 - slot) for slot in range(n)]
        return [
            [
                (sum(map(operator.mul, modes, strides)), sign)
                for modes, sign in zip(itertools.permutations(ascending), signs)
            ]
            for ascending in itertools.combinations(range(d), n)
        ]
    classes = {
        modes: k
        for k, modes in enumerate(itertools.combinations_with_replacement(range(d), n))
    }
    rows: list[list[tuple[int, float]]] = [[] for _ in classes]
    amps = [_symmetric_amplitude(modes, n) for modes in classes]
    for flat, modes in enumerate(itertools.product(range(d), repeat=n)):
        k = classes[tuple(sorted(modes))]
        rows[k].append((flat, amps[k]))
    return rows


def _symmetric_amplitude(modes: tuple[int, ...], n: int) -> float:
    """sqrt(prod n_m! / n!) of an ascending index tuple, as exchange._build_orbit_table rounds it."""
    run = weight = 1.0
    for a, b in zip(modes, modes[1:]):
        run = run + 1 if a == b else 1.0
        weight *= run
    return math.sqrt(weight / math.factorial(n))


def entropy(count: int, k: float = 1.0) -> float:
    """S = k ln(count); count = 0 signals an impossible configuration.

    A product k ln(count) past the float range is a ValueError, not +-inf.
    """
    if count < 1:
        raise ValueError(f"entropy undefined for count {count}")
    ln_w = math.log(count)
    s = k * ln_w
    if not math.isfinite(s):
        raise ValueError(f"entropy S = k ln W is not finite for k = {k!r}, ln W = {ln_w!r}")
    return s
