"""Exact counting of energy-distribution configurations, and the occupation level.

Everything here is exact integer combinatorics: how many ways P quanta can
sit on N resonators, the symbol strings that realize the stars-and-bars
argument literally, and the Boltzmann / Bose-Einstein / Fermi-Dirac
microstate counts for n particles on d modes.  The exchange sectors are
named here too, with the statistics of each, so that occupation-level code
needs no linear algebra; so is the closed form of each sector basis vector
over the index tuples of its occupation (basis_rows), from which the CLI
writes a basis without numpy, and the package's one rule for the parity of
a permutation (parity).

The occupation level, the label-free half of the package, is here too.  An
OccupationState holds per-mode occupation numbers, which play the role of
quasi-cardinals.  The symbol grammar is `f_{` (token)* `}` with token =
`e<positive integer>` (the Unicode epsilon form is accepted on input).
occupation_report is what emergence.detect_emergent_particles reports on an
occupation state, in closed form: its 1-RDM is diag(n_m / N), so its
natural orbitals are its modes, its natural spectrum is its occupations
over N, and the state is itself the (anti)symmetrized product of its
occupied modes, fidelity 1.  `fock` (the bridge to labeled states) and
`emergence` (the detector) bind these names too.

The module imports neither numpy nor dataclasses, so `identicals count`,
`basis` and a symbol `analyze` run on the standard library's lightest
modules.  Only it and `errors` are numpy-free: states, exchange, fock,
emergence and interferometer import numpy at the top.  It also holds the
package's one frozen-value base, _Value: every value class of the package
(CountingProblem, SymbolString, OccupationState and EmergenceReport here,
and those of states, fock and interferometer) is written on it rather than
declared with @dataclass(frozen=True).  Importing dataclasses imports
inspect, ast, dis and tokenize, about a tenth of what a small `count` or
symbol `analyze` process spends, and each @dataclass generates its
methods' code at import.  The values keep a frozen dataclass's
constructor, equality, hash, repr, pattern matching and pickling;
assigning or deleting a field raises AttributeError.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import re
import struct
from collections.abc import Iterator

from .errors import VACUUM, CapExceeded, check_dense_dim, check_report_size

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


#: sets a field of a frozen value, past its __setattr__
_set = object.__setattr__


class _Value:
    """A frozen value: fields named by __match_args__, kept in __slots__, read by _fields().

    What @dataclass(frozen=True) gives, written out: a value equals only a
    value of its own class with equal fields, hashes as its field tuple, and
    prints as Class(field=value, ...).  Assignment and deletion raise
    AttributeError; pickle, copy and __replace__ (copy.replace from Python
    3.13) rebuild a value through its constructor.  A subclass names its
    fields once, in __match_args__: the getter of its field tuple is built
    from those names when the class is made, so no subclass writes
    _fields.  Its __init__ checks its arguments and sets each field with
    _set.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__
        get = operator.attrgetter(*names)
        # attrgetter of one name gives the value itself, not a 1-tuple
        cls._get_fields = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def _fields(self) -> tuple:
        return self._get_fields(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __replace__(self, **changes):
        return type(self)(**dict(zip(self.__match_args__, self._fields()), **changes))


class CountingProblem(_Value):
    """Distribute n_quanta indivisible energy units over n_resonators."""

    __slots__ = __match_args__ = ("n_resonators", "n_quanta")
    n_resonators: int
    n_quanta: int

    def __init__(self, n_resonators: int, n_quanta: int):
        if n_resonators < 1:
            raise ValueError("need at least one resonator")
        if n_quanta < 0:
            raise ValueError("quantum count must be non-negative")
        _set(self, "n_resonators", n_resonators)
        _set(self, "n_quanta", n_quanta)


class Mark(enum.IntEnum):
    SEPARATOR = 0
    QUANTUM = 1


_MARK_TEXT = bytes.maketrans(bytes([Mark.SEPARATOR, Mark.QUANTUM]), b"oe")
_TEXT_MARK = {"o": Mark.SEPARATOR, "e": Mark.QUANTUM}


class SymbolString(_Value):
    """A distribution symbol: P quantum marks split into N bins by N-1 separators."""

    __slots__ = __match_args__ = ("marks",)
    marks: tuple[Mark, ...]

    def __init__(self, marks: tuple[Mark, ...]):
        _set(self, "marks", marks)

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


def parity(mapping: tuple[int, ...]) -> int:
    """+1 or -1 as the sequence of distinct values has an even or odd number of inversions.

    For a permutation tuple (the images of 0, ..., n-1) that is its sign.
    """
    inversions = sum(a > b for a, b in itertools.combinations(mapping, 2))
    return -1 if inversions % 2 else 1


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
        signs = [parity(p) * amp for p in itertools.permutations(range(n))]
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


# the occupation level: occupation states, their symbols and their closed-form report
_SYMBOL_RE = re.compile(r"^f_\{((?:e[0-9]+)*)\}$")
_TOKEN_RE = re.compile(r"e([0-9]+)")
_SUBSCRIPT_DIGITS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")
_NEGATIVE = "occupations must be non-negative"
_PAULI = "antisymmetric occupations cannot exceed 1"


class OccupationState(_Value):
    """Per-mode occupation numbers, a tuple of 64-bit integers, in a fixed exchange sector."""

    __slots__ = __match_args__ = ("occupations", "sector")
    occupations: tuple[int, ...]
    sector: ExchangeSector

    def __init__(self, occupations: tuple[int, ...], sector: ExchangeSector):
        occupations = tuple(occupations)
        _pack_occupations([occupations], len(occupations))
        if any(n < 0 for n in occupations):
            raise ValueError(_NEGATIVE)
        if sector is ExchangeSector.ANTISYMMETRIC and any(n > 1 for n in occupations):
            raise ValueError(_PAULI)
        _set(self, "occupations", occupations)
        _set(self, "sector", sector)

    @property
    def total(self) -> int:
        return sum(self.occupations)

    @property
    def n_modes(self) -> int:
        return len(self.occupations)


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


class Verdict(enum.Enum):
    PARTICLE_DECOMPOSITION = "PARTICLE_DECOMPOSITION"
    CONDENSED_OBJECT = "CONDENSED_OBJECT"
    NO_PARTICLE_DECOMPOSITION = "NO_PARTICLE_DECOMPOSITION"


class EmergenceReport(_Value):
    """A verdict, the defining one-particle states with their occupations, and evidence.

    A defining state is a vector over the modes, or, in occupation_report,
    the 0-based index m of the mode's unit vector e_m.  A list left out is a
    new empty list.
    """

    __slots__ = __match_args__ = ("verdict", "defining_states", "fidelity", "natural_spectrum")
    verdict: Verdict
    defining_states: list[tuple[object, int]]
    fidelity: float
    natural_spectrum: list[float]

    def __init__(
        self,
        verdict: Verdict,
        defining_states: list[tuple[object, int]] = list,
        fidelity: float = 0.0,
        natural_spectrum: list[float] = list,
    ):
        _set(self, "verdict", verdict)
        _set(self, "defining_states", [] if defining_states is list else defining_states)
        _set(self, "fidelity", fidelity)
        _set(self, "natural_spectrum", [] if natural_spectrum is list else natural_spectrum)


def _decomposed(occupations) -> Verdict:
    """The verdict on a state that is the product of orbitals with these occupations."""
    if all(n_i <= 1 for n_i in occupations):
        return Verdict.PARTICLE_DECOMPOSITION
    return Verdict.CONDENSED_OBJECT


def occupation_report(occ: OccupationState) -> EmergenceReport:
    """The report of detect_emergent_particles on an occupation state, in closed form.

    The defining states are the occupied modes m, ordered by (-n_m, m); the
    natural spectrum is n_m / N in that order, then a 0 per empty mode; the
    fidelity is exactly 1.  No labeled state is built.
    """
    n = occ.total
    if n == 0:
        raise ValueError(VACUUM)
    occupied = sorted(
        ((m, n_m) for m, n_m in enumerate(occ.occupations) if n_m), key=lambda t: -t[1]
    )
    spectrum = [n_m / n for _, n_m in occupied]
    spectrum += [0.0] * (occ.n_modes - len(occupied))
    return EmergenceReport(
        _decomposed(n_m for _, n_m in occupied), occupied, 1.0, spectrum
    )
