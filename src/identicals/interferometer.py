"""The two-electron beam-splitter experiment and the two-packet spatial density.

Two fermions with opposite spins enter from spatially separated ports, pass
a 50/50 splitter, and are detected with port- and spin-resolving counters.
The one-particle space is space (x) spin, flattened space-major into four
modes.  The spatial-density half models two one-dimensional wave packets and
their antisymmetrization cross term on a grid.

DensityGrid.to_csv writes every number exactly as Python's '%.12g' does
(correctly rounded binary-to-decimal conversion), but rounds most cells in
numpy.  For 1e-290 <= |v| < 1, with e = floor(log10|v|) and a correctly
rounded power of ten, s = |v| * 10**(11 - e) is within 2**-52 * 10**12
(about 2.3e-4) of the exact scaled value.  Where s lies in
[10**11 + 1, 10**12 - 1) and more than 2**-10 from a rounding tie, rint(s)
is therefore the twelve-digit mantissa '%.12g' prints, e its exponent, and
no rounding can carry.  +-0.0 is written as '0' and '-0'.  Every other cell
(NaN, +-inf, |v| >= 1, |v| < 1e-290, a near-tie, an exponent edge) is
formatted by '%.12g' itself.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import exchange
from .counting import _set, _Value
from .exchange import ExchangeSector
from .states import (
    LabeledState,
    OneParticleBasis,
    apply_one_particle_unitary,
    check_dense_dim,
    check_unitary,
    fix_phase,
    norm,
)

TAU_GRID = 1e-6

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _default_splitter() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


class BeamSplitterScenario(_Value):
    """Port and spin names, and the 2x2 splitter: a new 50/50 one when it is left out."""

    __slots__ = __match_args__ = ("spatial_in", "spatial_out", "spins", "splitter")
    spatial_in: tuple[str, str]
    spatial_out: tuple[str, str]
    spins: tuple[str, str]
    splitter: np.ndarray

    def __init__(
        self,
        spatial_in: tuple[str, str] = ("L", "R"),
        spatial_out: tuple[str, str] = ("L'", "R'"),
        spins: tuple[str, str] = ("up", "down"),
        splitter: np.ndarray = _default_splitter,
    ):
        if splitter is _default_splitter:
            splitter = _default_splitter()
        _set(self, "spatial_in", spatial_in)
        _set(self, "spatial_out", spatial_out)
        _set(self, "spins", spins)
        _set(self, "splitter", check_unitary(splitter, 2))

    def basis_in(self) -> OneParticleBasis:
        return self._basis(self.spatial_in)

    def basis_out(self) -> OneParticleBasis:
        return self._basis(self.spatial_out)

    def _basis(self, spatial: tuple[str, str]) -> OneParticleBasis:
        return OneParticleBasis(
            tuple(f"{p}×{s}" for p in spatial for s in self.spins)
        )


class ExperimentResult(_Value):
    __slots__ = __match_args__ = (
        "joint_probabilities", "p_both_left", "p_both_right", "p_coincidence",
        "conditional_coincidence_spin_state", "correlators",
    )
    joint_probabilities: dict[tuple[tuple[str, str], tuple[str, str]], float]
    p_both_left: float
    p_both_right: float
    p_coincidence: float
    conditional_coincidence_spin_state: np.ndarray
    correlators: dict[str, float]

    def __init__(
        self,
        joint_probabilities: dict[tuple[tuple[str, str], tuple[str, str]], float],
        p_both_left: float,
        p_both_right: float,
        p_coincidence: float,
        conditional_coincidence_spin_state: np.ndarray,
        correlators: dict[str, float],
    ):
        _set(self, "joint_probabilities", joint_probabilities)
        _set(self, "p_both_left", p_both_left)
        _set(self, "p_both_right", p_both_right)
        _set(self, "p_coincidence", p_coincidence)
        _set(self, "conditional_coincidence_spin_state", conditional_coincidence_spin_state)
        _set(self, "correlators", correlators)


def build_initial_state(scenario: BeamSplitterScenario) -> LabeledState:
    """Antisymmetrized product of (left, spin-up) and (right, spin-down)."""
    eye = np.eye(4, dtype=complex)
    return exchange.symmetrized_product(
        [eye[0], eye[3]], ExchangeSector.ANTISYMMETRIC, scenario.basis_in()
    )


def evolve_through_splitter(
    state: LabeledState, scenario: BeamSplitterScenario
) -> LabeledState:
    """Send both slots through the splitter; spins are untouched."""
    if state.basis.labels != scenario.basis_in().labels:
        raise ValueError("state does not live on the scenario's input basis")
    u4 = np.kron(scenario.splitter, np.eye(2, dtype=complex))
    evolved = apply_one_particle_unitary(state, u4)
    return LabeledState(state.n_slots, scenario.basis_out(), evolved.amplitudes)


def measure_ports_and_spins(
    state: LabeledState, scenario: BeamSplitterScenario
) -> ExperimentResult:
    """Born probabilities for unordered joint (port, spin) detection outcomes.

    Works on either side of the splitter; port names come from the state's
    own basis labels.
    """
    if state.n_slots != 2 or state.basis.dim != 4:
        raise ValueError("expected a two-slot state over four space×spin modes")
    a = state.amplitudes.reshape(4, 4)
    ports = [label.split("×")[0] for label in state.basis.labels[::2]]
    modes = [(ports[m // 2], scenario.spins[m % 2]) for m in range(4)]

    joint: dict[tuple[tuple[str, str], tuple[str, str]], float] = {}
    p_both = {ports[0]: 0.0, ports[1]: 0.0}
    p_coincidence = 0.0
    for m1 in range(4):
        for m2 in range(m1 + 1, 4):
            p = abs(a[m1, m2]) ** 2 + abs(a[m2, m1]) ** 2
            joint[(modes[m1], modes[m2])] = p
            if modes[m1][0] == modes[m2][0]:
                p_both[modes[m1][0]] += p
            else:
                p_coincidence += p

    if p_coincidence < 1e-12:
        raise ValueError("no coincidence events; conditional spin state undefined")
    # spin amplitudes with the left-port particle listed first
    chi = np.array([a[s1, 2 + s2] for s1 in range(2) for s2 in range(2)])
    chi = chi / norm(chi)
    fix_phase(chi)

    def correlator(op1: np.ndarray, op2: np.ndarray) -> float:
        return float(np.real(np.vdot(chi, np.kron(op1, op2) @ chi)))

    return ExperimentResult(
        joint_probabilities=joint,
        p_both_left=p_both[ports[0]],
        p_both_right=p_both[ports[1]],
        p_coincidence=p_coincidence,
        conditional_coincidence_spin_state=chi,
        correlators={
            "sz_sz": correlator(_SIGMA_Z, _SIGMA_Z),
            "sx_sx": correlator(_SIGMA_X, _SIGMA_X),
        },
    )


class GaussianPacket(_Value):
    """Normalized one-dimensional Gaussian wave packet."""

    __slots__ = __match_args__ = ("center", "width", "phase_velocity")
    center: float
    width: float
    phase_velocity: float

    def __init__(self, center: float, width: float, phase_velocity: float = 0.0):
        if width <= 0:
            raise ValueError("width must be positive")
        _set(self, "center", center)
        _set(self, "width", width)
        _set(self, "phase_velocity", phase_velocity)

    def amplitudes(self, x: np.ndarray) -> np.ndarray:
        """psi(x) on the points x; ValueError when any value leaves the float range."""
        norm = (2.0 * math.pi * self.width ** 2) ** -0.25
        with np.errstate(over="ignore", invalid="ignore"):
            psi = norm * np.exp(
                -((x - self.center) ** 2) / (4.0 * self.width ** 2)
                + 1j * self.phase_velocity * x
            )
        if not np.isfinite(psi).all():
            raise ValueError(f"packet amplitudes are not finite on the grid: {self}")
        return psi


def packet_overlap(p1: GaussianPacket, p2: GaussianPacket) -> complex:
    """<p1|p2> in closed form; ValueError when it leaves the float range."""
    try:
        a = 1.0 / (4.0 * p1.width ** 2) + 1.0 / (4.0 * p2.width ** 2)
        b = complex(
            p1.center / (2.0 * p1.width ** 2) + p2.center / (2.0 * p2.width ** 2),
            p2.phase_velocity - p1.phase_velocity,
        )
        c = -(p1.center ** 2) / (4.0 * p1.width ** 2) - (p2.center ** 2) / (
            4.0 * p2.width ** 2
        )
        norm = (2.0 * math.pi * p1.width ** 2) ** -0.25 * (
            2.0 * math.pi * p2.width ** 2
        ) ** -0.25
        return norm * math.sqrt(math.pi / a) * cmath.exp(b ** 2 / (4.0 * a) + c)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(
            f"packet parameters out of floating-point range: {p1}, {p2}"
        ) from exc


class DensityGrid(_Value):
    """Joint density rho(x1, x2) sampled on a square grid: x of n points, values n x n."""

    __slots__ = __match_args__ = ("x", "values", "cross_term_max")
    x: np.ndarray
    values: np.ndarray
    cross_term_max: float

    def __init__(self, x: np.ndarray, values: np.ndarray, cross_term_max: float):
        if np.ndim(x) != 1 or np.shape(values) != np.shape(x) * 2:
            raise ValueError(
                f"a grid needs x of n points and n x n values, "
                f"got x of shape {np.shape(x)} and values of shape {np.shape(values)}"
            )
        _set(self, "x", x)
        _set(self, "values", values)
        _set(self, "cross_term_max", cross_term_max)

    @property
    def n_points(self) -> int:
        return len(self.x)

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.x, axis=1)
        return float(np.trapezoid(inner, self.x))

    def to_csv(self) -> str:
        """'x1,x2,rho' rows, x1-major, every number exactly as '%.12g' writes it.

        The rows are written a block of grid rows at a time, each row in one
        fixed byte layout (x1, ',', x2, ',', cell, newline) with NUL in every
        unused byte; deleting the NULs leaves the block's text.  The cells
        come from _cell_bytes: a cell v with 1e-290 <= |v| < 1 is rounded to
        twelve digits from s = |v| * 10**(11 - e), e = floor(log10|v|), which
        is within 2**-52 * 10**12 (about 2.3e-4) of the exact scaled value;
        where s lies in [10**11 + 1, 10**12 - 1) and more than 2**-10 from a
        rounding tie, rint(s) is the correctly rounded mantissa '%.12g'
        prints, with exponent e and no carry.  +-0.0 is written as '0' and
        '-0'; every other cell (NaN, +-inf, |v| >= 1, |v| < 1e-290, a
        near-tie, an exponent edge) and every coordinate is formatted by
        '%.12g' itself.
        """
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        n = len(values)
        coords = np.array([f"{v:.12g}" for v in self.x.tolist()], dtype=np.bytes_)
        width = coords.itemsize
        coords = coords.view(np.uint8).reshape(-1, width)
        # row layout: x1, ',', x2, ',', cell, '\n'
        cell = 2 * width + 2
        rows = max(1, _BLOCK_CELLS // max(n, 1))
        buf = np.zeros((min(rows, n), n, cell + _CELL_WIDTH + 1), dtype=np.uint8)
        buf[:, :, width] = buf[:, :, cell - 1] = ord(",")
        buf[:, :, width + 1 : cell - 1] = coords[:n]
        buf[:, :, -1] = ord("\n")
        texts = ["x1,x2,rho\n"]
        for start in range(0, n, rows):
            block = buf[: min(rows, n - start)]
            stop = start + len(block)
            block[:, :, :width] = coords[start:stop, None]
            block[:, :, cell:-1] = _cell_bytes(values[start:stop].reshape(-1)).reshape(
                len(block), n, _CELL_WIDTH
            )
            texts.append(block.tobytes().translate(None, b"\0").decode("ascii"))
        del buf  # before the join, whose text is the second copy
        return "".join(texts)


# A cell is three little-endian 8-byte words, NUL wherever nothing is written:
#   sign, '0.', up to three leading zeros (e >= -4), d0, '.' (e < -4 and a
#   nonzero digit follows);
#   d1 ... d8;
#   d9, d10, d11, 'e-' and two or three exponent digits (e < -4).
# The tables below are indexed by x = -e, 1 ... 291; row 0 serves +-0.0 and
# the cells left to '%.12g'.
_CELL_WIDTH = 24
_BLOCK_CELLS = 4096
_TIE_MARGIN = 2.0 ** -10
_MAGNITUDE = np.uint64(2 ** 63 - 1)
_LOWEST = np.float64(1e-290).view(np.uint64)
_ONE = np.float64(1.0).view(np.uint64)


def _words(rows: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(row.ljust(8, b"\0") for row in rows), dtype="<u8")


# 10**(11 + x), correctly rounded
_SCALE = np.array([1e11] + [float(f"1e{11 + x}") for x in range(1, 292)])
_PREFIX = _words(
    [b""]
    + [b"\0" + b"0." + b"0" * (x - 1) for x in range(1, 5)]
    + [b""] * 287
)
_SUFFIX = _words(
    [b""] * 5 + [b"\0\0\0e-" + f"{x:02d}".rjust(3, "\0").encode() for x in range(5, 292)]
)


def _cell_bytes(v: np.ndarray) -> np.ndarray:
    """The '%.12g' text of each value of a float64 vector, NUL-padded to 24 bytes.

    See DensityGrid.to_csv for why the fast path is exact.  No arithmetic
    touches a zero, NaN or infinite value, so none can raise a
    floating-point warning.
    """
    bits = v.view(np.uint64)
    sign = (bits >> np.uint64(63)) * np.uint64(ord("-"))
    bits = bits & _MAGNITUDE
    fast = (bits >= _LOWEST) & (bits < _ONE)
    zero = bits == 0
    a = np.where(fast, bits.view(np.float64), 1.0)
    x = (-np.floor(np.log10(a))).astype(np.intp)  # 0 off the fast range
    s = a * _SCALE.take(x)
    m = np.rint(s)
    fast &= (s >= 1e11 + 1) & (s < 1e12 - 1) & (np.abs(s - m) < 0.5 - _TIE_MARGIN)
    m[zero] = 0.0

    # d0, then three groups of four digits: d1..d4, d5..d8, d9 d10 d11 0
    d0 = np.floor(m / 1e11)
    m -= d0 * 1e11
    g = np.empty((len(v), 3), dtype=np.uint32)
    g[:, 0] = hi = np.floor(m / 1e7)
    m -= hi * 1e7
    g[:, 1] = mid = np.floor(m / 1e3)
    g[:, 2] = (m - mid * 1e3) * 10
    # each group to two-digit 16-bit lanes, then to one digit a byte, in text order
    q = (g * np.uint32(5243)) >> np.uint32(19)
    g = (g << np.uint32(16)) - q * np.uint32(100 * 2 ** 16 - 1)
    q = ((g * np.uint32(103)) >> np.uint32(10)) & np.uint32(0x000F000F)
    g = (g << np.uint32(8)) - q * np.uint32(10 * 2 ** 8 - 1)
    # a digit is written when it or a later one is nonzero: trailing zeros stay NUL
    t = g | (g >> np.uint32(8))
    t |= t >> np.uint32(16)
    t[:, 1] |= (g[:, 2] != 0) * np.uint32(0x01010101)
    t[:, 0] |= (t[:, 1] != 0) * np.uint32(0x01010101)
    keep = (t + np.uint32(0x7F7F7F7F)) & np.uint32(0x80808080)
    g |= (keep >> np.uint32(2)) | (keep >> np.uint32(3))  # 0x20 | 0x10 is '0'

    words = np.zeros((len(v), 3), dtype="<u8")
    words.view("<u4")[:, 2:5] = g
    words[:, 2] |= _SUFFIX.take(x)
    # the point after d0 only where a digit follows it: 2e-05, not 2.e-05
    point = ((t[:, 0] != 0) & (x >= 5)) * np.uint64(ord(".") << 56)
    words[:, 0] = (
        _PREFIX.take(x)
        | ((d0.astype(np.uint64) + np.uint64(ord("0"))) << np.uint64(48))
        | point
        | sign
    )
    out = words.view(np.uint8)
    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        texts = ("%.12g," * len(slow) % tuple(v[slow].tolist()))[:-1].split(",")
        out[slow] = np.array(texts, dtype=f"S{_CELL_WIDTH}").view(np.uint8).reshape(
            -1, _CELL_WIDTH
        )
    return out


def joint_spatial_density(
    packet_s: GaussianPacket,
    packet_n: GaussianPacket,
    x_min: float,
    x_max: float,
    n_points: int,
) -> DensityGrid:
    """Two-fermion joint density with the antisymmetrization cross term.

    rho = [ |psi_S(x1) psi_N(x2)|^2 + |psi_S(x2) psi_N(x1)|^2
            - 2 Re(psi_S(x1) psi_N(x2) psi_S(x2)* psi_N(x1)*) ] * norm,
    normalized so the density integrates to 1 even for overlapping packets.
    The integral is checked before cross_term_max divides by max rho, so a
    grid on which rho vanishes is refused without a floating-point warning.
    """
    check_dense_dim(n_points, 2)
    if n_points < 2:
        raise ValueError("need at least two grid points per axis")
    if not math.isfinite(x_max - x_min):
        raise ValueError(f"grid [{x_min!r}, {x_max!r}]: x_max - x_min is not finite")
    ovl = packet_overlap(packet_s, packet_n)
    if math.sqrt(max(2.0 - 2.0 * ovl.real, 0.0)) < 1e-6:
        raise ValueError("identical packets: antisymmetrization annihilates the state")

    x = np.linspace(x_min, x_max, n_points)
    psi_s = packet_s.amplitudes(x)
    psi_n = packet_n.amplitudes(x)
    z1 = np.outer(psi_s, psi_n)  # psi_S(x1) psi_N(x2)
    z2 = z1.T  # psi_S(x2) psi_N(x1)
    direct = (z1 * z1.conj()).real + (z2 * z2.conj()).real
    cross = 2.0 * (z1 * z2.conj()).real
    norm = 0.5 / (1.0 - abs(ovl) ** 2)
    values = (direct - cross) * norm

    integral = DensityGrid(x=x, values=values, cross_term_max=math.nan).integral()
    if not abs(integral - 1.0) <= TAU_GRID:  # NaN fails too
        raise ValueError(
            f"grid too coarse or too narrow: density integrates to {integral!r}"
        )
    # an integral near 1 leaves max rho > 0
    return DensityGrid(
        x=x,
        values=values,
        cross_term_max=float(np.max(np.abs(cross)) * norm / np.max(values)),
    )
