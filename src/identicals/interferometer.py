"""The two-electron beam-splitter experiment and the two-packet spatial density.

Two fermions with opposite spins enter from spatially separated ports, pass
a 50/50 splitter, and are detected with port- and spin-resolving counters.
The one-particle space is space (x) spin, flattened space-major into four
modes.  The spatial-density half models two one-dimensional wave packets and
their antisymmetrization cross term on a grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import exchange
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


@dataclass(frozen=True)
class BeamSplitterScenario:
    spatial_in: tuple[str, str] = ("L", "R")
    spatial_out: tuple[str, str] = ("L'", "R'")
    spins: tuple[str, str] = ("up", "down")
    splitter: np.ndarray = field(default_factory=_default_splitter)

    def __post_init__(self):
        object.__setattr__(self, "splitter", check_unitary(self.splitter, 2))

    def basis_in(self) -> OneParticleBasis:
        return self._basis(self.spatial_in)

    def basis_out(self) -> OneParticleBasis:
        return self._basis(self.spatial_out)

    def _basis(self, spatial: tuple[str, str]) -> OneParticleBasis:
        return OneParticleBasis(
            tuple(f"{p}×{s}" for p in spatial for s in self.spins)
        )


@dataclass(frozen=True)
class ExperimentResult:
    joint_probabilities: dict[tuple[tuple[str, str], tuple[str, str]], float]
    p_both_left: float
    p_both_right: float
    p_coincidence: float
    conditional_coincidence_spin_state: np.ndarray
    correlators: dict[str, float]


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


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized one-dimensional Gaussian wave packet."""

    center: float
    width: float
    phase_velocity: float = 0.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

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


@dataclass(frozen=True)
class DensityGrid:
    """Joint density rho(x1, x2) sampled on a square grid."""

    x: np.ndarray
    values: np.ndarray
    cross_term_max: float

    @property
    def n_points(self) -> int:
        return len(self.x)

    def integral(self) -> float:
        inner = np.trapezoid(self.values, self.x, axis=1)
        return float(np.trapezoid(inner, self.x))

    def to_csv(self) -> str:
        """'x1,x2,rho' rows, x1-major, every number in %.12g.

        Each cell's float64 bits are formatted at most once per mirror pair
        (see _cell_texts): a cell below the diagonal whose bits equal those of
        its mirror across the diagonal takes the mirror's string.  Equal bits
        format to equal text, so the output is that of formatting every cell
        on its own, for any grid.  joint_spatial_density builds rho(x1, x2)
        and rho(x2, x1) with the same float operations, so on its grids every
        cell below the diagonal shares its mirror's string.
        """
        # a %.12g coordinate is digits, sign, '.', 'e', 'inf' or 'nan', never '%'
        coords = [f"{v:.12g}" for v in self.x.tolist()]
        tails = [f",{x2},%s\n" for x2 in coords]
        cells = _cell_texts(self.values)
        # x1 + x1.join(tails) is the row template 'x1,x2_j,%s\n' over all j
        rows = ["x1,x2,rho\n"]
        rows += [
            (x1 + x1.join(tails)) % tuple(row.tolist())
            for x1, row in zip(coords, cells)
        ]
        del cells  # the cell strings go before the joined text is built
        return "".join(rows)


def _cell_texts(values: np.ndarray) -> np.ndarray:
    """The %.12g text of each cell of a square grid, as an (n, n) object array.

    The upper triangle, diagonal included, is formatted with one template
    per row.  A cell below the diagonal whose float64 bits equal its
    mirror's takes the mirror's string, through one gather; every other
    cell (a +-0.0 pair, two NaN payloads, an asymmetric grid) is formatted
    itself, with the upper triangle of its row.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    bits = values.view(np.int64)
    own = ~np.tri(n, k=-1, dtype=bool)  # formatted itself: on or above the diagonal
    own |= bits != bits.T  # or unlike its mirror
    # the rank of each own cell among the own cells, row-major; a cell that is
    # not its own reads its mirror's, which lies above the diagonal
    rank = own.cumsum().reshape(n, n) - 1
    index = np.where(own, rank, rank.T)
    del rank  # before any string is made
    picked = values[own]  # row-major
    texts = np.empty(len(picked), dtype=object)
    start = 0
    for count in own.sum(axis=1).tolist():
        stop = start + count
        row = tuple(picked[start:stop].tolist())
        # no %.12g text holds a ','
        texts[start:stop] = (("%.12g," * count)[:-1] % row).split(",")
        start = stop
    return texts.take(index)


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
    """
    check_dense_dim(n_points, 2)
    if n_points < 2:
        raise ValueError("need at least two grid points per axis")
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

    grid = DensityGrid(
        x=x,
        values=values,
        cross_term_max=float(np.max(np.abs(cross)) * norm / np.max(values)),
    )
    integral = grid.integral()
    if not abs(integral - 1.0) <= TAU_GRID:  # NaN fails too
        raise ValueError(
            f"grid too coarse or too narrow: density integrates to {integral!r}"
        )
    return grid
