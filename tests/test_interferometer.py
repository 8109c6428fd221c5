import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from identicals import (
    BeamSplitterScenario,
    DensityGrid,
    ExchangeSector,
    GaussianPacket,
    LabeledState,
    OneParticleBasis,
    Verdict,
    build_initial_state,
    detect_emergent_particles,
    evolve_through_splitter,
    inner_product,
    is_in_sector,
    joint_spatial_density,
    measure_ports_and_spins,
    packet_overlap,
    slater_rank_two_fermions,
    symmetrized_product,
)
from identicals.emergence import TAU_FID

from conftest import EMPTY_DENSITY_GRIDS, random_sector_state

ANTI = ExchangeSector.ANTISYMMETRIC
SQ2 = math.sqrt(2)


def expected_final_amplitudes():
    """Hand expansion of the post-splitter state."""
    phi_up = np.array([1 / SQ2, 0, 1 / SQ2, 0])      # (L'+R')/sqrt2, spin up
    psi_down = np.array([0, 1 / SQ2, 0, -1 / SQ2])   # (L'-R')/sqrt2, spin down
    a = (np.outer(phi_up, psi_down) - np.outer(psi_down, phi_up)) / SQ2
    return a.reshape(-1)


def oracle_measurement(state):
    """Projector-sum oracle over the full 16-dimensional product basis."""
    amps = state.amplitudes
    probs = {}
    for m1 in range(4):
        for m2 in range(m1 + 1, 4):
            p = 0.0
            for slots in ((m1, m2), (m2, m1)):
                proj = np.zeros(16)
                proj[slots[0] * 4 + slots[1]] = 1.0
                p += abs(proj @ amps) ** 2
            probs[(m1, m2)] = p
    # coincidence projector: one particle in port L (modes 0,1), one in port R
    chi = np.zeros(4, dtype=complex)
    for s1, s2 in itertools.product(range(2), repeat=2):
        proj = np.zeros(16, dtype=complex)
        proj[s1 * 4 + (2 + s2)] = 1.0
        chi[s1 * 2 + s2] = proj @ amps
    p_coinc = 2 * float(np.vdot(chi, chi).real)
    chi = chi / np.linalg.norm(chi) if np.linalg.norm(chi) > 0 else chi
    return probs, p_coinc, chi


class TestBuildAndEvolve:
    def test_initial_state_amplitudes(self):
        state = build_initial_state(BeamSplitterScenario())
        expected = np.zeros(16)
        expected[0 * 4 + 3] = 1 / SQ2    # (L,up) (R,down)
        expected[3 * 4 + 0] = -1 / SQ2
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_initial_state_is_antisymmetric_slater(self):
        state = build_initial_state(BeamSplitterScenario())
        assert is_in_sector(state, ANTI)
        assert slater_rank_two_fermions(state) == 1

    def test_final_state_matches_hand_expansion(self):
        scenario = BeamSplitterScenario()
        final = evolve_through_splitter(build_initial_state(scenario), scenario)
        np.testing.assert_allclose(
            final.amplitudes, expected_final_amplitudes(), atol=1e-12
        )
        assert final.basis.labels[0] == "L'×up"

    def test_evolution_preserves_sector_and_rank(self):
        scenario = BeamSplitterScenario()
        final = evolve_through_splitter(build_initial_state(scenario), scenario)
        assert is_in_sector(final, ANTI)
        assert slater_rank_two_fermions(final) == 1
        assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_splitter_round_trip(self):
        scenario = BeamSplitterScenario()
        initial = build_initial_state(scenario)
        final = evolve_through_splitter(initial, scenario)
        inverse = BeamSplitterScenario(
            spatial_in=scenario.spatial_out,
            spatial_out=scenario.spatial_in,
            splitter=scenario.splitter.conj().T,
        )
        back = evolve_through_splitter(
            LabeledState(2, inverse.basis_in(), final.amplitudes), inverse
        )
        np.testing.assert_allclose(back.amplitudes, initial.amplitudes, atol=1e-10)


class TestMeasurement:
    def test_post_splitter_probabilities(self):
        scenario = BeamSplitterScenario()
        final = evolve_through_splitter(build_initial_state(scenario), scenario)
        result = measure_ports_and_spins(final, scenario)
        assert result.p_both_left == pytest.approx(0.25, abs=1e-10)
        assert result.p_both_right == pytest.approx(0.25, abs=1e-10)
        assert result.p_coincidence == pytest.approx(0.5, abs=1e-10)

    def test_post_splitter_conditional_spin_state_is_triplet(self):
        scenario = BeamSplitterScenario()
        final = evolve_through_splitter(build_initial_state(scenario), scenario)
        result = measure_ports_and_spins(final, scenario)
        triplet = np.array([0, 1, 1, 0]) / SQ2
        fidelity = abs(np.vdot(triplet, result.conditional_coincidence_spin_state)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)
        assert result.correlators["sz_sz"] == pytest.approx(-1.0, abs=1e-10)
        assert result.correlators["sx_sx"] == pytest.approx(1.0, abs=1e-10)

    def test_pre_splitter_distinguishable_regime(self):
        scenario = BeamSplitterScenario()
        result = measure_ports_and_spins(build_initial_state(scenario), scenario)
        assert result.p_coincidence == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            result.conditional_coincidence_spin_state, [0, 1, 0, 0], atol=1e-10
        )
        assert result.correlators["sz_sz"] == pytest.approx(-1.0, abs=1e-10)
        assert result.correlators["sx_sx"] == pytest.approx(0.0, abs=1e-10)

    def test_probabilities_sum_to_one_and_lie_in_range(self):
        scenario = BeamSplitterScenario()
        final = evolve_through_splitter(build_initial_state(scenario), scenario)
        result = measure_ports_and_spins(final, scenario)
        total = sum(result.joint_probabilities.values())
        assert total == pytest.approx(1.0, abs=1e-10)
        for p in result.joint_probabilities.values():
            assert -1e-12 <= p <= 1 + 1e-12

    def test_agrees_with_projector_oracle_on_random_states(self, rng):
        scenario = BeamSplitterScenario()
        basis = scenario.basis_out()
        checked = 0
        while checked < 100:
            state = random_sector_state(rng, 4, 2, ANTI)
            state = LabeledState(2, basis, state.amplitudes)
            probs, p_coinc, chi = oracle_measurement(state)
            if p_coinc < 1e-12:
                continue
            checked += 1
            result = measure_ports_and_spins(state, scenario)
            assert result.p_coincidence == pytest.approx(p_coinc, abs=1e-10)
            assert result.p_both_left == pytest.approx(probs[(0, 1)], abs=1e-10)
            assert result.p_both_right == pytest.approx(probs[(2, 3)], abs=1e-10)
            assert sum(result.joint_probabilities.values()) == pytest.approx(
                1.0, abs=1e-10
            )
            fid = abs(np.vdot(chi, result.conditional_coincidence_spin_state)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-9)

    def test_no_coincidence_raises(self):
        scenario = BeamSplitterScenario()
        basis = scenario.basis_out()
        # both particles stuck in the left port
        amps = np.zeros(16, dtype=complex)
        amps[0 * 4 + 1] = 1 / SQ2
        amps[1 * 4 + 0] = -1 / SQ2
        with pytest.raises(ValueError):
            measure_ports_and_spins(LabeledState(2, basis, amps), scenario)


class TestSpatialDensity:
    def test_far_separation_kills_cross_term(self):
        grid = joint_spatial_density(
            GaussianPacket(0.0, 1.0), GaussianPacket(10.0, 1.0), -6.0, 16.0, 128
        )
        assert grid.cross_term_max < 1e-10

    def test_density_symmetric_in_arguments(self):
        grid = joint_spatial_density(
            GaussianPacket(-2.0, 1.0), GaussianPacket(2.0, 1.5), -11.0, 11.0, 96
        )
        np.testing.assert_allclose(grid.values, grid.values.T, atol=1e-15)

    def test_exact_zero_on_the_diagonal(self):
        grid = joint_spatial_density(
            GaussianPacket(-1.0, 1.0), GaussianPacket(1.0, 1.0), -8.0, 8.0, 96
        )
        assert np.max(np.abs(np.diag(grid.values))) <= 1e-20

    def test_density_non_negative(self):
        grid = joint_spatial_density(
            GaussianPacket(-0.5, 1.0), GaussianPacket(0.5, 1.0), -7.0, 7.0, 96
        )
        assert grid.values.min() >= -1e-15

    def test_normalization(self):
        for sep in (0.5, 3.0, 10.0):
            grid = joint_spatial_density(
                GaussianPacket(0.0, 1.0),
                GaussianPacket(sep, 1.0),
                -6.0,
                sep + 6.0,
                160,
            )
            assert grid.integral() == pytest.approx(1.0, abs=1e-6)

    def test_cross_term_decreases_with_separation(self):
        separations = np.linspace(0.5, 10.0, 10)
        maxima = []
        for sep in separations:
            grid = joint_spatial_density(
                GaussianPacket(0.0, 1.0),
                GaussianPacket(float(sep), 1.0),
                -6.0,
                float(sep) + 6.0,
                160,
            )
            maxima.append(grid.cross_term_max)
        assert all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_identical_packets_rejected(self):
        with pytest.raises(ValueError):
            joint_spatial_density(
                GaussianPacket(0.0, 1.0), GaussianPacket(0.0, 1.0), -6.0, 6.0, 64
            )

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(ValueError):
            joint_spatial_density(
                GaussianPacket(0.0, 1.0), GaussianPacket(4.0, 1.0), -1.0, 5.0, 16
            )

    def test_overlap_formula_against_quadrature(self):
        p1 = GaussianPacket(-1.0, 0.8, phase_velocity=0.3)
        p2 = GaussianPacket(1.5, 1.2)
        x = np.linspace(-20, 20, 20001)
        numeric = np.trapezoid(np.conj(p1.amplitudes(x)) * p2.amplitudes(x), x)
        assert packet_overlap(p1, p2) == pytest.approx(complex(numeric), abs=1e-10)

    def test_csv_export_shape(self):
        grid = joint_spatial_density(
            GaussianPacket(0.0, 1.0), GaussianPacket(5.0, 1.0), -6.0, 11.0, 64
        )
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "x1,x2,rho"
        assert len(lines) == 1 + 64 * 64


def per_value_csv(grid):
    """The writer as first written: one f-string per value, kept as the reference."""
    lines = ["x1,x2,rho"]
    for i, x1 in enumerate(grid.x):
        for j, x2 in enumerate(grid.x):
            lines.append(f"{x1:.12g},{x2:.12g},{grid.values[i, j]:.12g}")
    return "\n".join(lines) + "\n"


def assert_writes_like_per_value_csv(grid):
    # lines with ends kept: equal exactly when the texts are, and a mismatch
    # reports its first differing line instead of a diff of the whole text
    got = grid.to_csv().splitlines(keepends=True)
    assert got == per_value_csv(grid).splitlines(keepends=True)


# signed zeros, subnormals, the float range ends, and values whose 12-digit
# rounding or %g notation (fixed vs exponent) sits on a boundary
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
    0.1234567890125, 1.0000000000005, 9.9999999999995, -9.9999999999995,
    999999999999.5, 999999999999.0, 1e12, 0.0001, 0.00009999999999995,
    1.00000000000049, math.inf, -math.inf, math.nan,
]
NAN_BITS = np.array([math.nan]).view(np.int64)[0]


def _scaled(mantissa, offset, exponent, ulps, negative):
    """(mantissa + offset) * 10**(exponent - 11), moved by ulps, with a sign."""
    value = float(f"{mantissa}{repr(offset)[1:]}e{exponent - 11}")
    bits = np.array([value]).view(np.int64) + ulps
    value = float(bits.view(np.float64)[0])
    return -value if negative else value


# twelve-digit ties whose scaled mantissa, computed with an inexact power of
# ten, lands on the other side of the tie than the exact value does
WRONG_SIDE_TIES = [
    1.151062278075e-123, 1.944804529805e-191, 1.370732794825e-161,
    1.040528859895e-12, 5.430648846325e-95, 8.560923947265e-219,
    8.654297496105e-154, 9.525057497555e-204,
]

# cells at the edges of the writer's fast path: scaled mantissas s on and
# around a rounding tie (the fast path needs |s - floor(s) - 1/2| > 2**-10),
# s near 10**11 and 10**12, mantissas ending in zeros, the %g switch at 1e-4,
# two- and three-digit exponents, the 1e-290 bound, either sign, and raw
# float64 bit patterns
FAST_PATH_EDGES = st.one_of(
    st.builds(
        _scaled,
        mantissa=st.one_of(
            st.integers(10 ** 11, 10 ** 12 - 1),
            # k significant digits, then 12 - k zeros: short texts like 2e-05
            st.integers(1, 12).flatmap(
                lambda k: st.integers(10 ** (k - 1), 10 ** k - 1).map(
                    lambda d: d * 10 ** (12 - k)
                )
            ),
            st.sampled_from([10 ** 11, 10 ** 11 + 1, 10 ** 11 + 2, 10 ** 12 - 2, 10 ** 12 - 1]),
        ),
        offset=st.sampled_from([
            0.0, 0.25, 0.5, 0.75, 0.999,
            0.5 - 2.0 ** -9, 0.5 - 2.0 ** -10, 0.5 - 2.0 ** -11,
            0.5 + 2.0 ** -11, 0.5 + 2.0 ** -10, 0.5 + 2.0 ** -9,
        ]),
        exponent=st.one_of(
            st.integers(-300, 101),
            st.sampled_from([-291, -290, -289, -101, -100, -99, -98,
                             -6, -5, -4, -3, -1, 0, 98, 99, 100]),
        ),
        ulps=st.integers(-2, 2),
        negative=st.booleans(),
    ),
    st.sampled_from(WRONG_SIDE_TIES),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(
        lambda bits: float(np.array([bits], dtype=np.int64).view(np.float64)[0])
    ),
)


class TestCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                      min_size=1, max_size=24),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_the_per_value_writer_byte_for_byte(self, n, pool, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(pool)
        grid = DensityGrid(
            x=rng.choice(pool, n), values=rng.choice(pool, (n, n)), cross_term_max=0.0
        )
        assert_writes_like_per_value_csv(grid)

    def test_physical_grid_matches_the_per_value_writer(self):
        grid = joint_spatial_density(
            GaussianPacket(-1.0, 0.7, 0.4), GaussianPacket(1.3, 1.1), -7.0, 8.0, 57
        )
        assert_writes_like_per_value_csv(grid)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                      min_size=1, max_size=24),
        seed=st.integers(0, 2 ** 32 - 1),
        twins=st.lists(st.sampled_from(["signed_zero", "nan_payload", "one_ulp"]),
                       max_size=6),
    )
    def test_mirrored_grid_matches_the_per_value_writer_byte_for_byte(
        self, n, pool, seed, twins
    ):
        # every cell below the diagonal has its mirror's bits, except a few
        # whose mirror differs in the sign of a zero, the NaN payload or one ulp
        rng = np.random.default_rng(seed)
        upper = rng.choice(np.array(pool), (n, n))
        values = np.where(np.tri(n, dtype=bool), upper.T, upper)
        bits = values.view(np.int64)
        for twin in twins:
            i, j = sorted(rng.choice(n, 2, replace=False), reverse=True)
            if twin == "signed_zero":
                values[j, i], values[i, j] = 0.0, -0.0
            elif twin == "nan_payload":
                bits[j, i], bits[i, j] = NAN_BITS, NAN_BITS | 1
            else:  # the last mantissa bit: one ulp off, or inf turned NaN
                bits[i, j] = bits[j, i] ^ 1
        grid = DensityGrid(x=rng.choice(np.array(pool), n), values=values, cross_term_max=0.0)
        assert_writes_like_per_value_csv(grid)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(FAST_PATH_EDGES, min_size=1, max_size=14),
        cells=st.lists(FAST_PATH_EDGES, min_size=1, max_size=196),
    )
    def test_fast_path_edges_match_the_per_value_writer(self, x, cells):
        values = np.resize(np.array(cells), (len(x), len(x)))
        grid = DensityGrid(x=np.array(x), values=values, cross_term_max=0.0)
        assert_writes_like_per_value_csv(grid)

    def test_near_ties_match_the_per_value_writer(self):
        # every tie and its neighbours within two ulps, both signs: 80 cells
        bits = np.array(WRONG_SIDE_TIES).view(np.int64)[:, None] + np.arange(-2, 3)
        cells = bits.view(np.float64).reshape(-1)
        grid = DensityGrid(
            x=np.array(WRONG_SIDE_TIES[:1] * 9),
            values=np.resize(np.concatenate([cells, -cells]), (9, 9)),
            cross_term_max=0.0,
        )
        assert_writes_like_per_value_csv(grid)

    def test_one_digit_mantissas_match_the_per_value_writer(self):
        # d * 10**e for every digit d and every exponent the fast path takes,
        # both signs, one ulp either side: no point without a digit after it
        cells = np.array([float(f"{d}e{e}") for e in range(-291, 1) for d in range(1, 10)])
        bits = cells.view(np.int64)[:, None] + np.arange(-1, 2)
        cells = bits.view(np.float64).reshape(-1)
        cells = np.concatenate([cells, -cells, [2e-05, -5e-10, 3e-100, 9e-290, 0.5, 0.05]])
        n = math.isqrt(len(cells) - 1) + 1  # n * n >= len(cells): every cell is written
        grid = DensityGrid(
            x=cells[-n:], values=np.resize(cells, (n, n)), cross_term_max=0.0
        )
        assert_writes_like_per_value_csv(grid)

    @pytest.mark.parametrize(
        "n, text", [(0, "x1,x2,rho\n"), (1, "x1,x2,rho\n0.5,0.5,-0\n")]
    )
    def test_empty_and_one_point_grids(self, n, text):
        grid = DensityGrid(x=np.full(n, 0.5), values=np.full((n, n), -0.0), cross_term_max=0.0)
        assert grid.to_csv() == text == per_value_csv(grid)

    def test_peak_memory_stays_near_two_texts(self):
        # the block texts and their join; each block's bytes go before the next
        grid = joint_spatial_density(
            GaussianPacket(-1.0, 0.7, 0.4), GaussianPacket(1.3, 1.1), -7.0, 8.0, 220
        )
        tracemalloc.start()
        try:
            text = grid.to_csv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * len(text)


class TestDensityBits:
    @settings(max_examples=40, deadline=None)
    @given(
        center=st.floats(-3.0, 3.0),
        gap=st.floats(0.3, 8.0),
        widths=st.tuples(st.floats(0.6, 1.6), st.floats(0.6, 1.6)),
        velocities=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        n_points=st.integers(80, 120),
    )
    def test_density_is_bitwise_symmetric(self, center, gap, widths, velocities, n_points):
        # rho(x1, x2) and rho(x2, x1) are built by the same float operations
        packets = [
            GaussianPacket(c, w, v)
            for c, w, v in zip((center, center + gap), widths, velocities)
        ]
        margin = 7.0 * max(widths)
        grid = joint_spatial_density(
            *packets, center - margin, center + gap + margin, n_points
        )
        bits = grid.values.view(np.int64)
        assert np.array_equal(bits, bits.T)


class TestSeparatingFermions:
    """Two fermions in separating packets are individual particles."""

    @pytest.mark.parametrize("separation", [0.5, 1.0, 3.0, 8.0, 14.0])
    def test_detector_finds_two_particles(self, separation):
        x = np.linspace(-8.0, 22.0, 160)
        basis = OneParticleBasis(tuple(f"x{k}" for k in range(len(x))))
        packets = (GaussianPacket(0.0, 1.0), GaussianPacket(separation, 1.0))
        orbitals = [p.amplitudes(x) for p in packets]
        state = symmetrized_product(
            [psi / np.linalg.norm(psi) for psi in orbitals], ANTI, basis
        )
        report = detect_emergent_particles(state, ANTI)
        assert report.verdict is Verdict.PARTICLE_DECOMPOSITION
        assert 1.0 - report.fidelity <= TAU_FID
        np.testing.assert_allclose(
            report.natural_spectrum, [0.5, 0.5] + [0.0] * 158, rtol=0, atol=1e-12
        )


class TestDensityGuards:
    @pytest.mark.parametrize(
        "packet",
        [GaussianPacket(1e308, 1.0), GaussianPacket(0.0, 1e-300)],
        ids=["center_overflow", "width_underflow"],
    )
    def test_out_of_range_packet_is_a_value_error_naming_it(self, packet):
        with pytest.raises(ValueError, match="packet parameters") as info:
            joint_spatial_density(packet, GaussianPacket(10.0, 1.0), -6.0, 16.0, 64)
        assert repr(packet) in str(info.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", EMPTY_DENSITY_GRIDS)
    def test_a_grid_without_density_is_a_value_error_without_a_warning(self, case):
        packet_s, packet_n, grid = EMPTY_DENSITY_GRIDS[case]
        if case == "grid_of_infinite_span":
            message = f"grid [{grid['x_min']!r}, {grid['x_max']!r}]: x_max - x_min is not finite"
        else:
            message = "grid too coarse or too narrow: density integrates to 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            joint_spatial_density(
                GaussianPacket(**packet_s), GaussianPacket(**packet_n), **grid
            )

    @pytest.mark.parametrize(
        "x_shape, values_shape",
        [((2,), (3, 3)), ((4,), (3, 3)), ((3,), (3, 4)), ((3,), (9,)), ((2, 2), (2, 2)), ((), ())],
        ids=str,
    )
    def test_a_grid_of_inconsistent_shapes_is_a_value_error_naming_both(self, x_shape, values_shape):
        message = (
            f"a grid needs x of n points and n x n values, "
            f"got x of shape {x_shape} and values of shape {values_shape}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DensityGrid(x=np.zeros(x_shape), values=np.ones(values_shape), cross_term_max=0.0)

    def test_non_finite_amplitudes_are_a_value_error_naming_the_packet(self):
        packet = GaussianPacket(0.0, 1.0, 1e308)
        with pytest.raises(ValueError, match="not finite") as info:
            packet.amplitudes(np.linspace(-6.0, 16.0, 64))
        assert repr(packet) in str(info.value)
