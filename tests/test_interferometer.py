import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from identicals import (
    BeamSplitterScenario,
    DensityGrid,
    ExchangeSector,
    GaussianPacket,
    LabeledState,
    build_initial_state,
    evolve_through_splitter,
    inner_product,
    is_in_sector,
    joint_spatial_density,
    measure_ports_and_spins,
    packet_overlap,
    slater_rank_two_fermions,
)

from conftest import random_sector_state

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
