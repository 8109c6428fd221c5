"""Public guards that refuse a bad argument in the package's own words, without a warning."""

import warnings

import numpy as np
import pytest

from identicals import (
    BeamSplitterScenario,
    ExchangeSector,
    FockVector,
    GaussianPacket,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    Permutation,
    build_initial_state,
    detect_emergent_particles,
    evolve_through_splitter,
    genidentity_track,
    is_in_sector,
    joint_spatial_density,
    labeled_to_fock,
    measure_ports_and_spins,
    packet_overlap,
    parse_symbol,
    replace_indistinguishable,
    sector_basis,
    sector_project,
    slater_rank_two_fermions,
    symmetrized_product,
    tensor_product,
)
from identicals.states import check_unitary, compose

SYM = ExchangeSector.SYMMETRIC
E = np.eye(4)
#: the refusal of a sector given as its string value
NOT_A_SECTOR = "sector must be an ExchangeSector, got 'antisymmetric'"


def splitter_output():
    scenario = BeamSplitterScenario()
    return evolve_through_splitter(build_initial_state(scenario), scenario), scenario


def three_slot_state():
    scenario = BeamSplitterScenario()
    return LabeledState(3, scenario.basis_in(), np.eye(4 ** 3)[0]), scenario


def symmetric_pair():
    """|e0 e0>, a two-boson state of two modes."""
    return sector_basis(2, 2, SYM)[0]


def bosons_through_the_splitter():
    """Two bosons (L up, R (up + down) / sqrt 2) after the 50/50 splitter: half on doubled modes."""
    scenario = BeamSplitterScenario()
    pair = symmetrized_product([E[0], (E[2] + E[3]) / np.sqrt(2)], SYM, scenario.basis_in())
    return evolve_through_splitter(pair, scenario), scenario


GUARDS = {
    "mode_out_of_range": (
        lambda: replace_indistinguishable(OccupationState((1, 0), SYM), 3),
        "mode 3 out of range 1..2",
    ),
    "slater_rank_of_a_symmetric_state": (
        lambda: slater_rank_two_fermions(sector_basis(2, 2, SYM)[0]),
        "state is not antisymmetric",
    ),
    "genidentity_track_of_no_state": (lambda: genidentity_track([], np.eye(2)), []),
    "splitter_on_the_output_basis": (
        lambda: evolve_through_splitter(*splitter_output()),
        "state does not live on the scenario's input basis",
    ),
    "three_slots_measured": (
        lambda: measure_ports_and_spins(*three_slot_state()),
        "expected a two-slot state over four space×spin modes",
    ),
    "bosons_on_one_mode_measured": (
        lambda: measure_ports_and_spins(*bosons_through_the_splitter()),
        "state has weight 0.5 on doubly occupied modes, which the measurement does not count",
    ),
    "packet_width_zero": (lambda: GaussianPacket(0.0, 0.0), "width must be positive"),
    "packet_width_negative": (lambda: GaussianPacket(0.0, -1.0), "width must be positive"),
    "packet_width_nan": (
        lambda: GaussianPacket(0.0, float("nan")), "width must be finite, got nan"
    ),
    "packet_center_infinite": (
        lambda: packet_overlap(GaussianPacket(float("inf"), 1.0), GaussianPacket(0.0, 1.0)),
        "center must be finite, got inf",
    ),
    "packet_phase_velocity_infinite": (
        lambda: GaussianPacket(0.0, 1.0, float("-inf")),
        "phase_velocity must be finite, got -inf",
    ),
    "one_grid_point": (
        lambda: joint_spatial_density(GaussianPacket(0.0, 1.0), GaussianPacket(1.0, 1.0), -1.0, 1.0, 1),
        "need at least two grid points per axis",
    ),
    "empty_basis": (lambda: OneParticleBasis(()), "basis needs at least one mode"),
    "swap_past_the_last_slot": (
        lambda: Permutation.swap(3, 0, 5), "swap of slots 0 and 5 out of range 0..2"
    ),
    "swap_of_a_negative_slot": (
        lambda: Permutation.swap(3, 0, -1), "swap of slots 0 and -1 out of range 0..2"
    ),
    "compose_sizes_differ": (
        lambda: compose(Permutation((0, 1)), Permutation((0,))),
        "permutation sizes differ",
    ),
    "no_slot": (
        lambda: LabeledState(0, OneParticleBasis.default(2), np.ones(1)),
        "n_slots must be positive",
    ),
    "tensor_product_of_no_factor": (
        lambda: tensor_product([], OneParticleBasis.default(2)),
        "need at least one factor",
    ),
    "unitary_of_the_wrong_shape": (
        lambda: check_unitary(np.eye(2), 3),
        "expected a 3x3 matrix, got (2, 2)",
    ),
    "sector_string_symmetrized_product": (
        lambda: symmetrized_product([E[0], E[0]], "antisymmetric", OneParticleBasis.default(4)),
        NOT_A_SECTOR,
    ),
    "sector_string_sector_project": (
        lambda: sector_project(symmetric_pair(), "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_is_in_sector": (
        lambda: is_in_sector(symmetric_pair(), "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_sector_basis": (lambda: sector_basis(2, 2, "antisymmetric"), NOT_A_SECTOR),
    "sector_string_labeled_to_fock": (
        lambda: labeled_to_fock(symmetric_pair(), "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_detect_emergent_particles": (
        lambda: detect_emergent_particles(symmetric_pair(), "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_occupation_state": (
        lambda: OccupationState((2, 0), "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_parse_symbol": (
        lambda: parse_symbol("f_{e1e1}", 2, "antisymmetric"), NOT_A_SECTOR
    ),
    "sector_string_fock_vector": (
        lambda: FockVector({(2, 0, 0): 1.0}, "antisymmetric", 2), NOT_A_SECTOR
    ),
}


@pytest.mark.parametrize("call,expected", GUARDS.values(), ids=GUARDS.keys())
def test_a_public_guard_answers_in_its_own_words(call, expected):
    """A ValueError with the package's message, or the guard's documented result; no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == expected
        else:
            assert call() == expected
    assert caught == []
