"""Public guards that refuse a bad argument in the package's own words, without a warning."""

import warnings

import numpy as np
import pytest

from identicals import (
    BeamSplitterScenario,
    ExchangeSector,
    GaussianPacket,
    LabeledState,
    OccupationState,
    OneParticleBasis,
    Permutation,
    build_initial_state,
    evolve_through_splitter,
    genidentity_track,
    joint_spatial_density,
    measure_ports_and_spins,
    replace_indistinguishable,
    sector_basis,
    slater_rank_two_fermions,
    tensor_product,
)
from identicals.states import check_unitary, compose

SYM = ExchangeSector.SYMMETRIC


def splitter_output():
    scenario = BeamSplitterScenario()
    return evolve_through_splitter(build_initial_state(scenario), scenario), scenario


def three_slot_state():
    scenario = BeamSplitterScenario()
    return LabeledState(3, scenario.basis_in(), np.eye(4 ** 3)[0]), scenario


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
    "packet_width_zero": (lambda: GaussianPacket(0.0, 0.0), "width must be positive"),
    "packet_width_negative": (lambda: GaussianPacket(0.0, -1.0), "width must be positive"),
    "one_grid_point": (
        lambda: joint_spatial_density(GaussianPacket(0.0, 1.0), GaussianPacket(1.0, 1.0), -1.0, 1.0, 1),
        "need at least two grid points per axis",
    ),
    "empty_basis": (lambda: OneParticleBasis(()), "basis needs at least one mode"),
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
