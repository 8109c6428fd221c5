"""Executable formalisms for identical quantum particles.

Labeled tensor-product states with (anti)symmetrization, label-free
occupation-number states, exact quantum-statistics counting, detection of
emergent individual particles, and the two-electron beam-splitter
experiment.

Every public name is imported on first use: `identicals.X` and
`from identicals import X` import only the submodule that defines X, so
the numpy-free `counting` module (and with it occupation states, symbols
and their closed-form report) never pays for numpy.  `__all__` lists
every name and submodule, so `from identicals import *` and `dir()` show
the whole package.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "counting": (
        "CountingProblem",
        "EmergenceReport",
        "ExchangeSector",
        "OccupationState",
        "StatisticsKind",
        "SymbolString",
        "Verdict",
        "count_microstates",
        "entropy",
        "enumerate_distributions",
        "enumerate_symbols",
        "format_symbol",
        "parse_symbol",
        "planck_count",
        "replace_indistinguishable",
    ),
    "emergence": (
        "detect_emergent_particles",
        "genidentity_track",
        "natural_orbitals",
        "slater_rank_two_fermions",
    ),
    "errors": ("CapExceeded",),
    "exchange": (
        "is_in_sector",
        "sector_basis",
        "sector_project",
        "symmetrized_product",
    ),
    "fock": (
        "FockVector",
        "fock_to_labeled",
        "labeled_to_fock",
        "occupation_to_labeled",
    ),
    "interferometer": (
        "BeamSplitterScenario",
        "DensityGrid",
        "ExperimentResult",
        "GaussianPacket",
        "build_initial_state",
        "evolve_through_splitter",
        "joint_spatial_density",
        "measure_ports_and_spins",
        "packet_overlap",
    ),
    "states": (
        "LabeledState",
        "OneParticleBasis",
        "Permutation",
        "apply_one_particle_unitary",
        "apply_permutation",
        "inner_product",
        "reduce_one_particle",
        "tensor_product",
    ),
}

#: public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    # not cached in the package namespace: the name always resolves to what
    # its submodule binds now
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
