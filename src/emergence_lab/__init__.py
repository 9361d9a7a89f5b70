"""Numerical laboratory for particle structure in linear lattice field theory.

The package builds lattice discretizations of linear bosonic field theories,
diagonalizes the spatial operator R, and verifies that one-particle states
constructed over the R-eigenbasis behave like localized particles: field
observables decay at the Compton scale away from a state's support, random
superpositions of co-located states stay localized, and the Newton-Wigner
representation carries the expected geometry (including its small violations
of causality). A truncated Fock oracle arbitrates every analytic expectation
formula, and contour-integral asymptotics pin the decay rates that the
lattice kernels must reproduce.
"""

from .spectral import (
    AxiomError,
    DecayFit,
    Lattice,
    LatticeMismatchError,
    ROperator,
    Spectrum,
    build_klein_gordon,
    diagonalize,
    fit_decay_length,
)
from .modes import (
    PhaseVector,
    evolve_modes,
    evolve_state,
    field_hamiltonian,
    from_modes,
    gaussian_bump,
    hamiltonian_energy,
    to_modes,
)
from .geometry import (
    alpha_form,
    apply_J,
    direct_form,
    qp_form,
    schrodinger_rhs,
    segal_form,
    symplectic,
)
from .particle import (
    LocalizationReport,
    elp_check,
    localization_report,
    probe_excesses,
    support_sites,
    vacuum_two_point,
)
from .newton_wigner import (
    evolve_nw,
    from_nw,
    gaussian_packet,
    nonrelativistic_compare,
    nw_norm,
    superluminal_leakage,
    to_nw,
)
from .asymptotics import (
    AsymptoticsError,
    SymbolPolynomial,
    branch_cut_kernel,
    direct_radial_integral,
    kernel_decay_rate,
)
from .experiments import ExperimentConfig, RunReport, run_all, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsError",
    "AxiomError",
    "DecayFit",
    "ExperimentConfig",
    "Lattice",
    "LatticeMismatchError",
    "LocalizationReport",
    "PhaseVector",
    "ROperator",
    "RunReport",
    "Spectrum",
    "SymbolPolynomial",
    "alpha_form",
    "apply_J",
    "branch_cut_kernel",
    "build_klein_gordon",
    "diagonalize",
    "direct_form",
    "direct_radial_integral",
    "elp_check",
    "evolve_modes",
    "evolve_nw",
    "evolve_state",
    "field_hamiltonian",
    "fit_decay_length",
    "from_modes",
    "from_nw",
    "gaussian_bump",
    "gaussian_packet",
    "hamiltonian_energy",
    "kernel_decay_rate",
    "localization_report",
    "nonrelativistic_compare",
    "nw_norm",
    "probe_excesses",
    "qp_form",
    "run_all",
    "run_experiment",
    "schrodinger_rhs",
    "segal_form",
    "superluminal_leakage",
    "support_sites",
    "symplectic",
    "to_modes",
    "to_nw",
    "vacuum_two_point",
]
