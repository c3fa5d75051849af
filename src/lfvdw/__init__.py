"""Local-field-corrected van der Waals potentials in magnetoelectric media.

Dispersion interactions of ground-state atoms embedded in an absorbing
host are screened by the host and by the microscopic cavity each atom
carves out around itself.  This package evaluates those local-field
corrected potentials in the real-cavity model: single-atom energies in
bulk and near finite bodies, two-atom potentials with their retarded and
non-retarded limits, N-atom ring contributions, forces, and the cavity
trapping stiffness.  All quantities are computed on the imaginary
frequency axis where every integrand is real and smooth.

Internally everything runs in reduced units (hbar = c = 1, frequencies
in units of a reference frequency, lengths in units of the reference
wavelength); the config layer converts from and to SI at the boundary.
"""

__version__ = "0.1.0"

from .cavity import (
    CavitySpec,
    coeff_C_exact,
    coeff_C_expansion,
    coeff_D_exact,
    coeff_D_leading,
)
from .config import RunConfig, UnitSystem, load_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GeometryError,
    InvariantError,
    LfvdwError,
)
from .green import BodyShell, born_scatter_trace, bulk_dyad
from .oracle import (
    DiluteHost,
    ForceEstimate,
    finite_difference_force,
    total_pairwise_sum,
    u1_pairwise_sum,
)
from .potentials import (
    PairResult,
    SingleAtomResult,
    StiffnessResult,
    U1Expansion,
    cavity_center_stiffness,
    coeff_nonretarded,
    coeff_retarded,
    force_pair,
    n_atom_bulk,
    n_atom_orderings,
    pair_bulk,
    pair_free_space,
    single_atom_total,
    u1_exact,
    u1_expanded,
    u1_linearized,
    u2_single,
)
from .quadrature import QuadResult, QuadSpec, integrate_finite, integrate_semi_infinite
from .response import VACUUM, AtomModel, LorentzTerm, MediumResponse

__all__ = [
    "__version__",
    "AtomModel",
    "BodyShell",
    "CavitySpec",
    "ConfigError",
    "ConvergenceError",
    "DiluteHost",
    "DomainError",
    "ForceEstimate",
    "GeometryError",
    "InvariantError",
    "LfvdwError",
    "LorentzTerm",
    "MediumResponse",
    "PairResult",
    "QuadResult",
    "QuadSpec",
    "RunConfig",
    "SingleAtomResult",
    "StiffnessResult",
    "U1Expansion",
    "UnitSystem",
    "VACUUM",
    "born_scatter_trace",
    "bulk_dyad",
    "cavity_center_stiffness",
    "coeff_C_exact",
    "coeff_C_expansion",
    "coeff_D_exact",
    "coeff_D_leading",
    "coeff_nonretarded",
    "coeff_retarded",
    "finite_difference_force",
    "force_pair",
    "integrate_finite",
    "integrate_semi_infinite",
    "load_config",
    "n_atom_bulk",
    "n_atom_orderings",
    "pair_bulk",
    "pair_free_space",
    "single_atom_total",
    "total_pairwise_sum",
    "u1_exact",
    "u1_expanded",
    "u1_linearized",
    "u1_pairwise_sum",
    "u2_single",
]
