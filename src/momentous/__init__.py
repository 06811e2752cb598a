"""Semiclassical moment dynamics for tunneling through a smooth barrier.

Mean position and momentum evolve coupled to Weyl-ordered central moments;
the back-reaction turns the static barrier into a time-dependent effective
potential under which trajectories reflect, tunnel, or get trapped.
"""

from .classify import Evidence, InvalidMargin, Outcome, Tag, classify
from .dynamics import (
    MOMENTS_BY_ORDER,
    ModelConfig,
    MomentState,
    effective_hamiltonian,
    effective_potential,
    eom_table,
    moment_labels,
    rhs,
)
from .integrator import (
    Event,
    IntegratorConfig,
    Termination,
    Trajectory,
    integrate,
    uncertainty_residual,
)
from .moment_algebra import (
    ConsistencyReport,
    MomentPolynomial,
    RangeViolation,
    bracket_formula,
    k_coefficient,
    verify_eom_consistency,
)
from .packet import GaussianPacket, initial_moments
from .potential import (
    K_MAX,
    BarrierPotential,
    InvalidEnergy,
    NoTurningPoint,
    UnsupportedOrder,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierPotential",
    "ConsistencyReport",
    "Event",
    "Evidence",
    "GaussianPacket",
    "IntegratorConfig",
    "InvalidEnergy",
    "InvalidMargin",
    "K_MAX",
    "MOMENTS_BY_ORDER",
    "ModelConfig",
    "MomentPolynomial",
    "MomentState",
    "NoTurningPoint",
    "Outcome",
    "RangeViolation",
    "Tag",
    "Termination",
    "Trajectory",
    "UnsupportedOrder",
    "bracket_formula",
    "classify",
    "effective_hamiltonian",
    "effective_potential",
    "eom_table",
    "integrate",
    "initial_moments",
    "k_coefficient",
    "moment_labels",
    "rhs",
    "uncertainty_residual",
    "verify_eom_consistency",
]
