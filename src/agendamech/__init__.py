"""Agenda-setter optimal public-good mechanisms with type-dependent outside
options: solvers, envelope transfers, and a brute-force certification
oracle."""

from .model import (
    AGENDA_SETTER,
    CheckResult,
    Curvature,
    Economy,
    InvalidEconomy,
    ModelError,
    ReservationProfile,
    Technology,
    TypeDistribution,
    ValidationReport,
    linear_reservation,
    log_technology,
    negative_slope_reservation,
    power_technology,
    quadratic_share_reservation,
    share_reservation,
    truncated_exponential,
    truncated_normal,
    uniform,
    validate_economy,
    virtual_value_gamma,
    zero_reservation,
)
from .solver_core import (
    BracketFailure,
    ContiguityViolation,
    FixedPointDivergence,
    GammaKind,
    GammaRepresentation,
    Partition,
    SolverError,
    UnboundedObjective,
    efficient_level,
    envelope_slope,
    gamma_star_constant,
    partition_types,
    sigma,
    solve_weighted_foc,
    xi_argmax,
)
from .transfers import (
    FlatSchedule,
    FocSchedule,
    RentProfile,
    agenda_setter_payoff,
    rent_profile,
    transfer_understate,
)
from .regimes import (
    LadderRung,
    MechanismSolution,
    Regime,
    Thresholds,
    ThresholdTable,
    solve,
    solve_stochastic_coalition,
    sweep_outside_option,
    threshold_table,
)
from .cli import load_model
from .verify import (
    OracleReport,
    VcgReport,
    check_dsic,
    check_participation,
    vcg_demo,
    verify_solution,
)

__version__ = "0.1.0"
