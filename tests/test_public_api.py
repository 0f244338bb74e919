import types

import agendamech as am

PUBLIC_NAMES = {
    "AGENDA_SETTER", "BracketFailure", "CheckResult", "ContiguityViolation", "Curvature",
    "Economy", "FixedPointDivergence", "FlatSchedule", "FocSchedule", "GammaKind",
    "GammaRepresentation", "InvalidEconomy", "LadderRung", "MechanismSolution", "ModelError",
    "OracleReport", "Partition", "Regime", "ReservationProfile", "SolverError", "Technology",
    "ThresholdTable", "Thresholds", "TypeDistribution", "UnboundedObjective",
    "ValidationReport", "VcgReport", "agenda_setter_payoff", "check_dsic",
    "check_participation", "efficient_level", "linear_reservation", "load_model",
    "log_technology", "negative_slope_reservation", "partition_types", "power_technology",
    "quadratic_share_reservation", "share_reservation", "solve", "solve_stochastic_coalition",
    "solve_weighted_foc", "threshold_table", "truncated_exponential", "truncated_normal",
    "uniform", "validate_economy", "vcg_demo", "verify_solution", "virtual_value_gamma",
    "xi_argmax", "zero_reservation",
}


def test_public_surface_is_the_listed_set():
    """Adding or dropping a package export is a deliberate edit of this list."""
    exported = {name for name, value in vars(am).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(PUBLIC_NAMES)
