import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agendamech as am
from agendamech import cli, regimes, solver_core, transfers
from agendamech.solver_core import GammaRepresentation, bisect, invert_phi, rent_gap
from oracles import foc_level, simpson


def test_envelope_slope_examples(golden_economy, log_tech):
    res = golden_economy.reservation
    # at the outside level the slope vanishes for every type
    for theta in (0.1, 0.5, 0.9):
        assert am.envelope_slope(theta, 0.7, 0.7, res, log_tech) == pytest.approx(0.0, abs=1e-12)
    got = am.envelope_slope(0.4, 1.1, 0.1, res, log_tech)
    assert got == pytest.approx(math.log(2.1) - math.log(1.1), abs=1e-12)
    assert got == pytest.approx(0.6466271649250525, abs=1e-9)
    # zero outside level forces a nonnegative slope at any provision
    for g in (0.0, 0.3, 2.0):
        assert am.envelope_slope(0.2, g, 0.0, res, log_tech) >= 0.0


def test_sigma_examples(golden_economy):
    gamma_low = GammaRepresentation.point_mass_at_low()
    assert am.sigma(golden_economy, gamma_low, 0.0) == pytest.approx(0.0, abs=1e-15)
    got = am.sigma(golden_economy, gamma_low, 0.1)
    assert got == pytest.approx(1.1 * math.log(1.1) - 0.1, abs=1e-12)
    assert got == pytest.approx(0.004841197784757346, abs=1e-12)


def test_sigma_with_distribution_weights_is_efficient_surplus(golden_economy):
    # gamma matching each agent's cdf value cancels the rent adjustment
    theta = golden_economy.agent_types[0]
    f_at = float(golden_economy.dist_of(1).F(theta))
    gamma = GammaRepresentation.piecewise(
        pieces=((0.0, 1.0, f_at),), atoms=((theta, f_at),))
    for g in (0.0, 0.4, 1.0):
        expected = (0.5 + theta) * math.log(1.0 + g) - g
        assert am.sigma(golden_economy, gamma, g) == pytest.approx(expected, abs=1e-12)
    assert am.xi_argmax(golden_economy, gamma) == pytest.approx(
        am.efficient_level(golden_economy), abs=1e-9)


def test_xi_argmax_examples(golden_economy):
    gamma_low = GammaRepresentation.point_mass_at_low()     # weight 1.1
    gamma_high = GammaRepresentation.point_mass_at_high()   # weight 2.1
    assert am.xi_argmax(golden_economy, gamma_low) == pytest.approx(0.1, abs=1e-9)
    assert am.xi_argmax(golden_economy, gamma_high) == pytest.approx(1.1, abs=1e-9)
    # cross-check with the independent bisection oracle
    tech = golden_economy.tech
    assert am.xi_argmax(golden_economy, gamma_low) == pytest.approx(
        foc_level(lambda g: 1.0 / (1.0 + g), 1.1), abs=1e-9)


def test_xi_argmax_corner(log_tech):
    econ = am.Economy(0.2, (0.3,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    gamma_low = GammaRepresentation.point_mass_at_low()
    # weight 0.2 + (2*0.3 - 1) = -0.2: corner at zero
    assert am.xi_argmax(econ, gamma_low) == 0.0


def test_xi_argmax_bisection_matches_closed_form(golden_economy):
    tech = golden_economy.tech
    stripped = am.Technology(phi=tech.phi, phi_prime=tech.phi_prime, name="log-nofast")
    blind = am.Economy(
        golden_economy.agenda_setter_type, golden_economy.agent_types,
        golden_economy.distributions, stripped,
        golden_economy.reservation, golden_economy.quota, golden_economy.outside_g)
    for gamma in (GammaRepresentation.point_mass_at_low(),
                  GammaRepresentation.point_mass_at_high(),
                  GammaRepresentation.constant(0.4)):
        assert am.xi_argmax(blind, gamma) == pytest.approx(
            am.xi_argmax(golden_economy, gamma), abs=1e-9)


def test_sigma_argmax_property(golden_economy):
    gamma = GammaRepresentation.constant(0.35)
    g_star = am.xi_argmax(golden_economy, gamma)
    best = am.sigma(golden_economy, gamma, g_star)
    for g in np.linspace(0.0, 5.0, 1000):
        assert best >= am.sigma(golden_economy, gamma, float(g)) - 1e-9


def test_efficient_level_examples(log_tech):
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    assert am.efficient_level(econ) == pytest.approx(0.3, abs=1e-9)
    low = am.Economy(0.2, (0.3,), am.uniform(0.0, 1.0), log_tech,
                     am.linear_reservation(log_tech, 2), 2, 0.0)
    assert am.efficient_level(low) == 0.0
    root = am.power_technology(0.5)
    econ_pow = am.Economy(0.4, (0.6,), am.uniform(0.0, 1.0), root,
                          am.linear_reservation(root, 2), 2, 0.0)
    assert am.efficient_level(econ_pow) == pytest.approx(0.25, abs=1e-9)
    assert am.efficient_level(econ_pow) == pytest.approx(
        foc_level(lambda g: 0.5 * g**-0.5, 1.0), abs=1e-9)


@given(w1=st.floats(0.05, 3.0), w2=st.floats(0.05, 3.0))
@settings(max_examples=200, deadline=None)
def test_weighted_foc_monotone_in_weight(w1, w2):
    tech = am.log_technology()
    lo, hi = min(w1, w2), max(w1, w2)
    assert am.solve_weighted_foc(tech, hi) >= am.solve_weighted_foc(tech, lo) - 1e-12


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def test_partition_linear_above_outside(golden_economy):
    part = am.partition_types(golden_economy.with_outside_g(0.05), 0.5)
    assert part.M == frozenset({1}) and not part.K and not part.L


def test_partition_linear_at_outside(golden_economy):
    part = am.partition_types(golden_economy.with_outside_g(0.5), 0.5)
    assert part.L == frozenset({1}) and not part.K and not part.M


def test_partition_concave_single_binding_type(concave_economy):
    sol = am.solve(concave_economy)
    part = am.partition_types(concave_economy, sol.g_star)
    assert part.L == frozenset({2})
    assert part.K == frozenset({1})
    assert part.M == frozenset({3})


def test_partition_convex_ordering(convex_economy):
    sol = am.solve(convex_economy)
    part = am.partition_types(convex_economy, sol.g_star)
    order = convex_economy.sorted_agents()
    labels = ["K" if i in part.K else ("L" if i in part.L else "M") for i in order]
    # understating agents sit at the bottom of the type order, overstating at the top
    assert labels == sorted(labels, key=("M", "L", "K").index)
    assert part.M and part.K


def test_partition_contiguity_violation(log_tech):
    # concave-shaped values deliberately mislabelled as convex
    res = am.ReservationProfile(
        v_bar=lambda t, gc: float(log_tech.phi(gc)) * (1.4 * t - 0.5 * t * t),
        v_bar_dtheta=lambda t, gc: float(log_tech.phi(gc)) * (1.4 - t),
        curvature=am.Curvature.CONVEX,
        name="mislabelled")
    econ = am.Economy(0.6, (0.2, 0.9), am.uniform(0.0, 1.0), log_tech, res, 3, 1.0)
    g_mid = 2.0 ** 0.9 - 1.0  # slope changes sign between the two agents
    with pytest.raises(am.ContiguityViolation):
        am.partition_types(econ, g_mid)


def test_partition_groups_tied_types(log_tech):
    econ = am.Economy(0.5, (0.4, 0.4, 0.4), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 4), 4, 0.2)
    part = am.partition_types(econ, 0.9)
    assert part.M == frozenset({1, 2, 3})


# ---------------------------------------------------------------------------
# gamma machinery
# ---------------------------------------------------------------------------


def test_gamma_representations_are_valid_cdfs():
    reps = [
        GammaRepresentation.point_mass_at_low(),
        GammaRepresentation.point_mass_at_high(),
        GammaRepresentation.interior_mass(0.4),
        GammaRepresentation.interior_mass(0.4, at_star=0.7),
        GammaRepresentation.constant(0.3),
        GammaRepresentation.piecewise(
            pieces=((0.0, 0.3, 0.0), (0.3, 0.8, 0.5), (0.8, 1.0, 1.0)),
            atoms=((0.3, 0.2), (0.8, 0.9))),
    ]
    for rep in reps:
        assert rep.is_valid_cdf(0.0, 1.0), rep.describe()


def test_gamma_star_constant_boundary_branches(convex_economy):
    assert am.gamma_star_constant(convex_economy.with_outside_g(0.0), (0.0, 1.0)) == 1.0
    assert am.gamma_star_constant(convex_economy.with_outside_g(25.0), (0.0, 1.0)) == 0.0


def test_gamma_star_constant_interior_self_consistency(convex_economy):
    window = (0.0, 1.0)
    gamma = am.gamma_star_constant(convex_economy, window)
    assert 0.0 < gamma < 1.0
    g = am.xi_argmax(convex_economy, GammaRepresentation.constant(gamma))
    assert rent_gap(convex_economy, g, window) == pytest.approx(0.0, abs=1e-8)
    # independent quadrature of the same residual
    tech, res = convex_economy.tech, convex_economy.reservation
    phi_g = math.log(1.0 + g)
    residual = simpson(lambda x: phi_g - float(res.slope(x, 1.0)), 0.0, 1.0)
    assert residual == pytest.approx(0.0, abs=1e-8)
    # frozen closed form for this economy: ln(3.8 - 3 gamma) = 0.8 ln 2
    assert gamma == pytest.approx((3.8 - 2.0**0.8) / 3.0, abs=1e-9)


def test_gamma_star_constant_bracket_failure_guard(convex_economy):
    with pytest.raises(am.BracketFailure):
        am.gamma_star_constant(
            convex_economy, (0.0, 1.0),
            weight_fn=lambda gam: 1.0 + gam)  # rising weight: gap increases


# ---------------------------------------------------------------------------
# bisection helper
# ---------------------------------------------------------------------------


def reference_bisect(below, lo, hi, max_iter, tol=None):
    """``bisect`` without its early stop: every step runs until ``max_iter``
    or the tolerance ends the loop."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if tol is not None and hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


STEP_PREDICATES = {
    "<": lambda root: lambda x: x < root,
    "<=": lambda root: lambda x: x <= root,
    ">": lambda root: lambda x: x > root,
    ">=": lambda root: lambda x: x >= root,
}


@st.composite
def bisection_cases(draw):
    scale = draw(st.sampled_from([1e-300, 1e-12, 1.0, 1e6]))
    a = draw(st.floats(-1.0, 1.0)) * scale
    b = draw(st.floats(-1.0, 1.0)) * scale
    lo, hi = min(a, b), max(a, b)
    if draw(st.integers(0, 3)) == 0:
        hi = lo
    where = draw(st.sampled_from(
        ["lo", "hi", "above_lo", "below_hi", "inside", "outside_lo", "outside_hi", "tiny"]))
    root = {
        "lo": lo,
        "hi": hi,
        "above_lo": math.nextafter(lo, math.inf),
        "below_hi": math.nextafter(hi, -math.inf),
        "inside": lo + draw(st.floats(0.0, 1.0)) * (hi - lo),
        "outside_lo": lo - scale,
        "outside_hi": hi + scale,
        "tiny": draw(st.floats(1e-310, 1e-298)),
    }[where]
    sense = draw(st.sampled_from(sorted(STEP_PREDICATES)))
    max_iter = draw(st.integers(0, 1200))
    tol = draw(st.sampled_from([None, 0.0, 1e-300, 1e-12 * scale, 1e-3 * scale]))
    return STEP_PREDICATES[sense](root), lo, hi, max_iter, tol


@given(case=bisection_cases())
@settings(max_examples=400, deadline=None)
def test_bisect_equals_fixed_count_loop(case):
    below, lo, hi, max_iter, tol = case
    assert bisect(below, lo, hi, max_iter, tol) == reference_bisect(below, lo, hi, max_iter, tol)


@pytest.mark.parametrize("root", [0.0, 5e-324, 1e-300, 0.3, math.nextafter(1.0, 0.0), 1.0])
@pytest.mark.parametrize("sense", sorted(STEP_PREDICATES))
def test_bisect_edge_roots_on_unit_interval(root, sense):
    below = STEP_PREDICATES[sense](root)
    assert bisect(below, 0.0, 1.0, 1200) == reference_bisect(below, 0.0, 1.0, 1200)


def test_bisect_degenerate_bracket_calls_nothing():
    calls = []
    assert bisect(calls.append, 0.7, 0.7, 200) == 0.7
    assert calls == []


def test_bisect_stops_once_the_bracket_is_two_adjacent_floats():
    calls = []

    def below(x):
        calls.append(x)
        return x < 0.3

    got = bisect(below, 0.0, 1.0, 200)
    assert got == reference_bisect(lambda x: x < 0.3, 0.0, 1.0, 200)
    assert len(calls) <= 60


CONCAVE_WINDOW_MODEL = {
    "economy": {
        "agenda_setter_type": 0.5,
        "agent_types": [0.2, 0.45, 0.55, 0.9],
        "quota": 3,
        "outside_g": 1.3,
        "distributions": {"family": "uniform", "lo": 0.0, "hi": 1.0},
        "technology": {"family": "log"},
        "reservation": {"family": "quadratic_share", "slope": 1.4, "curve": -0.5},
    }
}


def _bisection_outputs(tmp_path, tag):
    tech = am.log_technology()
    convex = am.Economy(0.6, (0.4,), am.uniform(0.0, 1.0), tech,
                        am.quadratic_share_reservation(tech, 0.3, 0.5), 2, 1.0)
    table = am.threshold_table(convex)
    # a technology without the closed-form argmax bisects every FOC level
    stripped = am.Technology(phi=tech.phi, phi_prime=tech.phi_prime, name="log-nofast")
    blind = am.Economy(0.6, (0.3, 0.5, 0.8), am.uniform(0.0, 1.0), stripped,
                       am.quadratic_share_reservation(stripped, 1.4, -0.5), 4, 1.0)
    sol = am.solve(blind)
    model = tmp_path / "window.json"
    model.write_text(json.dumps(CONCAVE_WINDOW_MODEL))
    out = tmp_path / f"{tag}.csv"
    assert cli.main(["sweep", "--model", str(model), "--grid", "1.0:1.6:4",
                     "--out", str(out)]) == 0
    return table, (sol.g_star, sol.cutoff_types, sol.transfers), out.read_bytes()


def test_bisect_early_stop_keeps_every_output_bit_identical(tmp_path, monkeypatch):
    fast = _bisection_outputs(tmp_path, "fast")
    for module in (solver_core, transfers, regimes):
        monkeypatch.setattr(module, "bisect", reference_bisect)
    assert _bisection_outputs(tmp_path, "reference") == fast


def _without_closed_forms(tech):
    return am.Technology(phi=tech.phi, phi_prime=tech.phi_prime, name=tech.name + "-nofast")


@pytest.mark.parametrize("g_circ", [0.0, 0.7])
def test_power_technology_without_closed_forms_solves_without_warnings(g_circ):
    # phi'(0) of a power benefit is a division by zero that numpy reports as
    # a RuntimeWarning unless the caller expects it
    tech = _without_closed_forms(am.power_technology(0.5))
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), tech,
                      am.linear_reservation(tech, 2), 2, g_circ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = am.solve(econ)
        assert am.verify_solution(econ, sol).passed
    assert tech.marginal_at_zero() == math.inf


@pytest.mark.parametrize("tech", [am.log_technology(), am.power_technology(0.3),
                                  am.power_technology(0.7)], ids=lambda t: t.name)
def test_invert_phi_bisection_matches_closed_form(tech):
    blind = _without_closed_forms(tech)
    for target in (0.0, 1e-6, 0.05, 0.3, 1.0, 2.5, 7.0):
        closed = invert_phi(tech, target)
        assert closed == max(float(tech.phi_inverse(target)), 0.0)
        for hi in (1.0, 3.0):
            got = invert_phi(blind, target, hi=hi)
            assert abs(got - closed) <= 1e-12 * closed
    assert invert_phi(blind, 0.0) == 0.0 == invert_phi(tech, -1.0)


def test_invert_phi_unreachable_target_raises():
    saturating = am.Technology(phi=lambda g: 1.0 - np.exp(-np.asarray(g, float)),
                               phi_prime=lambda g: np.exp(-np.asarray(g, float)),
                               name="saturating")
    assert invert_phi(saturating, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(am.UnboundedObjective):
        invert_phi(saturating, 1.5)
