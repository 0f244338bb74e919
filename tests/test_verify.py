import dataclasses
import math

import numpy as np
import pytest

import agendamech as am


def test_oracle_passes_posted_mechanism(golden_economy):
    econ = golden_economy.with_outside_g(0.5)
    sol = am.solve(econ)
    rep = am.verify_solution(econ, sol)
    assert rep.passed
    # middle branch: every participation constraint binds exactly
    for _, slack in rep.participation_slack:
        assert slack == pytest.approx(0.0, abs=1e-12)


def test_oracle_passes_understate_solution_41_grid(golden_economy):
    sol = am.solve(golden_economy)
    rep = am.verify_solution(golden_economy, sol, grid_size=41)
    assert rep.passed, rep.summary()
    assert rep.worst_deviation is None or rep.worst_deviation.gain <= 1e-8


def test_oracle_flags_negative_slack_only_for_excluded(majority_economy):
    sol = am.solve(majority_economy)
    rep = am.verify_solution(majority_economy, sol)
    assert rep.passed
    slack = dict(rep.participation_slack)
    for i in majority_economy.agents:
        if i in sol.excluded:
            assert slack[i] < -1e-6
        else:
            assert slack[i] >= -1e-9


class _BrokenSchedule:
    """Hand-built rule with a deliberate downward step in the allocation."""

    kind = "broken"
    agent = 1
    anchor = 0.0

    def allocation(self, x):
        x = np.asarray(x, float)
        out = np.where(x < 0.5, 0.8, 0.2)
        return float(out) if out.ndim == 0 else out

    def transfer(self, x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        return float(out) if out.ndim == 0 else out


def test_oracle_grid_below_five_points_raises(golden_economy):
    with pytest.raises(ValueError, match="grid_size must be at least 5"):
        am.check_dsic(golden_economy, am.solve(golden_economy).schedules, grid_size=4)


def test_oracle_detects_non_monotone_allocation(golden_economy):
    dsic_ok, worst, mono_ok, viol = am.check_dsic(golden_economy, [_BrokenSchedule()])
    assert not mono_ok
    assert viol is not None and viol.agent == 1
    assert viol.g_low > viol.g_high
    assert not dsic_ok  # a free higher level is a profitable deviation
    assert worst.gain > 1e-3


def test_oracle_detects_tampered_transfer(golden_economy):
    sol = am.solve(golden_economy)
    base = sol.schedules[0]

    class Tampered:
        kind = "tampered"
        agent = 1
        anchor = base.anchor

        def allocation(self, x):
            return base.allocation(x)

        def transfer(self, x):
            x = np.asarray(x, float)
            out = np.asarray(base.transfer(x), float) - 0.01 * (x > 0.6)
            return float(out) if out.ndim == 0 else out

    dsic_ok, worst, _, _ = am.check_dsic(golden_economy, [Tampered()])
    assert not dsic_ok and worst.gain > 5e-3


def test_check_participation_direct_evaluation(golden_economy):
    sol = am.solve(golden_economy)
    ok, slacks = am.check_participation(
        golden_economy, sol.g_star, sol.transfers, sol.coalition)
    assert ok
    # direct evaluation: theta*phi(g) - t - v_bar
    theta = 0.8
    expected = theta * math.log(1.0 + sol.g_star) - sol.transfers[1]
    assert dict(slacks)[1] == pytest.approx(expected, abs=1e-12)


def test_grid_refinement_never_flips_pass(golden_economy, concave_economy,
                                          convex_economy, majority_economy):
    for econ in (golden_economy, concave_economy, convex_economy, majority_economy):
        sol = am.solve(econ)
        assert am.verify_solution(econ, sol, grid_size=41).passed
        assert am.verify_solution(econ, sol, grid_size=82).passed


# ---------------------------------------------------------------------------
# Efficient-mechanism demo
# ---------------------------------------------------------------------------


@pytest.fixture
def vcg_economy(log_tech):
    return am.Economy(0.5, (0.8, 0.7), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 3), 3, 0.0)


def test_vcg_efficient_level_closed_form(vcg_economy):
    rep = am.vcg_demo(vcg_economy, 1e-3)
    assert rep.g_efficient == pytest.approx(1.0, abs=1e-9)  # sum(theta) - 1


def test_vcg_budget_deficit_positive(vcg_economy):
    rep = am.vcg_demo(vcg_economy, 1e-3)
    # deficit = (n-1) * (sum(theta) * ln(1 + g*) - g*)
    expected = 2.0 * (2.0 * math.log(2.0) - 1.0)
    assert rep.deficit == pytest.approx(expected, abs=1e-9)
    assert rep.deficit > 0.0


def test_vcg_perturbation_gain_positive_and_first_order(vcg_economy):
    gains = {}
    for eps in (1e-2, 1e-3, 1e-4):
        rep = am.vcg_demo(vcg_economy, eps)
        assert rep.perturbation_gain > 0.0
        # closed form: sum(theta) * (exp(eps/theta_j) - 1 - eps/theta_j)
        total, tj = 2.0, 0.5
        expected = total * (math.exp(eps / tj) - 1.0) - (total / tj) * eps
        assert rep.perturbation_gain == pytest.approx(expected, rel=1e-12)
        gains[eps] = rep.perturbation_gain
    # the normalized gain stays bounded as epsilon halves
    assert gains[1e-3] / 1e-3 <= gains[1e-2] / 1e-2
    assert gains[1e-4] / 1e-4 <= gains[1e-3] / 1e-3
    # leading order is quadratic: gain/eps^2 stabilizes near sum/(2 tj^2)
    assert gains[1e-4] / 1e-4**2 == pytest.approx(2.0 / (2.0 * 0.25), rel=1e-2)


def test_vcg_zero_epsilon_zero_gain(vcg_economy):
    assert am.vcg_demo(vcg_economy, 0.0).perturbation_gain == 0.0


def test_vcg_requires_log_technology():
    root = am.power_technology(0.5)
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), root,
                      am.linear_reservation(root, 2), 2, 0.0)
    with pytest.raises(am.InvalidEconomy):
        am.vcg_demo(econ, 1e-3)


def test_vcg_requires_the_closed_form_level():
    tech = am.log_technology()
    bare = am.Technology(phi=tech.phi, phi_prime=tech.phi_prime, name="log")
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), bare,
                      am.linear_reservation(bare, 2), 2, 0.0)
    with pytest.raises(am.InvalidEconomy, match="log benefit technology required"):
        am.vcg_demo(econ, 1e-3)


@pytest.mark.parametrize("types", [(0.0, 0.0), (0.3, 0.2), (0.5, 0.5), (0.5, 0.5 + 2**-53),
                                   (1e-300, 0.0), (0.9, 0.7, 0.4)])
def test_vcg_efficient_level_is_the_weighted_foc_level(log_tech, types):
    econ = am.Economy(types[0], types[1:], am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, len(types)), len(types), 0.0)
    total = float(np.array(types, float).sum())
    want = am.solve_weighted_foc(log_tech, total)
    assert repr(am.vcg_demo(econ, 0.0).g_efficient) == repr(want)


def test_verify_module_holds_no_solver_object():
    from agendamech import solver_core, verify
    held = [name for name, value in vars(verify).items()
            if value is solver_core or getattr(value, "__module__", None) == solver_core.__name__]
    assert held == []


def test_vcg_groves_transfers_are_dsic(vcg_economy):
    # direct deviation scan of the aligned transfer rule on a grid
    thetas = [0.5, 0.8, 0.7]
    total = sum(thetas)

    def g_of(profile):
        return max(sum(profile) - 1.0, 0.0)

    def t_of(profile, i):
        g = g_of(profile)
        return g - (sum(profile) - profile[i]) * math.log(1.0 + g)

    grid = np.linspace(0.0, 1.0, 21)
    for i in range(3):
        for true in grid:
            profile = list(thetas)
            profile[i] = float(true)
            u_truth = true * math.log(1.0 + g_of(profile)) - t_of(profile, i)
            for lie in grid:
                dev = list(thetas)
                dev[i] = float(lie)
                u_dev = true * math.log(1.0 + g_of(dev)) - t_of(dev, i)
                assert u_truth >= u_dev - 1e-9


def test_oracle_flags_a_coalition_member_below_its_reservation(golden_economy):
    sol = am.solve(golden_economy)
    transfers = list(sol.transfers)
    transfers[1] += 0.01
    ok, slacks = am.check_participation(golden_economy, sol.g_star, transfers, sol.coalition)
    assert not ok
    assert dict(slacks)[1] < -1e-3
    raised = dataclasses.replace(sol, transfers=tuple(transfers))
    rep = am.verify_solution(golden_economy, raised)
    assert not rep.participation_ok
    assert not rep.passed


def test_oracle_certifies_at_oracle_tol_only(golden_economy):
    from agendamech.verify import ORACLE_TOL
    sol = am.solve(golden_economy)
    assert am.verify_solution(golden_economy, sol).tolerance == ORACLE_TOL
    with pytest.raises(TypeError):
        am.verify_solution(golden_economy, sol, tol=1e-3)
    with pytest.raises(TypeError):
        am.check_dsic(golden_economy, sol, tol=1e-3)
    with pytest.raises(TypeError):
        am.check_participation(golden_economy, sol.g_star, sol.transfers, sol.coalition, 1e-3)


def test_budget_rule_exempts_only_the_status_quo():
    from agendamech.verify import ORACLE_TOL, check_budget
    note = ("status-quo outcome: budget financed outside the mechanism",)
    assert check_budget(am.Regime.OUTSIDE_OPTION, -1.0) == (True, note)
    assert check_budget(am.Regime.UNDERSTATE_INTERIOR, -ORACLE_TOL) == (True, ())
    assert check_budget(am.Regime.UNDERSTATE_INTERIOR, -2 * ORACLE_TOL) == (False, ())
    assert check_budget(None, math.nan) == (False, ())


def test_nan_mechanism_fails_monotonicity_and_participation(golden_economy):
    nan = lambda t, gc: np.full_like(np.asarray(t, float), np.nan)
    econ = dataclasses.replace(golden_economy,
                               reservation=am.ReservationProfile(nan, nan, am.Curvature.LINEAR))
    sol = am.solve(econ)
    assert math.isnan(sol.g_star)
    rep = am.verify_solution(econ, sol)
    assert not rep.dsic_ok and not rep.monotone_ok and not rep.participation_ok
    assert not rep.passed


def test_worst_deviation_keeps_a_nan_gain(golden_economy):
    class Nan(_BrokenSchedule):
        def transfer(self, x):
            return np.full_like(np.asarray(x, float), np.nan)

    sched = am.solve(golden_economy).schedules[0]
    for mechanism in ([sched, Nan()], [Nan(), sched]):
        dsic_ok, worst, _, _ = am.check_dsic(golden_economy, mechanism)
        assert not dsic_ok and math.isnan(worst.gain)


def test_vcg_perturbation_refuses_a_zero_lowest_type(log_tech):
    econ = am.Economy(0.0, (0.8,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    with pytest.raises(am.ModelError, match="strictly positive lowest type"):
        am.vcg_demo(econ, 1e-3)
    assert am.vcg_demo(econ, 0.0).perturbation_gain == 0.0
