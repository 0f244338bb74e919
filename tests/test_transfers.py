import math

import numpy as np
import pytest

import agendamech as am
from agendamech.transfers import FocSchedule
from oracles import cumulative_trapezoid, simpson

# Frozen with the independent quadrature below: the golden economy's agent
# pays theta*phi(g(theta)) minus the rent accumulated along the schedule
# g(x) = max(0, 2x - 1.5).
GOLDEN_TRANSFER = 0.0738275449510812
GOLDEN_PAYOFF = 0.0214826348532566


def test_understate_transfer_matches_quadrature_oracle(golden_economy):
    sol = am.solve(golden_economy)
    sched = sol.schedule_for(1)
    got = am.transfer_understate(golden_economy, sched, 0.8)

    def allocation(x):
        return max(0.0, 2.0 * x - 1.5)

    rent = simpson(lambda x: math.log(1.0 + allocation(x)), 0.0, 0.8, panels=4000)
    expected = 0.8 * math.log(1.1) - rent
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(GOLDEN_TRANSFER, abs=1e-9)
    assert sol.transfers[1] == pytest.approx(got, abs=1e-12)


def test_agenda_setter_payoff_golden(golden_economy):
    sol = am.solve(golden_economy)
    assert am.agenda_setter_payoff(golden_economy, sol) == pytest.approx(
        GOLDEN_PAYOFF, abs=1e-9)
    # resource constraint binds: t_a absorbs the residual
    assert sol.transfers[0] == pytest.approx(sol.g_star - sol.transfers[1], abs=1e-12)


def test_agenda_payoff_zero_at_null_solution(log_tech):
    econ = am.Economy(0.2, (0.3,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    sol = am.solve(econ)
    assert sol.g_star == 0.0
    assert all(abs(t) < 1e-12 for t in sol.transfers)
    assert am.agenda_setter_payoff(econ, sol) == pytest.approx(0.0, abs=1e-12)


def test_payoff_dominates_outside_option_linear(golden_economy):
    # the proposer can always fall back on the head-tax status quo
    n = golden_economy.n
    for g_circ in np.linspace(0.0, 2.0, 17):
        econ = golden_economy.with_outside_g(float(g_circ))
        sol = am.solve(econ)
        outside = 0.5 * math.log(1.0 + g_circ) - g_circ / n
        assert am.agenda_setter_payoff(econ, sol) >= outside - 1e-9


def test_anchor_rent_is_zero(golden_economy, concave_economy):
    for econ in (golden_economy, concave_economy):
        sol = am.solve(econ)
        for sched in sol.schedules:
            if sched.kind != "foc":
                continue
            assert float(sched.rent(sched.anchor)) == pytest.approx(0.0, abs=1e-9)
            grid = np.linspace(econ.theta_lo, econ.theta_hi, 301)
            assert float(np.min(sched.rent(grid))) >= -1e-9


def test_constant_allocation_transfer_hand_integral(log_tech):
    # clip the schedule to a constant level: every gain above the anchor is
    # rent, so the payment is anchor * phi(level)
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech,
                      am.zero_reservation(), 2, 0.0)
    level = 0.4
    sched = FocSchedule(econ, 1, base_weight=0.5, gamma=1.0,
                        clip_lo=level, clip_hi=level)
    assert float(sched.allocation(0.3)) == level
    assert sched.anchor == pytest.approx(0.0, abs=1e-12)
    for theta in (0.2, 0.8):
        expected_rent = (theta - 0.0) * math.log(1.0 + level)
        assert float(sched.rent(theta)) == pytest.approx(expected_rent, abs=1e-10)
        assert am.transfer_understate(econ, sched, theta) == pytest.approx(
            0.0 * math.log(1.0 + level), abs=1e-10)


def test_bunched_agents_pool_at_cutoff_bundle(majority_economy):
    sol = am.solve(majority_economy)
    assert sol.excluded == frozenset({1})
    assert sol.bunched == frozenset({1})
    cutoff_agent = 2  # lowest type still in the coalition
    sched_cut = sol.schedule_for(cutoff_agent)
    sched_exc = sol.schedule_for(1)
    t_cut = float(sched_cut.transfer(majority_economy.type_of(cutoff_agent)))
    assert sol.transfers[1] == pytest.approx(t_cut, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 11)
    assert np.allclose(sched_exc.allocation(grid), sol.g_star)
    assert np.allclose(sched_exc.transfer(grid), t_cut)


def test_budget_binds_exactly_for_active_regimes(golden_economy, concave_economy,
                                                 convex_economy, majority_economy):
    for econ in (golden_economy, concave_economy, convex_economy, majority_economy):
        sol = am.solve(econ)
        assert sol.regime is not am.Regime.OUTSIDE_OPTION
        assert sum(sol.transfers) == pytest.approx(sol.g_star, abs=1e-9)


def test_overstate_transfer_anchors_at_top(golden_economy):
    econ = golden_economy.with_outside_g(2.0)
    sol = am.solve(econ)
    assert sol.regime is am.Regime.OVERSTATE_INTERIOR
    sched = sol.schedule_for(1)
    assert sched.anchor == pytest.approx(1.0, abs=1e-9)
    assert float(sched.rent(1.0)) == pytest.approx(0.0, abs=1e-9)
    # rents decrease in type when everyone overstates
    grid = np.linspace(0.0, 1.0, 101)
    rents = np.asarray(sched.rent(grid))
    assert (np.diff(rents) <= 1e-9).all()
    assert am.transfer_overstate(econ, sched, 1.0) == pytest.approx(
        float(sched.transfer(1.0)), abs=1e-12)


def test_rent_profile_middle_branch_identically_zero(golden_economy):
    econ = golden_economy.with_outside_g(0.5)
    sol = am.solve(econ)
    profile = am.rent_profile(econ, sol, grid_size=101)
    _, rents = profile.as_arrays()
    assert np.abs(rents).max() < 1e-12


def test_rent_profile_concave_v_shape(concave_economy):
    sol = am.solve(concave_economy)
    profile = am.rent_profile(concave_economy, sol, grid_size=201)
    grid, rents = profile.as_arrays()
    anchor = sol.cutoff_types[0]
    k = int(np.argmin(np.abs(grid - anchor)))
    assert rents[k] == pytest.approx(0.0, abs=1e-6)
    assert rents.min() >= -1e-9
    # decreasing into the binding type, increasing out of it
    assert (np.diff(rents[: k + 1]) <= 1e-9).all()
    assert (np.diff(rents[k:]) >= -1e-9).all()
    assert rents[0] > 1e-3 and rents[-1] > 1e-3
    # trapezoid construction agrees with the independent oracle
    phi_g = math.log(1.0 + sol.g_star)
    slope = [phi_g - float(concave_economy.reservation.slope(t, 1.0)) for t in grid]
    raw = cumulative_trapezoid(slope, list(grid))
    shift = np.interp(anchor, grid, raw)
    assert np.allclose(rents, np.asarray(raw) - shift, atol=1e-10)


def test_rent_profile_convex_inverted_v(convex_economy):
    sol = am.solve(convex_economy)
    profile = am.rent_profile(convex_economy, sol, grid_size=201)
    grid, rents = profile.as_arrays()
    assert rents[0] == pytest.approx(0.0, abs=1e-7)
    assert rents[-1] == pytest.approx(0.0, abs=1e-7)
    peak = int(np.argmax(rents))
    assert 0 < peak < len(grid) - 1
    assert (np.diff(rents[: peak + 1]) >= -1e-9).all()
    assert (np.diff(rents[peak:]) <= 1e-9).all()


def test_rent_slope_sign_matches_partition(concave_economy):
    sol = am.solve(concave_economy)
    phi_g = float(concave_economy.tech.phi(sol.g_star))
    for agent in sol.partition.K:
        assert phi_g - float(concave_economy.reservation.slope(
            concave_economy.type_of(agent), 1.0)) < 0
    for agent in sol.partition.M:
        assert phi_g - float(concave_economy.reservation.slope(
            concave_economy.type_of(agent), 1.0)) > 0


def test_rent_profile_rejects_tiny_grid(golden_economy):
    sol = am.solve(golden_economy)
    with pytest.raises(ValueError):
        am.rent_profile(golden_economy, sol, grid_size=2)


def test_rent_profile_nonnegative_on_coalition_range(majority_economy):
    sol = am.solve(majority_economy)
    grid, rents = am.rent_profile(majority_economy, sol, 201).as_arrays()
    cutoff = sol.cutoff_types[0]
    inside = grid >= cutoff - 1e-12  # coalition types sit at or above the cutoff
    assert rents[inside].min() >= -1e-9
    # forced participants below the cutoff fall short of their reservation
    assert rents[~inside].min() < -1e-3
