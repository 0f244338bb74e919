import dataclasses
import random
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import agendamech as am
from agendamech import cli, regimes
from agendamech.regimes import LadderRung, ThresholdTable, _posted_solution
from agendamech.solver_core import invert_phi, partition_types
from agendamech.transfers import FocSchedule
from oracles import all_coalitions, foc_level

LOG_PRIME = lambda g: 1.0 / (1.0 + g)


# ---------------------------------------------------------------------------
# Linear unanimity
# ---------------------------------------------------------------------------


def test_unanimity_linear_golden_thresholds(golden_economy):
    sol = am.solve(golden_economy)
    # oracle: bisection on [0.5 + (2*0.8 - 1)] phi'(g) = 1 and the mirror
    assert sol.thresholds.g_low == pytest.approx(foc_level(LOG_PRIME, 1.1), abs=1e-8)
    assert sol.thresholds.g_high == pytest.approx(foc_level(LOG_PRIME, 2.1), abs=1e-8)
    assert sol.thresholds.g_low == pytest.approx(0.1, abs=1e-8)
    assert sol.thresholds.g_high == pytest.approx(1.1, abs=1e-8)
    assert sol.g_star == pytest.approx(0.1, abs=1e-8)
    assert sol.regime is am.Regime.UNDERSTATE_INTERIOR


def test_unanimity_linear_three_branches(golden_economy):
    high = am.solve(golden_economy.with_outside_g(2.0))
    assert high.g_star == pytest.approx(1.1, abs=1e-8)
    assert high.regime is am.Regime.OVERSTATE_INTERIOR
    mid = am.solve(golden_economy.with_outside_g(0.5))
    assert mid.g_star == pytest.approx(0.5, abs=1e-12)
    assert mid.regime is am.Regime.OUTSIDE_OPTION
    assert mid.transfers == pytest.approx((0.25, 0.25), abs=1e-12)
    # closed boundary: the threshold itself belongs to the middle branch
    edge = am.solve(golden_economy.with_outside_g(high.thresholds.g_low))
    assert edge.regime is am.Regime.OUTSIDE_OPTION


# ---------------------------------------------------------------------------
# Linear majority
# ---------------------------------------------------------------------------


def test_majority_linear_golden_cap(majority_economy):
    sol = am.solve(majority_economy)
    # oracle: bisection on [0.5 + 1*0.8 + (2*0.8 - 1)] phi'(g) = 1, then the
    # efficiency cap Sum(theta) - 1
    raw = foc_level(LOG_PRIME, 0.5 + 0.8 + 0.6)
    eff = foc_level(LOG_PRIME, 0.5 + 0.2 + 0.8)
    assert raw == pytest.approx(0.9, abs=1e-8)
    assert eff == pytest.approx(0.5, abs=1e-8)
    assert sol.thresholds_raw.g_low == pytest.approx(raw, abs=1e-8)
    assert sol.g_star == pytest.approx(min(raw, eff), abs=1e-8)
    assert sol.coalition == frozenset({0, 2})
    assert sol.excluded == frozenset({1})
    assert sol.cutoff_types == (0.8,)


def test_majority_linear_high_branch_picks_lowest_coalition(majority_economy):
    sol = am.solve(majority_economy.with_outside_g(3.0))
    assert sol.regime in (am.Regime.OVERSTATE_INTERIOR, am.Regime.NON_MONOTONE_HIGH)
    assert sol.coalition == frozenset({0, 1})  # lowest-value coalition
    assert sol.excluded == frozenset({2})


def test_majority_linear_non_monotone_branches(majority_economy):
    low = am.solve(majority_economy)
    assert low.regime is am.Regime.NON_MONOTONE_LOW
    assert low.thresholds_raw.g_low > low.thresholds_raw.g_high
    high = am.solve(majority_economy.with_outside_g(0.7))
    assert high.regime is am.Regime.NON_MONOTONE_HIGH
    assert high.g_star == pytest.approx(0.1, abs=1e-8)
    # the boundary itself stays on the low branch
    edge = am.solve(majority_economy.with_outside_g(low.thresholds.g_low))
    assert edge.regime is am.Regime.NON_MONOTONE_LOW


def test_majority_linear_coalition_is_xi_extremal(log_tech):
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(3, 6)
        q = rng.randint(2, n - 1)
        types = tuple(round(rng.uniform(0.05, 0.95), 3) for _ in range(n - 1))
        if len(set(types)) != len(types):
            continue
        econ = am.Economy(rng.uniform(0.1, 1.0), types, am.uniform(0.0, 1.0),
                          log_tech, am.linear_reservation(log_tech, n), q, 0.0)
        sol = am.solve(econ)
        if sol.regime not in (am.Regime.UNDERSTATE_INTERIOR, am.Regime.NON_MONOTONE_LOW):
            continue
        xi = {frozenset(c): sum(econ.type_of(i) for i in c if i != 0)
              for c in all_coalitions(range(econ.n), q)}
        assert xi[sol.coalition] == pytest.approx(max(xi.values()), abs=1e-12)
        high = am.solve(econ.with_outside_g(8.0))
        if high.regime in (am.Regime.OVERSTATE_INTERIOR, am.Regime.NON_MONOTONE_HIGH):
            assert xi[high.coalition] == pytest.approx(min(xi.values()), abs=1e-12)


def test_majority_overstate_clamps_up_to_efficient(log_tech):
    # dropping the top agent pushes the upward-distorted level below the
    # efficient one; the exclusion stops paying there and provision pins at
    # the efficient level exactly
    econ = am.Economy(0.7, (0.25, 0.55), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 3), 2, 2.0)
    sol = am.solve(econ)
    assert sol.regime is am.Regime.OVERSTATE_INTERIOR
    assert sol.thresholds_raw.g_high == pytest.approx(0.45, abs=1e-8)
    assert sol.g_star == pytest.approx(am.efficient_level(econ), abs=1e-8)
    assert am.verify_solution(econ, sol).passed


def test_bunched_pool_identical_across_agents(log_tech):
    econ = am.Economy(0.5, (0.1, 0.2, 0.3, 0.9), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 5), 2, 0.0)
    sol = am.solve(econ)
    assert len(sol.bunched) == 3
    bundles = set()
    for i in sol.bunched:
        sched = sol.schedules[i - 1]
        bundles.add((round(float(sched.allocation(0.5)), 12),
                     round(float(sched.transfer(0.5)), 12)))
    assert len(bundles) == 1
    assert am.verify_solution(econ, sol).passed


def test_majority_g_star_monotone_as_quota_falls(log_tech):
    types = (0.55, 0.6, 0.65, 0.95)
    previous = -1.0
    eff = None
    for q in (5, 4, 3, 2):
        econ = am.Economy(0.5, types, am.uniform(0.0, 1.0), log_tech,
                          am.linear_reservation(log_tech, 5), q, 0.0)
        sol = am.solve(econ)
        eff = am.efficient_level(econ)
        assert sol.g_star >= previous - 1e-9
        assert sol.g_star <= eff + 1e-9
        previous = sol.g_star
    assert previous == pytest.approx(eff, abs=1e-8)  # cap reached exactly


# ---------------------------------------------------------------------------
# General curvature
# ---------------------------------------------------------------------------


def test_general_at_zero_outside_matches_understate(log_tech):
    base = dict(agenda_setter_type=0.6, agent_types=(0.45, 0.85),
                distributions=am.uniform(0.0, 1.0), tech=log_tech,
                quota=3, outside_g=0.0)
    expected = foc_level(LOG_PRIME, 0.6 + (2 * 0.45 - 1) + (2 * 0.85 - 1))
    for res in (am.quadratic_share_reservation(log_tech, 1.4, -0.5),
                am.quadratic_share_reservation(log_tech, 0.3, 0.5),
                am.linear_reservation(log_tech, 3)):
        econ = am.Economy(reservation=res, **base)
        sol = am.solve(econ)
        assert sol.g_star == pytest.approx(expected, abs=1e-8)
        assert sol.regime is am.Regime.UNDERSTATE_INTERIOR


def test_concave_unanimity_golden_blend(concave_economy):
    sol = am.solve(concave_economy)
    # closed form: the binding realized type 0.5 has slope ln2 * 0.9, so
    # g = 2**0.9 - 1 and the blended weight solves 2.8 - gamma = 1 + g
    assert sol.g_star == pytest.approx(2.0**0.9 - 1.0, abs=1e-9)
    assert sol.gamma.kind is am.GammaKind.INTERIOR_MASS
    assert sol.gamma.theta_star == pytest.approx(0.5, abs=1e-12)
    assert sol.gamma.at_star == pytest.approx(2.8 - 2.0**0.9, abs=1e-9)
    assert sol.cutoff_types[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.regime is am.Regime.MIXED_INTERIOR
    # consistency: the shadow-weight optimum reproduces the provision
    assert am.xi_argmax(concave_economy, sol.gamma) == pytest.approx(sol.g_star, abs=1e-9)
    part = sol.partition
    assert (sorted(part.K), sorted(part.L), sorted(part.M)) == ([1], [2], [3])


def test_concave_blend_split_scan_beats_damped_iteration(concave_economy):
    # the naive damped fixed point (guess cutoff, solve the split FOC,
    # recompute the cutoff, damping 0.5) cycles when the binding type lands
    # on a realized agent, which is why the solver scans split
    # configurations and bisects the blended weight instead
    import math as m

    ln2 = m.log(2.0)
    types = [0.3, 0.5, 0.8]

    def level_for(cutoff):
        w = 0.6 + sum((2 * t) if t < cutoff else (2 * t - 1.0) for t in types)
        return max(w - 1.0, 0.0)

    def crossing(g):
        return min(1.0, max(0.0, 1.4 - m.log1p(g) / ln2))

    c = 0.5
    tail = []
    for k in range(300):
        c = 0.5 * c + 0.5 * crossing(level_for(c))
        if k >= 250:
            tail.append(c)
    assert max(tail) - min(tail) > 0.1  # persistent cycle, no convergence

    sol = am.solve(concave_economy)
    assert sol.cutoff_types[0] == pytest.approx(0.5, abs=1e-12)
    # the fixed point the iteration is hunting is exactly the scan's answer
    assert crossing(sol.g_star) == pytest.approx(sol.cutoff_types[0], abs=1e-9)


def test_concave_unanimity_overstate_branch(concave_economy):
    sol = am.solve(concave_economy.with_outside_g(30.0))
    assert sol.regime is am.Regime.OVERSTATE_INTERIOR
    expected = foc_level(LOG_PRIME, 0.6 + 0.6 + 1.0 + 1.6)  # all upward hazards
    assert sol.g_star == pytest.approx(expected, abs=1e-8)
    assert sol.gamma.kind is am.GammaKind.POINT_MASS_AT_HIGH
    # at a lower outside level every realized agent still overstates, but the
    # binding type sits strictly inside the top gap
    mid = am.solve(concave_economy.with_outside_g(12.0))
    part = mid.partition
    assert part.K == frozenset({1, 2, 3}) and not part.M
    assert mid.cutoff_types[0] > 0.8


def test_concave_interior_anchor_between_realized_types(concave_economy):
    # a slightly lower outside level parks the binding type strictly between
    # realized agents: pure split, no blended weight
    econ = concave_economy.with_outside_g(0.9)
    sol = am.solve(econ)
    anchor = sol.cutoff_types[0]
    assert sol.gamma.kind is am.GammaKind.INTERIOR_MASS
    slope = float(econ.tech.phi(sol.g_star)) - float(econ.reservation.slope(anchor, 0.9))
    assert slope == pytest.approx(0.0, abs=1e-8)


def test_convex_unanimity_golden_constant(convex_economy):
    sol = am.solve(convex_economy)
    assert sol.g_star == pytest.approx(2.0**0.8 - 1.0, abs=1e-8)
    assert sol.gamma.kind is am.GammaKind.CONSTANT
    assert sol.gamma.gamma == pytest.approx((3.8 - 2.0**0.8) / 3.0, abs=1e-8)
    assert sol.cutoff_types == (0.0, 1.0)
    assert sol.regime is am.Regime.MIXED_INTERIOR
    assert am.xi_argmax(convex_economy, sol.gamma) == pytest.approx(sol.g_star, abs=1e-9)


def test_concave_blend_power_technology_closed_form():
    # root benefit: phi = sqrt(g), so the blend condition phi(g) = slope
    # target gives g = target^2 and the weight solves W = 2 sqrt(g)
    tech = am.power_technology(0.5)
    econ = am.Economy(0.6, (0.3, 0.5, 0.8), am.uniform(0.0, 1.0), tech,
                      am.quadratic_share_reservation(tech, 1.4, -0.5), 4, 1.21)
    sol = am.solve(econ)
    target = 1.1 * (1.4 - 0.5)  # sqrt(1.21) * w'(0.5)
    assert sol.g_star == pytest.approx(target**2, abs=1e-8)
    assert sol.gamma.theta_star == pytest.approx(0.5, abs=1e-12)
    assert sol.gamma.at_star == pytest.approx(2.8 - 2.0 * target, abs=1e-8)
    assert am.verify_solution(econ, sol).passed


def test_custom_distribution_and_technology_bisection_path():
    # scalar-only density f = 0.5 + x on [0, 1] and a bounded benefit with
    # no closed-form inverse: the solver falls back to bracketed bisection
    import math as m

    tilted = am.TypeDistribution(
        theta_lo=0.0, theta_hi=1.0,
        cdf=lambda x: 0.5 * x + 0.5 * x * x,
        pdf=lambda x: 0.5 + x,
        name="tilted")
    saturating = am.Technology(
        phi=lambda g: 1.0 - m.exp(-g),
        phi_prime=lambda g: m.exp(-g),
        name="saturating")
    econ = am.Economy(0.9, (0.8,), tilted, saturating,
                      am.zero_reservation(), 2, 0.0)
    assert am.validate_economy(econ).passed
    sol = am.solve(econ)
    # weight = 0.9 + [0.8 - (1 - F(0.8)) / f(0.8)]; level solves W e^{-g} = 1
    weight = 0.9 + (0.8 - (1.0 - 0.72) / 1.3)
    assert sol.g_star == pytest.approx(m.log(weight), abs=1e-8)
    assert am.verify_solution(econ, sol).passed


def test_concave_sweep_is_nondecreasing_staircase(concave_economy):
    grid = list(np.linspace(0.0, 3.0, 31))
    rows = [(g, am.solve(concave_economy.with_outside_g(g))) for g in grid]
    levels = [sol.g_star for _, sol in rows]
    assert all(b >= a - 1e-9 for a, b in zip(levels, levels[1:]))
    # genuinely stepped: strictly higher provision at the top than the bottom
    assert levels[-1] > levels[0] + 0.5


def test_convex_intermediate_tracks_average_slope(convex_economy):
    # with both support ends binding, the provision satisfies
    # phi(g) = [v_bar(hi) - v_bar(lo)] / (hi - lo)
    for g_circ in (0.8, 1.0, 1.4):
        econ = convex_economy.with_outside_g(g_circ)
        sol = am.solve(econ)
        assert sol.regime is am.Regime.MIXED_INTERIOR
        res = econ.reservation
        avg = (float(res.value(1.0, g_circ)) - float(res.value(0.0, g_circ)))
        assert float(econ.tech.phi(sol.g_star)) == pytest.approx(avg, abs=1e-7)


def test_negative_slope_reproduces_zero_reservation(log_tech):
    res_neg = am.negative_slope_reservation(log_tech, 1.0, 0.5)
    for types, quota in (((0.6, 0.9), 3), ((0.3, 0.6, 0.9), 2)):
        for g_circ in (0.0, 0.8, 2.0):
            n = len(types) + 1
            neg = am.Economy(0.5, types, am.uniform(0.0, 1.0), log_tech,
                             res_neg, quota, g_circ)
            zero = am.Economy(0.5, types, am.uniform(0.0, 1.0), log_tech,
                              am.zero_reservation(), quota, g_circ)
            s_neg, s_zero = am.solve(neg), am.solve(zero)
            assert s_neg.g_star == pytest.approx(s_zero.g_star, abs=1e-12)
            assert s_neg.coalition == s_zero.coalition
            assert s_neg.excluded == s_zero.excluded


# ---------------------------------------------------------------------------
# Majority with curvature: exclusion structure
# ---------------------------------------------------------------------------


def test_concave_majority_non_convex_coalition(concave_window_economy):
    sol = am.solve(concave_window_economy)
    assert sol.coalition == frozenset({0, 1, 4})
    assert sol.excluded == frozenset({2, 3})
    # coalition is non-convex in type order: an excluded type sits strictly
    # between two members
    types_in = sorted(concave_window_economy.type_of(i) for i in sol.coalition if i)
    types_out = sorted(concave_window_economy.type_of(i) for i in sol.excluded)
    assert types_in[0] < types_out[0] and types_out[-1] < types_in[-1]
    # frozen closed form: 0.7 ln(3.7 - 2 gamma) = ln(2.3) * 0.595
    g_expected = 2.3**0.85 - 1.0
    assert sol.g_star == pytest.approx(g_expected, abs=1e-8)
    assert am.xi_argmax(concave_window_economy, sol.gamma) == pytest.approx(
        sol.g_star, abs=1e-8)
    # excluded agents fail participation strictly; coalition members hold it
    rep = am.verify_solution(concave_window_economy, sol)
    slack = dict(rep.participation_slack)
    assert slack[2] < -1e-6 and slack[3] < -1e-6
    assert slack[1] >= -1e-9 and slack[4] >= -1e-9


def test_convex_majority_excludes_tails_only(convex_tail_economy):
    sol = am.solve(convex_tail_economy)
    order = convex_tail_economy.sorted_agents()
    r = len(order)
    assert sol.excluded
    rank_set = {order.index(i) for i in sol.excluded}
    # tails only: every excluded rank lies in a bottom prefix or top suffix
    k_lo = 0
    while k_lo in rank_set:
        k_lo += 1
    k_hi = 0
    while (r - 1 - k_hi) in rank_set:
        k_hi += 1
    assert len(rank_set) == k_lo + k_hi


def test_concave_majority_uniform_low_excludes_mechanically(log_tech):
    # in the all-understate regime the cheapest tail is forced in and bunched
    # even when keeping everyone voluntary would pay the proposer more at
    # this particular realized profile
    res = am.quadratic_share_reservation(log_tech, 1.4, -0.5)
    econ = am.Economy(0.6, (0.55, 0.7, 0.9), am.uniform(0.0, 1.0), log_tech,
                      res, 3, 0.1)
    sol = am.solve(econ)
    assert sol.regime is am.Regime.UNDERSTATE_INTERIOR
    assert sol.excluded == frozenset({1})
    assert sol.cutoff_types == (0.7,)
    # [0.6 + 0.7 + (2*0.7 - 1) + (2*0.9 - 1)] phi'(g) = 1
    assert sol.g_star == pytest.approx(foc_level(LOG_PRIME, 2.5), abs=1e-8)
    assert am.verify_solution(econ, sol).passed


def test_general_quota_monotonicity(log_tech):
    res = am.quadratic_share_reservation(log_tech, 1.4, -0.5)
    previous = -1.0
    for q in (4, 3, 2):
        econ = am.Economy(0.6, (0.55, 0.7, 0.9), am.uniform(0.0, 1.0), log_tech,
                          res, q, 0.1)
        sol = am.solve(econ)
        assert sol.g_star >= previous - 1e-9
        assert sol.g_star <= am.efficient_level(econ) + 1e-9
        previous = sol.g_star
    assert previous == pytest.approx(am.efficient_level(econ), abs=1e-8)


def test_exclusion_bounded_by_quota_slack(concave_window_economy):
    sol = am.solve(concave_window_economy)
    n, q = concave_window_economy.n, concave_window_economy.quota
    assert len(sol.excluded) <= n - q
    assert len(sol.coalition) == q
    assert 0 in sol.coalition
    assert not (sol.excluded & sol.coalition)


# ---------------------------------------------------------------------------
# Sweeps and threshold tables
# ---------------------------------------------------------------------------


def test_sweep_three_segment_shape(golden_economy):
    grid = list(np.round(np.arange(0.0, 2.0001, 0.05), 10))
    rows = [(g, am.solve(golden_economy.with_outside_g(g))) for g in grid]
    for g_circ, sol in rows:
        if g_circ < 0.1 - 1e-9:
            assert sol.g_star == pytest.approx(0.1, abs=1e-8)
        elif g_circ <= 1.1 + 1e-9:
            assert sol.g_star == pytest.approx(g_circ, abs=1e-8)
        else:
            assert sol.g_star == pytest.approx(1.1, abs=1e-8)


def test_sweep_non_monotone_downward_jump(majority_economy):
    grid = np.linspace(0.0, 1.2, 25)
    rows = [(g, am.solve(majority_economy.with_outside_g(g))) for g in grid]
    levels = [sol.g_star for _, sol in rows]
    drops = [b - a for a, b in zip(levels, levels[1:])]
    assert min(drops) < -0.3  # a genuine downward jump
    assert rows[0][1].g_star == pytest.approx(0.5, abs=1e-8)
    assert rows[-1][1].g_star == pytest.approx(0.1, abs=1e-8)


def test_allocation_monotone_in_own_report(concave_economy):
    sol = am.solve(concave_economy)
    grid = np.linspace(0.0, 1.0, 41)
    for sched in sol.schedules:
        allocs = np.asarray(sched.allocation(grid))
        assert (np.diff(allocs) >= -1e-9).all()


def test_threshold_table_concave_ladder(concave_economy):
    table = am.threshold_table(concave_economy)
    rungs = table.intermediate
    assert len(rungs) == 3
    assert all(a.g_circ <= b.g_circ + 1e-9 for a, b in zip(rungs, rungs[1:]))
    assert [r.k for r in rungs] == [0, 1, 2]
    assert [r.l for r in rungs] == [1, 2, 3]
    # between consecutive rungs the solution level is a step: re-solve inside
    lo, hi = rungs[0].g_circ, rungs[-1].g_circ
    assert lo < 1.0 < hi  # the golden outside level sits inside the ladder


def test_threshold_table_convex_indices_fall(convex_economy):
    table = am.threshold_table(convex_economy)
    ks = [r.k for r in table.intermediate]
    assert ks == sorted(ks, reverse=True)


def test_threshold_table_linear_has_no_ladder(golden_economy, monkeypatch):
    solved = []
    monkeypatch.setattr(regimes, "solve", lambda econ: solved.append(econ) or am.solve(econ))
    table = am.threshold_table(golden_economy)
    assert solved == [golden_economy]  # the linear table needs no g_circ = 0 solve
    assert table.intermediate == ()
    assert table.g_low == pytest.approx(0.1, abs=1e-8)
    assert table.g_high == pytest.approx(1.1, abs=1e-8)


def _pinned_table_economy(name, log_tech):
    """The convex_economy fixture with one part changed: quota 3, a log
    technology without closed forms, or a negative-slope reservation."""
    stripped = am.Technology(phi=log_tech.phi, phi_prime=log_tech.phi_prime, name="log-nofast")
    tech = stripped if name == "stripped" else log_tech
    res = (am.negative_slope_reservation(tech, 1.0, 0.5) if name == "negative_slope"
           else am.quadratic_share_reservation(tech, 0.3, 0.5))
    quota = 3 if name == "quota_3" else 4
    return am.Economy(0.6, (0.3, 0.5, 0.8), am.uniform(0.0, 1.0), tech, res, quota, 1.0)


# recorded from the full-solve ladder before convex unanimity rungs read the
# level alone
PINNED_TABLES = {
    "convex": ThresholdTable(1.0748977465688436e-12, 8.253499255570464, (
        LadderRung(1.0748977465688436e-12, 3, 3), LadderRung(0.534699454767783, 2, 2),
        LadderRung(8.253499255570464, 1, 1))),
    "quota_3": ThresholdTable(0.6199403363417946, 3.9479776113417273, (
        LadderRung(0.6199403363417946, 3, 3), LadderRung(2.542245269711822, 2, 2),
        LadderRung(3.9479776113417273, 1, 1))),
    "stripped": ThresholdTable(7.937408306350417e-11, 8.25349925564133, (
        LadderRung(7.937408306350417e-11, 3, 3), LadderRung(3.276383941450553, 2, 2),
        LadderRung(8.25349925564133, 1, 1))),
    "negative_slope": ThresholdTable(0.0, 0.0, ()),
}


@pytest.mark.parametrize("name", list(PINNED_TABLES))
def test_threshold_table_pinned(name, log_tech, convex_economy):
    econ = convex_economy if name == "convex" else _pinned_table_economy(name, log_tech)
    assert am.threshold_table(econ) == PINNED_TABLES[name]


@pytest.mark.xfail(strict=True, reason="the middle type's flip is rounding noise over g_circ "
                   "0.3-4, so the k = 2 rung depends on the closed forms")
def test_threshold_table_convex_rung_independent_of_closed_forms(log_tech, convex_economy):
    fast = am.threshold_table(convex_economy).intermediate
    stripped = am.threshold_table(_pinned_table_economy("stripped", log_tech)).intermediate
    assert [r.k for r in fast] == [r.k for r in stripped]
    rung = {r.k: r.g_circ for r in fast}[2]
    assert rung == pytest.approx({r.k: r.g_circ for r in stripped}[2], abs=1e-6)


def test_threshold_table_convex_builds_no_schedules(convex_economy, monkeypatch):
    built, solves = [], []
    init, solve = FocSchedule.__init__, regimes.solve
    monkeypatch.setattr(FocSchedule, "__init__",
                        lambda self, *a, **kw: built.append(a[1]) or init(self, *a, **kw))
    monkeypatch.setattr(regimes, "solve", lambda econ: solves.append(econ) or solve(econ))
    regimes.solve(convex_economy.with_outside_g(0.0))
    assert built and solves  # the spies see a solve and its schedules
    built.clear()
    solves.clear()
    assert am.threshold_table(convex_economy).intermediate
    assert built == [] and solves == []  # not even for the bracket's cap


def _workloads():
    """The benchmark's input generators, `perfbench/workloads.py`."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _ladder_pool_economies():
    """The first 12 economies of the benchmark's ladder pool, then a
    three-agent one of them with its first agent at the top and at the
    bottom of the type support, with a truncated-normal first agent, and
    with its log technology's closed forms stripped."""
    pool = [_workloads().ladder_economy(am, i) for i in range(12)]
    econ = next(e for e in pool if e.n == 3 and e.tech.name == "log")
    rest = econ.agent_types[1:]
    return [*pool,
            dataclasses.replace(econ, agent_types=(econ.theta_hi, *rest)),
            dataclasses.replace(econ, agent_types=(econ.theta_lo, *rest)),
            dataclasses.replace(econ, distributions=(am.truncated_normal(0.4, 0.3),
                                                     econ.distributions[1])),
            dataclasses.replace(econ, tech=dataclasses.replace(
                econ.tech, weighted_argmax=None, phi_inverse=None))]


def _outcome(read):
    try:
        return read()
    except am.SolverError as exc:
        return type(exc)


def test_threshold_table_reads_the_level_solve_finds(monkeypatch):
    """Every level a convex unanimity ladder reads, at its own probes and at
    25 outside levels up to its bracket cap, is the float `solve` returns,
    or both raise the same exception class. The cap is the table's own ends'
    level at shadow weight 0, the high threshold `solve` posts at 0."""
    configuration = regimes._convex_configuration
    probes = []
    monkeypatch.setattr(regimes, "_convex_configuration",
                        lambda at, ends: probes.append((at, ends)) or configuration(at, ends))
    for econ in _ladder_pool_economies():
        probes.clear()
        am.threshold_table(econ)
        ends = probes[0][1]  # the table's own, kept across its probes
        assert len(probes) > 20 and all(e is ends for _, e in probes)
        assert probes[0][0].outside_g == 0.0  # the first rung probes 0 before the cap is read
        assert am.solve(econ.with_outside_g(0.0)).thresholds.g_high == ends[0][1]

        def level(at):
            g = configuration(at, ends)[3]
            partition_types(at, g)  # as the ladder does
            return g

        hi_cap = max(8.0, 16.0 * ends[0][1] + 8.0)
        grid = [econ.with_outside_g(float(gc)) for gc in np.linspace(0.0, hi_cap, 25)]
        for at in [at for at, _ in probes[::16]] + grid:
            assert _outcome(lambda: level(at)) == _outcome(lambda: am.solve(at).g_star)


def test_ladder_reads_phi_once_per_level(monkeypatch):
    """On the ladder pool's first eight economies, built on technologies that
    count their scalar phi calls, a convex table makes at most 3.5 of them
    per `_convex_configuration` probe (8.91 when every probe read phi at the
    table's end levels, its own level twice and the outside level at each
    reservation call) and reads phi once per table at each level its
    `_convex_ends` keeps, besides the reservation's one read per probe of an
    outside level that equals it (a level 0 and the probes at 0)."""
    calls, probes, ends = [], [], []

    def counting(make):
        def build(*args):
            tech = make(*args)
            phi = tech.phi
            return dataclasses.replace(
                tech, phi=lambda g: (np.ndim(g) == 0 and calls.append(float(g))) or phi(g))
        return build

    pool = SimpleNamespace(**vars(am))
    pool.log_technology = counting(am.log_technology)
    pool.power_technology = counting(am.power_technology)
    configuration, convex_ends = regimes._convex_configuration, regimes._convex_ends
    monkeypatch.setattr(regimes, "_convex_configuration",
                        lambda at, e: probes.append(at.outside_g) or configuration(at, e))
    monkeypatch.setattr(regimes, "_convex_ends",
                        lambda econ: ends.append(convex_ends(econ)) or ends[-1])
    read = 0
    for index in range(8):
        start, first = len(calls), len(probes)
        am.threshold_table(_workloads().ladder_economy(pool, index))
        kept = {g.hex() for g in (*ends[-1][0], *(c[5] for c in ends[-1][1].values()))}
        table = [g.hex() for g in calls[start:]]
        outside = [float(g).hex() for g in probes[first:]]
        for g in kept:
            assert table.count(g) == 1 + outside.count(g), (index, g, outside.count(g))
        read += len(kept)
    assert len(ends) == 8 and read >= 16 and len(probes) > 500
    assert len(calls) <= 3.5 * len(probes), (len(calls), len(probes))


def test_uniform_sign_coalition_is_agenda_setter_and_members(log_tech, monkeypatch):
    """Below unanimity, a uniform-sign solution's coalition is the agenda
    setter plus every agent it does not exclude, on linear, negative-slope
    and curved profiles and on both sides."""
    candidate = regimes._uniform_sign_candidate
    made = []

    def spy(econ, side, *args, **kwargs):
        sol = candidate(econ, side, *args, **kwargs)
        if sol is not None and econ.quota < econ.n:
            made.append((econ.reservation.curvature, side, sol, econ))
        return sol

    monkeypatch.setattr(regimes, "_uniform_sign_candidate", spy)
    profiles = (am.linear_reservation(log_tech, 5), am.negative_slope_reservation(log_tech, 1.0, 0.5),
                am.quadratic_share_reservation(log_tech, 0.3, 0.5),
                am.quadratic_share_reservation(log_tech, 1.4, -0.5))
    for res in profiles:
        for quota in (2, 3, 4):
            for g_circ in (0.0, 0.5, 2.0, 10.0):
                am.solve(am.Economy(0.6, (0.2, 0.35, 0.5, 0.8), am.uniform(0.0, 1.0), log_tech,
                                    res, quota, g_circ))
    for _, _, sol, econ in made:
        assert sol.excluded
        assert sol.coalition == {am.AGENDA_SETTER, *(set(econ.agents) - sol.excluded)}
    seen = {(curv, side) for curv, side, _, _ in made}
    assert {(curv, "low") for curv in am.Curvature} <= seen
    assert (am.Curvature.LINEAR, "high") in seen


# ---------------------------------------------------------------------------
# Stochastic coalitions
# ---------------------------------------------------------------------------


@pytest.fixture
def five_agent_economy(log_tech):
    return am.Economy(0.5, (0.2, 0.4, 0.6, 0.8), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 5), 3, 0.2)


def test_stochastic_coalition_deterministic(five_agent_economy):
    a = am.solve_stochastic_coalition(five_agent_economy, seed=11, tau_bar=0.05)
    b = am.solve_stochastic_coalition(five_agent_economy, seed=11, tau_bar=0.05)
    assert a.coalition == b.coalition
    assert a.g_star == b.g_star
    assert a.transfers == b.transfers


def test_stochastic_coalition_degenerate_draw(five_agent_economy):
    econ = five_agent_economy.with_quota(5)
    stoch = am.solve_stochastic_coalition(econ, seed=3, tau_bar=0.0)
    plain = am.solve(econ)
    assert stoch.coalition == frozenset(range(5))
    assert stoch.g_star == pytest.approx(plain.g_star, abs=1e-12)


def test_stochastic_coalition_zero_tax_resource_ok(five_agent_economy):
    sol = am.solve_stochastic_coalition(five_agent_economy, seed=2, tau_bar=0.0)
    outsiders = set(five_agent_economy.agents) - sol.coalition
    for i in outsiders:
        assert sol.transfers[i] == 0.0
    assert sum(sol.transfers) >= sol.g_star - 1e-9
    rep = am.verify_solution(five_agent_economy, sol,
                             agents=sorted(sol.coalition - {0}))
    assert rep.passed, rep.summary()


def test_stochastic_coalition_quota_one(five_agent_economy):
    sol = am.solve_stochastic_coalition(five_agent_economy.with_quota(1), seed=9,
                                        tau_bar=0.1)
    assert sol.coalition == frozenset({0})
    assert all(sol.transfers[i] == 0.1 for i in five_agent_economy.agents)


@pytest.mark.parametrize("tau_bar", [math.nan, math.inf, -math.inf, -0.1])
def test_stochastic_coalition_rejects_bad_tax(five_agent_economy, tau_bar):
    with pytest.raises(am.InvalidEconomy, match="tau_bar must be finite and nonnegative"):
        am.solve_stochastic_coalition(five_agent_economy, seed=1, tau_bar=tau_bar)


def test_stochastic_coalition_schedules_keep_their_distribution(log_tech):
    dists = (am.uniform(0.0, 1.0), am.truncated_exponential(1.5, 0.0, 1.0),
             am.truncated_normal(0.6, 0.3, 0.0, 1.0), am.uniform(0.0, 1.0))
    econ = am.Economy(1.5, (0.55, 0.7, 0.8, 0.95), dists, log_tech,
                      am.linear_reservation(log_tech, 5), 3, 0.0)
    grid = np.linspace(0.0, 1.0, 17)
    shifted = 0
    for seed in range(8):
        sol = am.solve_stochastic_coalition(econ, seed, tau_bar=0.05)
        members = sorted(sol.coalition - {0})
        inner = am.solve(econ.restricted_to(members))
        for pos, i in enumerate(members):
            sched, want = sol.schedules[i - 1], inner.schedules[pos]
            assert sched.agent == i and want.agent == pos + 1
            assert sched.kind == want.kind == "foc"
            for method in ("allocation", "transfer", "rent"):
                assert (np.asarray(getattr(sched, method)(grid)).tolist()
                        == np.asarray(getattr(want, method)(grid)).tolist())
            shifted += i != pos + 1
    assert shifted  # some member sits at another index in the sub-economy


@pytest.mark.parametrize("fixture", ["golden_economy", "concave_economy", "convex_economy"])
def test_posted_solution_leaves_every_agent_its_reservation(fixture, request):
    econ = request.getfixturevalue(fixture)
    d = float(econ.reservation.slope(econ.agent_types[0], econ.outside_g))
    for g in (econ.outside_g, invert_phi(econ.tech, d)):
        sol = _posted_solution(econ, g)
        assert sol.regime is am.Regime.OUTSIDE_OPTION
        assert sol.g_star == g
        report = am.verify_solution(econ, sol)
        assert report.passed, report.summary()
        for agent, slack in report.participation_slack:
            if agent != 0:
                assert abs(slack) <= 1e-12


def test_solution_invariants_randomized():
    from conftest import random_economy

    rng = random.Random(31415)
    for _ in range(60):
        econ = random_economy(rng, curvatures=("linear", "concave", "convex", "negative"))
        sol = am.solve(econ)
        assert len(sol.coalition) == econ.quota
        assert 0 in sol.coalition
        assert len(sol.excluded) <= econ.n - econ.quota
        assert not (sol.excluded & sol.coalition)
        assert sol.gamma.is_valid_cdf(econ.theta_lo, econ.theta_hi)
        if sol.regime is not am.Regime.OUTSIDE_OPTION:
            assert sum(sol.transfers) == pytest.approx(sol.g_star, abs=1e-9)
        phi_g = float(econ.tech.phi(sol.g_star))
        for i in sol.coalition:
            if i == 0:
                continue
            theta = econ.type_of(i)
            slack = theta * phi_g - sol.transfers[i] - float(
                econ.reservation.value(theta, econ.outside_g))
            assert slack >= -1e-9


def test_unanimity_weight_ordering_brackets_efficiency(log_tech):
    # downward-distorted solutions sit below the efficient level and
    # upward-distorted solutions above it whenever the quota is unanimity
    rng = random.Random(21)
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 5)
        econ = am.Economy(rng.uniform(0.2, 1.0),
                          tuple(rng.uniform(0.05, 0.95) for _ in range(n - 1)),
                          am.uniform(0.0, 1.0), log_tech,
                          am.linear_reservation(log_tech, n), n,
                          rng.uniform(0.0, 2.5))
        sol = am.solve(econ)
        eff = am.efficient_level(econ)
        if sol.regime is am.Regime.UNDERSTATE_INTERIOR:
            assert sol.g_star <= eff + 1e-9
        elif sol.regime is am.Regime.OVERSTATE_INTERIOR:
            assert sol.g_star >= eff - 1e-9
        seen.add(sol.regime)
    assert am.Regime.UNDERSTATE_INTERIOR in seen and am.Regime.OVERSTATE_INTERIOR in seen


def test_coalition_tie_break_lexicographic(log_tech):
    econ = am.Economy(0.5, (0.4, 0.4, 0.9, 0.4), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 5), 3, 0.0)
    sol = am.solve(econ)
    # among the tied 0.4 types the smallest index joins the coalition
    assert sol.coalition == frozenset({0, 1, 3})
    assert sol.excluded == frozenset({2, 4})
    assert am.verify_solution(econ, sol).passed


# ---------------------------------------------------------------------------
# Every solution field, pinned
# ---------------------------------------------------------------------------

# case: (fixture, solver, expected record); the records were written down
# from the solver before its regimes shared one solution constructor, and
# every float is compared exactly.
PINNED = {
    "golden": (
        "golden_economy", am.solve,
        (0.10000000000000009, "understate_interior", [0, 1], [], [], (0.0,), ([], [], [1]),
         "point mass at support bottom", (0.026172455048905904, 0.07382754495109418),
         (0.10000000000000009, 1.1), (0.10000000000000009, 1.1), ())),
    "majority": (
        "majority_economy", am.solve,
        (0.5, "non_monotone_low", [0, 2], [1], [1], (0.8,), ([], [], [1, 2]),
         "mass at theta=0.8 (weight 1 on the point)",
         (0.12163953243244086, 0.18918023378377957, 0.18918023378377957),
         (0.5, 0.10000000000000009), (0.9000000000000001, 0.10000000000000009),
         ("non-monotone thresholds: raw low 0.9 exceeds raw high 0.1",))),
    "concave": (
        "concave_economy", am.solve,
        (0.866065983073615, "mixed_interior", [0, 1, 2, 3], [], [], (0.5,), ([1], [2], [3]),
         "mass at theta=0.5 (weight 0.933934016926 on the point)",
         (1.0984138228403646, -0.07831733598119764, -0.08664339756999306, -0.06738710621555874),
         (0.0, 2.8000000000000003), (0.0, 2.8000000000000003), ())),
    "convex": (
        "convex_economy", am.solve,
        (0.7411011265915477, "mixed_interior", [0, 1, 2, 3], [], [], (0.0, 1.0),
         ([3], [2], [1]), "constant 0.686299624469 with end-point jumps",
         (0.577067217556799, 0.0559979813940687, 0.08664339756979197, 0.021392530070888024),
         (0.0, 2.8000000000000003), (0.0, 2.8000000000000003), ())),
    "concave_window": (
        "concave_window_economy", am.solve,
        (1.029872035758399, "mixed_interior", [0, 1, 4], [2, 3], [], (0.2, 0.9),
         ([1, 2], [3], [4]), "piecewise [0,0.2)=0, [0.2,0.9)=0.835064, [0.9,1)=1",
         (1.3764399554638413, -0.09898865896164105, -0.07496182106420896, -0.07496182106420894,
          -0.0976556186153835),
         (1.5, 1.7000000000000002), (1.5, 1.7000000000000002),
         ("excluded interior window of 2 agent(s)",))),
    "convex_tail": (
        "convex_tail_economy", am.solve,
        (1.5499999999999998, "understate_interior", [0, 3, 4], [1, 2], [1, 2], (0.55,),
         ([], [], [1, 2, 3, 4]), "mass at theta=0.55 (weight 1 on the point)",
         (0.8117483517582929, 0.12702881170337318, 0.12702881170337318, 0.12702881170337318,
          0.3571652131315875),
         (1.5499999999999998, 1.5499999999999998), (1.6, 1.5), ())),
    "golden_posted": (
        "golden_economy", lambda e: am.solve(e.with_outside_g(0.5)),
        (0.5, "outside_option", [0, 1], [], [], (), ([], [1], []),
         "constant 0.6 with end-point jumps", (0.25, 0.25), (0.10000000000000009, 1.1),
         (0.10000000000000009, 1.1), ())),
    "window_trimmed": (
        "concave_window_economy", lambda e: am.solve(e.with_quota(2).with_outside_g(1.0)),
        (0.9000000000000001, "mixed_interior", [0, 1], [2, 3], [], (0.2, 0.9),
         ([1, 2], [], [3, 4]), "piecewise [0,0.2)=0, [0.2,0.9)=0.9, [0.9,1)=1",
         (1.1051535154173964, -0.06241468912654562, -0.05184748971110685, -0.05184748971110676,
          -0.03904384686863699),
         (1.6, 1.6), (3.0, 0.5), ("excluded interior window of 2 agent(s)",))),
    "tails_both": (
        "convex_tail_economy", lambda e: am.solve(e.with_quota(2).with_outside_g(2.0)),
        (1.4082246852813118, "mixed_interior", [0, 2], [1, 4], [1, 4], (0.45, 0.55),
         ([3, 4], [], [1, 2]), "piecewise [0,0.45)=0, [0.45,0.55)=0.545888, [0.55,1)=1",
         (1.063574671946969, 0.09710816953751991, 0.09710816953751991, 0.07521683712965149,
          0.07521683712965149),
         (1.5499999999999998, 1.5499999999999998), (3.25, 0.0),
         ("excluded tails (1 low, 1 high)",))),
    "stochastic_quota_one": (
        "convex_tail_economy", lambda e: am.solve_stochastic_coalition(
        dataclasses.replace(e, agenda_setter_type=1.6, quota=1), 4, 0.05),
        (0.6000000000000001, "understate_interior", [0], [1, 2, 3, 4], [], (),
         ([2, 3, 4], [], [1]), "point mass at support bottom",
         (0.4000000000000001, 0.05, 0.05, 0.05, 0.05), (0.6000000000000001, 0.6000000000000001),
         (0.6000000000000001, 0.6000000000000001),
         ("singleton coalition (seed 4); outsiders taxed 0.05",))),
    "stochastic_drawn": (
        "concave_window_economy", lambda e: am.solve_stochastic_coalition(e, 1, 0.1),
        (1.0298720357589022, "mixed_interior", [0, 2, 3], [1, 4], [], (0.55,),
         ([1, 2], [3], [4]), "mass at theta=0.55 (weight 0.470127964241 on the point)",
         (1.0795857543383436, 0.1, -0.12373621373550692, -0.1259775048439344, 0.1), (0.0, 1.5),
         (0.0, 1.5), ("coalition drawn with seed 1; outsiders taxed 0.1",))),
    "negative_slope": (
        "majority_economy", lambda e: am.solve(_negative_slope(e).with_quota(3)),
        (0.5, "understate_interior", [0, 1, 2], [], [], (0.0,), ([], [], [1, 2]),
         "point mass at support bottom",
         (1.5866063162815798, -0.6637323911270501, -0.42287392515452965),
         (0.5, 0.5), (0.5, 0.5), ())),
    "negative_slope_capped": (
        "majority_economy", lambda e: am.solve(_negative_slope(e)),
        (1.5, "understate_interior", [0, 2], [1], [1], (0.8,), ([], [], [1, 2]),
         "mass at theta=0.8 (weight 1 on the point)",
         (2.5363987687485343, -0.5181993843742672, -0.5181993843742672), (1.5, 1.5), (1.9, 1.9),
         ())),
    "window_tied": (
        "concave_window_economy", lambda e: am.solve(_tied_middle(e)),
        (1.029872035759536, "mixed_interior", [0, 1, 5], [2, 3, 4], [], (0.2, 0.9),
         ([1, 2, 3, 4], [], [5]), "piecewise [0,0.2)=0, [0.2,0.9)=0.890043, [0.9,1)=1",
         (1.4514017765282416, -0.09898865896144235, -0.07496182106409693, -0.07496182106409693,
          -0.07496182106409693, -0.0976556186149726),
         (1.7999999999999998, 2.4), (1.7999999999999998, 2.4),
         ("excluded interior window of 3 agent(s)",))),
}


def _tied_middle(econ):
    """Three tied middle agents: every window whose neighbours are two of
    them has no width and is skipped."""
    return dataclasses.replace(econ, agent_types=(0.2, 0.5, 0.5, 0.5, 0.9),
                               distributions=am.uniform(0.0, 1.0))


def _negative_slope(econ):
    """The economy with a decreasing outside option, a proposer of type 1.5
    and outside level 1: at quota 2 of 3 the raw level 1.9 caps at the
    efficient 1.5."""
    return dataclasses.replace(econ, agenda_setter_type=1.5, outside_g=1.0,
                               reservation=am.negative_slope_reservation(econ.tech, 1.0, 0.5))


def _record(sol):
    p = sol.partition
    return (sol.g_star, sol.regime.value, sorted(sol.coalition), sorted(sol.excluded),
            sorted(sol.bunched), sol.cutoff_types, (sorted(p.K), sorted(p.L), sorted(p.M)),
            sol.gamma.describe(), sol.transfers,
            (sol.thresholds.g_low, sol.thresholds.g_high),
            (sol.thresholds_raw.g_low, sol.thresholds_raw.g_high), sol.notes)


@pytest.mark.parametrize("case", list(PINNED))
def test_every_solution_field_pinned(case, request):
    fixture, solver, expected = PINNED[case]
    assert _record(solver(request.getfixturevalue(fixture))) == expected


@pytest.mark.parametrize("fixture, g_circ, note", [
    ("concave_window_economy", None, "excluded interior window"),
    ("convex_tail_economy", 2.0, "excluded tails"),
])
def test_exclusion_candidates_read_no_distribution(request, monkeypatch, fixture, g_circ, note):
    econ = request.getfixturevalue(fixture)
    if g_circ is not None:
        econ = econ.with_outside_g(g_circ)
    callers = []
    cdf = am.TypeDistribution.F

    def spy(self, theta):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return cdf(self, theta)

    monkeypatch.setattr(am.TypeDistribution, "F", spy)
    sol = am.solve(econ)
    assert any(n.startswith(note) for n in sol.notes)
    assert callers and "agendamech.regimes" not in callers


# ---------------------------------------------------------------------------
# Candidate competition: bound first, assemble only what can win
# ---------------------------------------------------------------------------


SWEEP_FIXTURES = ["golden_economy", "majority_economy", "concave_economy", "convex_economy",
                  "concave_window_economy", "convex_tail_economy"]


def _outputs(econ):
    """`solve`'s record as the CLI writes it (oracle fields stubbed) and each
    schedule's level and transfer bytes at 9 reports, or the exception class."""
    try:
        sol = am.solve(econ)
    except (am.SolverError, am.InvalidEconomy) as exc:
        return type(exc)
    oracle = SimpleNamespace(passed=True, dsic_ok=True, monotone_ok=True, participation_ok=True,
                             budget_slack=0.0, tolerance=0.0, grid_size=0, summary=lambda: "")
    reports = np.linspace(econ.theta_lo, econ.theta_hi, 9)
    return (cli._solution_record(econ, sol, oracle),
            [(np.asarray(s.allocation(reports)).tobytes(), np.asarray(s.transfer(reports)).tobytes())
             for s in sol.schedules])


def test_skipped_candidates_never_change_the_winner(request, monkeypatch):
    """Every solve that reaches the candidate competition, on the six fixtures
    over the sweep grid 0:3:31 and on the corpus pool's first 256 draws at
    every quota below n, gives the same record and schedule floats as a solve
    that assembles every candidate (the payoff bound patched to +inf), and
    the bound does skip candidates there."""
    economies = [request.getfixturevalue(name).with_outside_g(g)
                 for name in SWEEP_FIXTURES for g in cli._parse_grid("0:3:31")]
    corpus = [_workloads().corpus_economy(am, i) for i in range(256)]
    economies += [e.with_quota(q) for e in corpus for q in range(1, e.n + 1)]
    curved = (am.Curvature.CONCAVE, am.Curvature.CONVEX)  # no other shape competes, nor unanimity
    economies = [e for e in economies if e.reservation.curvature in curved and e.quota < e.n]
    competed, built = [], []
    better_of, init = regimes._better_of, FocSchedule.__init__
    monkeypatch.setattr(regimes, "_better_of",
                        lambda econ, candidates: competed.append(1) or better_of(econ, candidates))
    monkeypatch.setattr(FocSchedule, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    compared, pruned_builds, full_builds = 0, 0, 0
    for econ in economies:
        competed.clear()
        built.clear()
        pruned = _outputs(econ)
        if not competed:
            continue
        pruned_builds += len(built)
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(regimes, "_payoff_bound", lambda *args: math.inf)
            assert _outputs(econ) == pruned
        full_builds += len(built)
        compared += 1
    assert compared >= 250
    assert pruned_builds < 0.8 * full_builds, (pruned_builds, full_builds)


@pytest.mark.parametrize("g_circ, pruned, full", [(1.3, 8, 12), (2.0, 4, 8)])
def test_candidates_that_cannot_win_build_no_schedules(concave_window_economy, monkeypatch,
                                                       g_circ, pruned, full):
    """On the concave-window fixture each assembled candidate builds four
    schedules. At g_circ 1.3 the unanimity candidate's payoff bound, -1.0334,
    lies below the winning window's payoff, -1.0225, so its schedules are
    never built; at 2.0 only the winner is assembled."""
    econ = concave_window_economy.with_outside_g(g_circ)
    built = []
    init = FocSchedule.__init__
    monkeypatch.setattr(FocSchedule, "__init__",
                        lambda self, *a, **kw: built.append(a[1]) or init(self, *a, **kw))
    sol = am.solve(econ)
    assert len(built) == pruned
    if g_circ == 1.3:
        bound, _ = regimes._curved_unanimity(econ.with_quota(econ.n))
        assert bound() == pytest.approx(-1.0334, abs=1e-4)
        assert am.agenda_setter_payoff(econ, sol) == pytest.approx(-1.0225, abs=1e-4)
    built.clear()
    monkeypatch.setattr(regimes, "_payoff_bound", lambda *args: math.inf)
    assert _record(am.solve(econ)) == _record(sol)
    assert len(built) == full


@pytest.mark.parametrize("fixture, g_circ", [("concave_window_economy", 1.3),
                                             ("convex_tail_economy", 2.0)])
def test_bisected_levels_build_every_candidate_where_configured(request, monkeypatch, fixture,
                                                                g_circ):
    """Without a closed-form level a schedule build bisects each report's
    level and can raise, so each candidate is built where it is configured,
    before the competition, and none is skipped: as many builds as with the
    closed form and every candidate assembled."""
    econ = request.getfixturevalue(fixture).with_outside_g(g_circ)
    events = []
    init, better_of = FocSchedule.__init__, regimes._better_of
    monkeypatch.setattr(FocSchedule, "__init__",
                        lambda self, *a, **kw: events.append("build") or init(self, *a, **kw))
    with monkeypatch.context() as patch:
        patch.setattr(regimes, "_payoff_bound", lambda *args: math.inf)
        am.solve(econ)
    every = events.count("build")
    events.clear()
    monkeypatch.setattr(regimes, "_better_of",
                        lambda econ, candidates: events.append("compete") or better_of(econ, candidates))
    bisected = dataclasses.replace(econ, tech=dataclasses.replace(
        econ.tech, weighted_argmax=None, phi_inverse=None))
    am.solve(bisected)
    assert events == ["build"] * every + ["compete"]


# ---------------------------------------------------------------------------
# Fallbacks when a configuration cannot be found
# ---------------------------------------------------------------------------


def _posted_at_outside(econ, sol, note):
    """`sol` is the posted status quo: level g_circ, every agent in the
    reservation-tax schedule, and `note` as its only note."""
    phi_g = math.log1p(econ.outside_g)
    types = [econ.type_of(i) for i in range(econ.n)]
    taxes = [t * phi_g - float(econ.reservation.value(t, econ.outside_g)) for t in types]
    assert sol.regime is am.Regime.OUTSIDE_OPTION and sol.g_star == econ.outside_g
    assert sol.notes == (note,)
    assert sol.transfers == pytest.approx(taxes, abs=1e-12)
    assert not sol.excluded and not sol.bunched


def test_concave_unanimity_without_a_cutoff_posts_the_status_quo(concave_economy, monkeypatch):
    def diverge(econ):
        raise am.FixedPointDivergence("cutoff iteration left its bracket")

    monkeypatch.setattr(regimes, "_concave_unanimity", diverge)
    sol = am.solve(concave_economy)
    _posted_at_outside(concave_economy, sol, "no consistent cutoff; status quo implemented")
    assert sol.coalition == frozenset(range(concave_economy.n))
    # no thresholds were computed: both sit at g_circ
    assert sol.thresholds == sol.thresholds_raw == am.Thresholds(1.0, 1.0)


@pytest.mark.parametrize("error", [am.SolverError, am.InvalidEconomy])
def test_quota_solve_drops_a_unanimity_copy_that_raises(concave_window_economy, monkeypatch,
                                                        error):
    want = _record(am.solve(concave_window_economy))
    copies = []

    def failing(econ):
        copies.append(econ.quota)
        raise error("unanimity copy failed")

    monkeypatch.setattr(regimes, "_curved_unanimity", failing)
    assert _record(am.solve(concave_window_economy)) == want
    assert copies == [concave_window_economy.n]
    assert want[-1] == ("excluded interior window of 2 agent(s)",)


def test_quota_solve_without_a_candidate_posts_the_status_quo(concave_window_economy,
                                                             monkeypatch):
    econ = concave_window_economy
    want = am.solve(econ)

    def failing(econ):
        raise am.SolverError("unanimity copy failed")

    monkeypatch.setattr(regimes, "_curved_unanimity", failing)
    monkeypatch.setattr(regimes, "_concave_window_candidate", lambda econ, start, width: None)
    sol = am.solve(econ)
    _posted_at_outside(econ, sol, "no consistent configuration; status quo implemented")
    assert (sol.thresholds, sol.thresholds_raw) == (want.thresholds, want.thresholds_raw)
    assert (sol.thresholds.g_low, sol.thresholds.g_high) == pytest.approx((1.5, 1.7), abs=1e-12)
    assert len(sol.coalition) == econ.quota


def test_window_without_a_shadow_weight_bracket_is_no_candidate(concave_window_economy,
                                                                monkeypatch):
    """A window whose shadow-weight search finds no bracket drops out, and the
    unanimity copy, which needs no such search, wins the quota solve."""
    econ = concave_window_economy

    def no_bracket(*args):
        raise am.BracketFailure("rent gap keeps its sign")

    unanimity = am.solve(econ.with_quota(econ.n))
    monkeypatch.setattr(regimes, "gamma_root", no_bracket)
    assert regimes._concave_window_candidate(econ, 1, 2) is None
    sol = am.solve(econ)
    assert sol.regime is am.Regime.MIXED_INTERIOR and not sol.excluded and sol.notes == ()
    assert sol.g_star == unanimity.g_star and sol.transfers == unanimity.transfers
    assert (sol.thresholds.g_low, sol.thresholds.g_high) == pytest.approx((1.5, 1.7), abs=1e-12)


def test_concave_unanimity_with_a_nan_slope_posts_the_status_quo(concave_economy):
    nan = lambda t, gc: np.full_like(np.asarray(t, float), np.nan)
    econ = dataclasses.replace(concave_economy, reservation=dataclasses.replace(
        concave_economy.reservation, v_bar_dtheta=nan))
    with pytest.raises(am.FixedPointDivergence, match="no consistent cutoff configuration found"):
        regimes._concave_unanimity(econ)
    sol = am.solve(econ)
    _posted_at_outside(econ, sol, "no consistent cutoff; status quo implemented")
    assert sol.thresholds == am.Thresholds(1.0, 1.0)
