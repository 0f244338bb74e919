import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import agendamech as am
from agendamech import transfers
from agendamech.solver_core import bisect
from agendamech.transfers import FocSchedule, hermite_panel_root
from conftest import random_economy
from oracles import flat_rent_curve, simpson

# Frozen with the independent quadrature below: the golden economy's agent
# pays theta*phi(g(theta)) minus the rent accumulated along the schedule
# g(x) = max(0, 2x - 1.5).
GOLDEN_TRANSFER = 0.0738275449510812
GOLDEN_PAYOFF = 0.0214826348532566


def test_understate_transfer_matches_quadrature_oracle(golden_economy):
    sol = am.solve(golden_economy)
    sched = sol.schedules[0]
    got = float(sched.transfer(0.8))

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
        assert float(sched.transfer(theta)) == pytest.approx(
            0.0 * math.log(1.0 + level), abs=1e-10)


@pytest.mark.parametrize("x", [0.3, np.float64(0.3), np.array(0.3), 1, [0.1, 0.9],
                               np.zeros((2, 3), np.float32)])
def test_flat_schedule_reads_its_values_at_every_report(golden_economy, x):
    sched = transfers.FlatSchedule(golden_economy, 1, 0.4, -0.25)
    for got, value in ((sched.allocation(x), 0.4), (sched.transfer(x), -0.25)):
        if np.ndim(x) == 0:
            assert type(got) is float and got == value
        else:
            assert got.dtype == np.float64 and got.shape == np.shape(x)
            assert got.tobytes() == np.full(np.shape(x), value).tobytes()


def _counted(reads: list, name: str, fn):
    """fn, appending (name, size of its first argument) to reads at each call."""
    return lambda *args: reads.append((name, int(np.size(args[0])))) or fn(*args)


def _counting_uniform(reads: list):
    base = am.uniform(0.0, 1.0)
    return dataclasses.replace(base, cdf=_counted(reads, "F", base.cdf),
                               pdf=_counted(reads, "f", base.pdf))


def test_schedule_build_evaluates_slopes_in_one_pass(log_tech):
    """Within one solve, F, f and the reservation slope are read once on the
    schedule grid (nodes and panel midpoints), however many schedules and
    shadow weights share it; each kinked schedule reads its merged grid once."""
    reads = []
    res = am.quadratic_share_reservation(log_tech, 1.4, -0.5)
    res = dataclasses.replace(res, v_bar_dtheta=_counted(reads, "slope", res.v_bar_dtheta))
    econ = am.Economy(0.6, (0.3, 0.5, 0.8), _counting_uniform(reads), log_tech, res, 4, 0.9)
    sol = am.solve(econ)
    full = 2 * transfers.RENT_NODES - 1
    # agent 1 overstates on the plain grid; agents 2 and 3 understate, each
    # with one kink where its level leaves zero
    assert [(s.gamma, s._xs.size) for s in sol.schedules] == \
        [(0.0, transfers.RENT_NODES), (1.0, transfers.RENT_NODES + 1),
         (1.0, transfers.RENT_NODES + 1)]
    for name in ("F", "f", "slope"):
        assert [n for read, n in reads if read == name and n >= transfers.RENT_NODES] == \
            [full, full + 2, full + 2], name


def test_kink_guess_reads_weights_only_on_a_narrowed_bracket(log_tech, monkeypatch):
    """On the whole support the guess interpolates the grid weights the build
    read; on a narrowed bracket it reads the weight at the bracket's two ends."""
    reads = []
    econ = am.Economy(0.5, (0.8,), _counting_uniform(reads), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    econ.__dict__["_grid_table"] = {}  # as `solve` keeps its readings
    sched = FocSchedule(econ, 1, base_weight=0.5, gamma=1.0)  # level max(0, 2x - 1.5)
    weight, sizes = FocSchedule._weight, []
    monkeypatch.setattr(FocSchedule, "_weight",
                        lambda self, x: sizes.append(np.size(x)) or weight(self, x))
    reads.clear()
    # the FOC weight 2x - 0.5 reaches 1/phi'(1e-14) = 1 + 1e-14 at 0.75
    assert sched._kink_guess(1e-14, 0.0, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert sizes == [] and reads == []
    assert sched._kink_guess(1e-14, 0.5, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert sizes == [2] and reads == [("F", 2), ("f", 2)]


def test_bunched_agents_pool_at_cutoff_bundle(majority_economy):
    sol = am.solve(majority_economy)
    assert sol.excluded == frozenset({1})
    assert sol.bunched == frozenset({1})
    cutoff_agent = 2  # lowest type still in the coalition
    sched_cut = sol.schedules[cutoff_agent - 1]
    sched_exc = sol.schedules[0]
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
    sched = sol.schedules[0]
    assert sched.anchor == pytest.approx(1.0, abs=1e-9)
    assert float(sched.rent(1.0)) == pytest.approx(0.0, abs=1e-9)
    # rents decrease in type when everyone overstates
    grid = np.linspace(0.0, 1.0, 101)
    rents = np.asarray(sched.rent(grid))
    assert (np.diff(rents) <= 1e-9).all()
    # participation binds at the top: its transfer is its whole gross value
    value = 1.0 * float(econ.tech.phi(float(sched.allocation(1.0))))
    assert float(sched.transfer(1.0)) == pytest.approx(
        value - float(econ.reservation.value(1.0, econ.outside_g)), abs=1e-9)


def test_rent_profile_middle_branch_identically_zero(golden_economy):
    econ = golden_economy.with_outside_g(0.5)
    sol = am.solve(econ)
    _, rents = flat_rent_curve(econ, sol, grid_size=101)
    assert np.abs(rents).max() < 1e-12


def test_rent_profile_concave_v_shape(concave_economy):
    sol = am.solve(concave_economy)
    grid, rents = flat_rent_curve(concave_economy, sol)
    anchor = sol.cutoff_types[0]
    k = int(np.argmin(np.abs(grid - anchor)))
    assert rents[k] == pytest.approx(0.0, abs=1e-6)
    assert rents.min() >= -1e-9
    # decreasing into the binding type, increasing out of it
    assert (np.diff(rents[: k + 1]) <= 1e-9).all()
    assert (np.diff(rents[k:]) >= -1e-9).all()
    assert rents[0] > 1e-3 and rents[-1] > 1e-3
    # the curve's rise across the support is phi(g) (hi - lo) - (v_bar(hi) - v_bar(lo))
    res = concave_economy.reservation
    rise = math.log(1.0 + sol.g_star) - float(res.value(1.0, 1.0) - res.value(0.0, 1.0))
    assert rents[-1] - rents[0] == pytest.approx(rise, abs=1e-12)


def test_rent_profile_convex_inverted_v(convex_economy):
    sol = am.solve(convex_economy)
    grid, rents = flat_rent_curve(convex_economy, sol)
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


def test_rent_profile_nonnegative_on_coalition_range(majority_economy):
    sol = am.solve(majority_economy)
    grid, rents = flat_rent_curve(majority_economy, sol)
    cutoff = sol.cutoff_types[0]
    inside = grid >= cutoff - 1e-12  # coalition types sit at or above the cutoff
    assert rents[inside].min() >= -1e-9
    # forced participants below the cutoff fall short of their reservation
    assert rents[~inside].min() < -1e-3


# ---------------------------------------------------------------------------
# The rent minimum, read off the Hermite panels
# ---------------------------------------------------------------------------


def _panel(t0, r, k, h=1.0):
    """(u0, u1, s0, s1, h) of a panel whose slope at t = (x - x0)/h is
    k (t - t0)(t - r); u1 - u0 is h times its integral over [0, 1]."""
    d = k * (1.0 / 3.0 - (t0 + r) / 2.0 + t0 * r)
    return 0.0, h * d, k * t0 * r, k * (1.0 - t0) * (1.0 - r), h


@pytest.mark.parametrize("t0, r, k", [
    (0.3, -2.0, 1.0),  # a > 0: the larger root
    (0.3, 1.7, -1.0),  # a < 0: the smaller root
    (0.5, -0.5, 4.0),
    (1e-9, -0.5, 2.0),  # near t = 0
    (1e-9, 3.0, -1.0),
    (1.0 - 1e-9, -1.0, 1.0),  # near t = 1
    (1.0 - 1e-9, 1.5, -3.0),
])
@pytest.mark.parametrize("h", [1.0, 2.0**-10])
def test_hermite_panel_root_known_root(t0, r, k, h):
    u0, u1, s0, s1, h = _panel(t0, r, k, h)
    assert s0 < 0.0 < s1
    assert abs(hermite_panel_root(u0, u1, s0, s1, h) - t0) <= 1e-15


@pytest.mark.parametrize("s1", [1.5, math.nextafter(1.5, 2.0)])
def test_hermite_panel_root_without_curvature(s1):
    # slope 2t - 0.5: a is 0, or one rounding step of s1 away from it, and
    # the root is -c/b = 0.25
    t = hermite_panel_root(0.0, 0.5, -0.5, s1, 1.0)
    assert abs(t - 0.25) <= 1e-15


def test_locate_minimum_reads_only_the_nodes(concave_economy, monkeypatch):
    """Locating the minimum evaluates neither the schedule nor its slope."""
    schedules = [s for s in am.solve(concave_economy).schedules if s.kind == "foc"]
    assert all(((s._s[:-1] < 0.0) & (s._s[1:] > 0.0)).any() for s in schedules)

    def forbidden(*args, **kwargs):
        raise AssertionError("the minimum must come from the node values and slopes")

    monkeypatch.setattr(FocSchedule, "allocation", forbidden)
    monkeypatch.setattr(transfers, "bisect", forbidden)
    for sched in schedules:
        anchor, value = sched._locate_minimum()
        assert anchor == pytest.approx(sched.anchor, abs=1e-12)
        assert abs(value) <= 1e-15


def _stripped(econ):
    """The economy with its technology's closed forms removed, so schedules
    solve each level by bisection on 257 nodes."""
    return dataclasses.replace(
        econ, tech=dataclasses.replace(econ.tech, weighted_argmax=None, phi_inverse=None))


def _assert_rent_minimum_zero_at_anchor(econ, sol):
    grid = np.linspace(econ.theta_lo, econ.theta_hi, 2001)
    for sched in sol.schedules:
        # an excluded agent's FOC schedule is pinned to its window dip instead
        if sched.kind != "foc" or sched.agent in sol.excluded:
            continue
        assert abs(sched.rent(sched.anchor)) <= 1e-15
        assert sched.rent(grid).min() >= -1e-14


def test_anchor_rent_is_zero(request):
    """Every fixture, with its technology's closed forms and without."""
    for fixture in ("golden_economy", "majority_economy", "concave_economy", "convex_economy",
                    "concave_window_economy", "convex_tail_economy"):
        econ = request.getfixturevalue(fixture)
        for e in (econ, _stripped(econ)):
            _assert_rent_minimum_zero_at_anchor(e, am.solve(e))


@given(rng=st.randoms(use_true_random=False), closed_form=st.booleans())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_rent_minimum_zero_at_anchor_on_drawn_economies(rng, closed_form):
    econ = random_economy(rng, curvatures=("linear", "concave", "convex", "negative"))
    econ = econ if closed_form else _stripped(econ)
    assume(am.validate_economy(econ).passed)
    try:
        sol = am.solve(econ)
    except am.SolverError:
        assume(False)
    _assert_rent_minimum_zero_at_anchor(econ, sol)


# Without the panels' slope cap, agent 1's rent on a 2001-point grid falls to
# -1.818e-9 at report 0.0345 (-1.043e-7 at 0.033 with the closed forms
# stripped), on the flat panel before the node where its level leaves zero.
@pytest.mark.parametrize("closed_form", [True, False], ids=["closed_form", "stripped"])
def test_rent_dip_next_to_the_leaves_zero_node(closed_form):
    tech = am.power_technology(0.3)
    econ = am.Economy(1.0, (0.5, 0.5), (am.truncated_normal(0.5, 1.0), am.uniform()), tech,
                      am.linear_reservation(tech, 3), 3, 0.0)
    econ = econ if closed_form else _stripped(econ)
    _assert_rent_minimum_zero_at_anchor(econ, am.solve(econ))


# Without the slope cap, agent 5's rent dips to -1.82e-10: under power(0.7)
# its slope past the kink rises faster than a cubic with exact end slopes follows.
def test_rent_dip_past_the_kink_under_power_07():
    tech = am.power_technology(0.7)
    econ = am.Economy(0.5, (0.5, 0.25, 0.25, 0.5, 0.5),
                      (am.uniform(),) * 4 + (am.truncated_normal(0.5, 0.375),), tech,
                      am.quadratic_share_reservation(tech, 1.0, -0.25), 4, 0.0)
    _assert_rent_minimum_zero_at_anchor(_stripped(econ), am.solve(_stripped(econ)))


# ---------------------------------------------------------------------------
# Kink nodes: a guessed bisection path gives the plain bisection's floats
# ---------------------------------------------------------------------------


def _unguessed(below, *args, guess=None, **kwargs):
    return bisect(below, *args, **kwargs)


KINK_TECHS = [am.log_technology(), am.power_technology(0.3), am.power_technology(0.5),
              am.power_technology(0.7)]
KINK_DISTS = [am.uniform(), am.uniform(0.2, 1.7), am.truncated_exponential(0.5),
              am.truncated_exponential(4.0), am.truncated_normal(0.5, 1.0),
              am.truncated_normal(0.2, 0.3), am.truncated_normal(0.8, 0.2)]


@st.composite
def kink_schedules(draw):
    """A schedule whose level leaves zero at a drawn report, optionally
    clipped to the unclipped levels at two more drawn reports."""
    tech, dist = draw(st.sampled_from(KINK_TECHS)), draw(st.sampled_from(KINK_DISTS))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95)))
    lo, hi = dist.theta_lo, dist.theta_hi
    at = [lo + draw(st.floats(0.01, 0.99)) * (hi - lo) for _ in range(3)]
    base = 1.0 / tech.marginal(1e-14) - am.virtual_value_gamma(dist, at[0], gamma)

    def level(x):
        return float(tech.weighted_argmax(base + am.virtual_value_gamma(dist, x, gamma)))

    clip_lo, clip_hi = (level(x) if draw(st.booleans()) else None for x in sorted(at[1:]))
    econ = am.Economy(0.5, (0.5 * (lo + hi),), dist, tech, am.linear_reservation(tech, 2), 2, 0.0)
    return FocSchedule(econ, 1, base, gamma, clip_lo, clip_hi)


def _end_levels(sched) -> list:
    return sched.allocation([sched._econ.theta_lo, sched._econ.theta_hi]).tolist()


@given(sched=kink_schedules())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_guessed_kinks_equal_plain_bisection(sched):
    lo, hi = sched._econ.theta_lo, sched._econ.theta_hi
    kinks = sched._allocation_kinks(lo, hi, *_end_levels(sched))
    assume(kinks)
    with mock.patch.object(transfers, "bisect", _unguessed):
        assert kinks == sched._allocation_kinks(lo, hi, *_end_levels(sched))


@given(sched=kink_schedules())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_node_pass_end_levels_equal_the_levels_at_the_support_ends(sched):
    """The build hands ``_allocation_kinks`` the first and last node's level
    from its one allocation pass: the floats a read at lo and hi gives."""
    seen = []
    kinks = FocSchedule._allocation_kinks

    def recorded(self, lo, hi, g_lo, g_hi):
        seen.append((g_lo.hex(), g_hi.hex()))
        return kinks(self, lo, hi, g_lo, g_hi)

    with mock.patch.object(FocSchedule, "_allocation_kinks", recorded):
        sched._build(transfers.RENT_NODES, None)
    assert seen == [tuple(g.hex() for g in _end_levels(sched))]


@st.composite
def schedule_reports(draw):
    """A drawn kink schedule and reports on it: nodes, kinks, panel
    interiors, the support's ends and reports outside the support."""
    sched = draw(kink_schedules())
    xs, lo, hi = sched._xs, sched._econ.theta_lo, sched._econ.theta_hi
    kinks = np.setdiff1d(xs, np.linspace(lo, hi, transfers.RENT_NODES)).tolist()

    def interior(k, frac):
        return float(xs[k] + frac * (xs[k + 1] - xs[k]))

    report = st.one_of(
        st.sampled_from(xs.tolist()),
        st.sampled_from(kinks or [lo]),
        st.builds(interior, st.integers(0, xs.size - 2),
                  st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        st.sampled_from([lo, hi]),
        st.builds(lambda d, above: hi + d if above else lo - d,
                  st.floats(1e-12, 1.0).map(lambda f: f * (hi - lo)), st.booleans()))
    return sched, draw(st.lists(report, min_size=1, max_size=8))


@given(case=schedule_reports())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_scalar_reads_equal_one_element_array_reads(case):
    """``rent`` reads one report's panel in floats; it and ``transfer`` give
    a Python float equal bit for bit to the read on a one-element array."""
    sched, reports = case
    for x in reports:
        for read in (sched.rent, sched.transfer):
            got, want = read(x), read(np.array([x]))[0]
            assert type(got) is float
            assert got.hex() == float(want).hex(), (read.__name__, x)


def _below_calls(sched, bisector):
    """Calls of each kink's ``below`` when ``bisector`` stands in for ``bisect``."""
    counts = []

    def counted(below, *args, **kwargs):
        counts.append(0)

        def tallied(m):
            counts[-1] += 1
            return below(m)

        return bisector(tallied, *args, **kwargs)

    with mock.patch.object(transfers, "bisect", counted):
        kinks = sched._allocation_kinks(0.0, 1.0, *_end_levels(sched))
    return kinks, counts


def test_kink_where_the_level_leaves_zero_takes_three_calls(log_tech):
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 0.0)
    sched = FocSchedule(econ, 1, base_weight=0.5, gamma=1.0)  # level max(0, 2x - 1.5)
    kinks, counts = _below_calls(sched, bisect)
    plain, plain_counts = _below_calls(sched, _unguessed)
    assert kinks == plain and kinks[0] == pytest.approx(0.75, abs=1e-14)
    assert len(counts) == 1 and counts[0] <= 3
    assert plain_counts[0] >= 9
