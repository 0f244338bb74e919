import dataclasses
import json
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import agendamech as am
from agendamech import cli, regimes, solver_core, transfers
from agendamech.solver_core import (BISECT_LEVELS, GUESS_ROUNDS, GammaRepresentation, RentGap,
                                    bisect, invert_phi, rent_gap)
from conftest import random_economy
from oracles import foc_level, simpson


def test_sigma_with_distribution_weights_is_efficient_surplus(golden_economy):
    # gamma matching each agent's cdf value cancels the rent adjustment
    theta = golden_economy.agent_types[0]
    f_at = float(golden_economy.dist_of(1).F(theta))
    gamma = GammaRepresentation.piecewise(
        pieces=((0.0, 1.0, f_at),), atoms=((theta, f_at),))
    weight = solver_core.gamma_weight_sum(golden_economy, gamma)
    for g in (0.0, 0.4, 1.0):
        expected = (0.5 + theta) * math.log(1.0 + g) - g
        assert weight * math.log(1.0 + g) - g == pytest.approx(expected, abs=1e-12)
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
    weight = solver_core.gamma_weight_sum(golden_economy, gamma)

    def objective(g):
        return weight * float(golden_economy.tech.phi(g)) - g

    best = objective(g_star)
    for g in np.linspace(0.0, 5.0, 1000):
        assert best >= objective(float(g)) - 1e-9


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


def three_pass_partition(econ, g):
    """``partition_types`` as it was written before its one pass: a slope
    dict, label sets, a second label pass in type order and a rank check."""
    phi_g = float(econ.tech.phi(g))
    slopes = {i: phi_g - float(econ.reservation.slope(econ.type_of(i), econ.outside_g))
              for i in econ.agents}
    K, L, M = set(), set(), set()
    for i, s in slopes.items():
        if s < -solver_core.SLOPE_TOL:
            K.add(i)
        elif s > solver_core.SLOPE_TOL:
            M.add(i)
        else:
            L.add(i)
    labels = ["K" if i in K else ("L" if i in L else "M") for i in econ.sorted_agents()]
    curv = econ.reservation.curvature
    if curv is am.Curvature.NEGATIVE_SLOPE:
        if not set(labels) <= {"M", "L"}:
            raise am.ContiguityViolation(
                f"slope signs {labels} not uniformly positive under a decreasing profile")
    elif curv is am.Curvature.LINEAR:
        if len(set(labels)) > 1:
            raise am.ContiguityViolation(
                f"slope signs {labels} vary across types under a linear profile")
    else:
        expected = ("K", "L", "M") if curv is am.Curvature.CONCAVE else ("M", "L", "K")
        rank = {lab: k for k, lab in enumerate(expected)}
        ranks = [rank[lab] for lab in labels]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            raise am.ContiguityViolation(
                f"slope signs {labels} in type order contradict {curv.value} ordering")
    return am.Partition(frozenset(K), frozenset(L), frozenset(M))


def _partition_or_error(partition, econ, g):
    try:
        return partition(econ, g)
    except am.SolverError as exc:
        return type(exc), str(exc)


def _partition_levels(econ):
    """0, a spread of levels, the outside level and each agent's binding
    level, where its envelope slope is zero."""
    levels = [0.0, 0.05, 0.3, 1.0, 2.5, 6.0, econ.outside_g]
    for i in econ.agents:
        levels.append(invert_phi(econ.tech, float(econ.reservation.slope(econ.type_of(i),
                                                                          econ.outside_g))))
    return levels


def test_partition_equals_three_pass_partition_on_drawn_economies():
    rng, shapes = random.Random(2028), set()
    for _ in range(240):
        econ = random_economy(rng, ("linear", "concave", "convex", "negative"))
        shapes.add(econ.reservation.curvature)
        tied = dataclasses.replace(econ, agent_types=tuple(round(t, 1) for t in econ.agent_types))
        for at in (econ, tied):
            for g in _partition_levels(at):
                assert (_partition_or_error(am.partition_types, at, g)
                        == _partition_or_error(three_pass_partition, at, g))
    assert shapes == set(am.Curvature)


def _profile(slope, curvature):
    return am.ReservationProfile(v_bar=lambda t, gc: np.zeros_like(np.asarray(t, float)),
                                 v_bar_dtheta=slope, curvature=curvature, name="hand-made")


@pytest.mark.parametrize("slope, curvature, message", [
    (lambda t, gc: np.full_like(np.asarray(t, float), 5.0), am.Curvature.NEGATIVE_SLOPE,
     "not uniformly positive under a decreasing profile"),
    (lambda t, gc: 1.4 - np.asarray(t, float), am.Curvature.LINEAR,
     "vary across types under a linear profile"),
    (lambda t, gc: 0.3 + np.asarray(t, float), am.Curvature.CONCAVE,
     "in type order contradict concave ordering"),
    (lambda t, gc: 1.4 - np.asarray(t, float), am.Curvature.CONVEX,
     "in type order contradict convex ordering"),
    (lambda t, gc: np.full_like(np.asarray(t, float), 0.85), am.Curvature.NEGATIVE_SLOPE, None),
], ids=["decreasing", "linear", "concave", "convex", "decreasing-all-zero"])
def test_partition_hand_made_profiles_equal_three_pass_partition(log_tech, slope, curvature,
                                                                   message):
    econ = am.Economy(0.6, (0.9, 0.2, 0.2, 0.55), am.uniform(0.0, 1.0), log_tech,
                      _profile(slope, curvature), 5, 1.0)
    g = math.exp(0.85) - 1.0  # phi(g) = 0.85 sits between the agents' slopes
    got = _partition_or_error(am.partition_types, econ, g)
    assert got == _partition_or_error(three_pass_partition, econ, g)
    if message is None:
        assert got.L == frozenset(econ.agents)
    else:
        assert got[0] is am.ContiguityViolation and message in got[1]


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


# Both support ends, the atoms of the cases below (0.3, 0.4, 0.8), and points
# 5e-13 and 2e-12 to either side of each, inside [0, 1].
STEP_GRID = [0.0, 5e-13, 2e-12, 0.299999999998, 0.2999999999995, 0.3, 0.3000000000005,
             0.300000000002, 0.399999999998, 0.39999999999950003, 0.4, 0.4000000000005,
             0.40000000000200003, 0.7999999999980001, 0.7999999999995, 0.8, 0.8000000000005001,
             0.800000000002, 0.999999999998, 0.9999999999995, 1.0]


@pytest.mark.parametrize("rep, values, props, text", [
    (GammaRepresentation.point_mass_at_low(), [1.0] * 21, (None, None, 1.0),
     "point mass at support bottom"),
    (GammaRepresentation.point_mass_at_high(), [0.0] * 19 + [1.0] * 2, (None, None, 0.0),
     "point mass at support top"),
    (GammaRepresentation.interior_mass(0.4, at_star=0.7), [0.0] * 9 + [0.7] * 3 + [1.0] * 9,
     (0.4, 0.7, None), "mass at theta=0.4 (weight 0.7 on the point)"),
    # an atom at the top of the support outranks the top-of-support rule
    (GammaRepresentation.interior_mass(1.0, at_star=0.7), [0.0] * 19 + [0.7] * 2,
     (1.0, 0.7, None), "mass at theta=1 (weight 0.7 on the point)"),
    (GammaRepresentation.constant(0.3), [0.3] * 19 + [1.0] * 2, (None, None, 0.3),
     "constant 0.3 with end-point jumps"),
    (GammaRepresentation.piecewise(pieces=((0.0, 0.3, 0.0), (0.3, 0.8, 0.5), (0.8, 1.0, 1.0)),
                                   atoms=((0.3, 0.2), (0.8, 0.9))),
     [0.0] * 4 + [0.2] * 3 + [0.5] * 7 + [0.9] * 3 + [1.0] * 4, (0.3, 0.2, None),
     "piecewise [0,0.3)=0, [0.3,0.8)=0.5, [0.8,1)=1"),
], ids=["point_mass_at_low", "point_mass_at_high", "interior_mass", "interior_mass_at_top",
        "constant", "piecewise"])
def test_gamma_step_function_pinned(rep, values, props, text):
    # values recorded from the five-branch implementation this replaced: an
    # atom wins within 1e-12, then 1 within 1e-12 of the top, then the pieces
    assert [rep.value(t, 0.0, 1.0) for t in STEP_GRID] == values
    assert (rep.theta_star, rep.at_star, rep.gamma) == props
    assert rep.describe() == text


def _constant_gamma(econ):
    return regimes._convex_configuration(econ, regimes._convex_ends(econ))[0]


def test_gamma_star_constant_boundary_branches(convex_economy):
    assert _constant_gamma(convex_economy.with_outside_g(0.0)) == 1.0
    assert _constant_gamma(convex_economy.with_outside_g(25.0)) == 0.0


def test_gamma_star_constant_interior_self_consistency(convex_economy):
    window = (0.0, 1.0)
    gamma = _constant_gamma(convex_economy)
    assert 0.0 < gamma < 1.0
    g = am.xi_argmax(convex_economy, GammaRepresentation.constant(gamma))
    assert rent_gap(convex_economy, window)(g) == pytest.approx(0.0, abs=1e-8)
    # independent quadrature of the same residual
    tech, res = convex_economy.tech, convex_economy.reservation
    phi_g = math.log(1.0 + g)
    residual = simpson(lambda x: phi_g - float(res.slope(x, 1.0)), 0.0, 1.0)
    assert residual == pytest.approx(0.0, abs=1e-8)
    # frozen closed form for this economy: ln(3.8 - 3 gamma) = 0.8 ln 2
    assert gamma == pytest.approx((3.8 - 2.0**0.8) / 3.0, abs=1e-9)


def test_gamma_star_constant_bracket_failure_guard(convex_economy):
    # rising weight: the gap increases in the shadow weight
    level = lambda gam: am.solve_weighted_foc(convex_economy.tech, 1.0 + gam)
    with pytest.raises(am.BracketFailure):
        solver_core.gamma_root(rent_gap(convex_economy, (0.0, 1.0)), level, (0.0, 1.0),
                               (level(1.0), level(0.0)))


def _summed_gamma_root(gap, level, gamma_bounds, end_levels):
    """The shadow-weight solve that sums the gap at every decision."""
    lo_b, hi_b = gamma_bounds
    r_hi, r_lo = gap(end_levels[0]), gap(end_levels[1])
    if r_lo < r_hi - 1e-12:
        raise am.BracketFailure("rent gap is not decreasing in the shadow weight")
    if r_hi >= 0.0:
        return hi_b
    if r_lo <= 0.0:
        return lo_b
    return bisect(lambda gam: gap(level(gam)) > 0.0, lo_b, hi_b, 200, 1e-12)


def _root_outcome(root, *args):
    try:
        return root(*args).hex()
    except am.BracketFailure:
        return "BracketFailure"


def _stripped(econ):
    return dataclasses.replace(econ, tech=dataclasses.replace(
        econ.tech, weighted_argmax=None, phi_inverse=None))


def _drawn_gaps(seed: int, count: int):
    """(economy, gap, level of the gap's zero or None, the draws' rng): the
    test corpus's draws over all four shapes, every third with its
    technology's closed forms stripped, each gap on a random window of the
    support."""
    rng = random.Random(seed)
    for k in range(count):
        econ = random_economy(rng, curvatures=("linear", "concave", "convex", "negative"))
        econ = _stripped(econ) if k % 3 == 0 else econ
        window = tuple(sorted(rng.uniform(econ.theta_lo, econ.theta_hi) for _ in range(2)))
        gap = rent_gap(econ, window)
        gap.estimate(0.0)
        a1, c0 = gap._affine[:2]
        zero = invert_phi(econ.tech, c0 / a1) if c0 > 0.0 else None
        yield econ, gap, zero, rng


def test_rent_gap_estimate_bounds_the_sum_and_decides_its_sign():
    """On drawn windows, at levels packed within 1e-14 relative of the gap's
    zero (where the sum's rounding decides its sign), at offsets doubling out
    from there across the bound's edge, and at far levels, the affine
    estimate lies within its bound of the summed float, and `positive` is
    that float's sign."""
    checked, summed = 0, 0
    for _, gap, zero, rng in _drawn_gaps(27, 150):
        levels = [0.0, rng.uniform(0.0, 5.0), rng.uniform(0.0, 1e-3)]
        if zero is not None:
            levels += [zero * (1.0 + k * 5e-16) for k in range(-20, 21)]
            levels += [zero * (1.0 + sign * 2.0**j * 1e-14) for j in range(16) for sign in (-1, 1)]
            levels += [zero * 0.5, zero * 2.0]
        for g in levels:
            est, bound = gap.estimate(g)
            value = gap(g)
            assert abs(est - value) <= bound, (g, est, value, bound)
            assert gap.positive(g) == (value > 0.0), (g, est, value, bound)
            checked += 1
            summed += abs(est) <= bound
    assert checked > 8000 and 0.2 * checked < summed < 0.8 * checked, (checked, summed)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rent_gap_sums_where_phi_is_not_finite(convex_economy, monkeypatch, value):
    """Where phi is NaN or infinite the estimate cannot decide: `positive`
    sums there, and only there."""
    phi = convex_economy.tech.phi
    econ = dataclasses.replace(convex_economy, tech=dataclasses.replace(
        convex_economy.tech, phi=lambda g: value if g == 7.0 else phi(g)))
    gap, sums = rent_gap(econ, (0.0, 1.0)), []
    call = RentGap.__call__
    monkeypatch.setattr(RentGap, "__call__", lambda self, g: sums.append(g) or call(self, g))
    assert gap.positive(7.0) == (value > 0.0)
    assert sums == [7.0]
    assert gap.positive(0.5) == (call(gap, 0.5) > 0.0) and sums == [7.0]


def test_gamma_root_matches_the_summed_solve_on_fixtures(request, monkeypatch):
    """Every shadow-weight solve of the six fixtures' solves over the sweep
    grid 0:3:31 at every quota, and of the convex fixtures' threshold tables,
    returns the float (or the BracketFailure) that summing the gap at every
    decision gives."""
    outcomes = []
    root = solver_core.gamma_root

    def both(*args):
        expected = _root_outcome(_summed_gamma_root, *args)
        outcomes.append(_root_outcome(root, *args))
        assert outcomes[-1] == expected
        return root(*args)

    monkeypatch.setattr(regimes, "gamma_root", both)
    for name in ("golden_economy", "majority_economy", "concave_economy", "convex_economy",
                 "concave_window_economy", "convex_tail_economy"):
        econ = request.getfixturevalue(name)
        for g_circ in cli._parse_grid("0:3:31"):
            for quota in range(1, econ.n + 1):
                try:
                    am.solve(econ.with_quota(quota).with_outside_g(g_circ))
                except am.SolverError:
                    pass
        if econ.reservation.curvature is am.Curvature.CONVEX:
            am.threshold_table(econ)
    interior = [o for o in outcomes if o not in ("BracketFailure", (0.0).hex(), (1.0).hex())]
    assert len(outcomes) > 500 and len(interior) > 100, (len(outcomes), len(interior))


def test_gamma_root_matches_the_summed_solve_on_drawn_windows():
    """Drawn windows with an FOC weight affine in gamma through the gap's
    zero, falling (a root or a bound) or rising (BracketFailure) in gamma,
    half of them so slowly that every level stays where the sum's rounding
    decides the gap's sign."""
    outcomes = []
    for econ, gap, zero, rng in _drawn_gaps(28, 150):
        if zero is None or zero == 0.0:
            continue
        w_zero, gam_zero = 1.0 / float(econ.tech.phi_prime(zero)), rng.uniform(-0.3, 1.3)
        slope = rng.choice([-1.0, 1.0]) * w_zero * rng.choice([rng.uniform(0.01, 3.0), 1e-15])
        level = lambda gam: solver_core.solve_weighted_foc(
            econ.tech, w_zero + slope * (gam - gam_zero))
        bounds = tuple(sorted(rng.uniform(0.0, 1.0) for _ in range(2)))
        args = (gap, level, bounds, (level(bounds[1]), level(bounds[0])))
        outcomes.append(_root_outcome(solver_core.gamma_root, *args))
        assert outcomes[-1] == _root_outcome(_summed_gamma_root, *args)
    kinds = {"BracketFailure" if o == "BracketFailure" else "interior" for o in outcomes}
    assert len(outcomes) > 60 and kinds == {"BracketFailure", "interior"}


def test_shadow_weight_solves_rarely_sum_the_gap(convex_economy, monkeypatch):
    """threshold_table on the ladder pool's first eight economies sums the
    gap on fewer than a fifth of its configuration probes, and the convex
    fixture's interior solve on at most 8 of its bisection steps."""
    sums, probes, steps = [], [], []
    call, configuration = RentGap.__call__, regimes._convex_configuration
    monkeypatch.setattr(RentGap, "__call__", lambda self, g: sums.append(g) or call(self, g))
    monkeypatch.setattr(regimes, "_convex_configuration",
                        lambda *args: probes.append(1) or configuration(*args))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import ladder_economy
    finally:
        sys.path.pop(0)
    for index in range(8):
        am.threshold_table(ladder_economy(am, index))
    assert len(sums) < 0.2 * len(probes), (len(sums), len(probes))

    sums.clear()
    level = lambda gam: steps.append(gam) or am.xi_argmax(
        convex_economy, GammaRepresentation.constant(gam))
    gamma = solver_core.gamma_root(rent_gap(convex_economy, (0.0, 1.0)), level, (0.0, 1.0),
                                   regimes._convex_ends(convex_economy)[0])
    assert 0.0 < gamma < 1.0 and len(steps) > 30
    assert len(sums) <= 8, (len(sums), len(steps))


def _edge_variants(econ):
    """The economy, then with its first agent at the top of the support, its
    last at the bottom, its last tied with its first, and its first and last
    both at the top."""
    t, hi = econ.agent_types, econ.theta_hi
    for types in (t, (hi, *t[1:]), (*t[:-1], econ.theta_lo), (*t[:-1], t[0]),
                  (hi, *t[1:-1], hi)[:len(t)]):
        yield dataclasses.replace(econ, agent_types=types)


def test_constant_weight_is_the_summed_weight_bit_for_bit():
    """`regimes._constant_weight` gives the float `gamma_weight_sum` sums at a
    constant shadow weight, and its level is `xi_argmax`'s, on the test
    corpus's draws over all four shapes (log and power technology, every
    third with its closed forms stripped) with agents moved to both ends of
    the support and onto tied types."""
    rng, checked, top_seen = random.Random(29), 0, 0
    for k in range(60):
        econ = random_economy(rng, curvatures=("linear", "concave", "convex", "negative"))
        for econ in _edge_variants(_stripped(econ) if k % 3 == 0 else econ):
            weight = regimes._constant_weight(econ)
            top_seen += econ.theta_hi in econ.agent_types
            for gam in (0.0, 1.0, 0.5, rng.random()):
                want = GammaRepresentation.constant(gam)
                assert weight(gam).hex() == solver_core.gamma_weight_sum(econ, want).hex()
                level = solver_core.solve_weighted_foc(econ.tech, weight(gam))
                assert level.hex() == am.xi_argmax(econ, want).hex(), (econ, gam)
                checked += 1
    assert checked == 1200 and top_seen >= 120, (checked, top_seen)


# ---------------------------------------------------------------------------
# bisection helper
# ---------------------------------------------------------------------------


def reference_bisect(below, lo, hi, max_iter, tol=None, *, vectorized=False, guess=None):
    """``bisect`` without its early stop, batches or guessed paths: every
    step runs until ``max_iter`` or the tolerance ends the loop. A vectorized
    predicate sees one one-element array per step; ``guess`` is ignored."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if below(np.array([mid]))[0] if vectorized else below(mid):
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
    # the guessed report: the root, its neighbouring float, the root mirrored
    # in the bracket, or a point outside it
    guessed = draw(st.sampled_from([None, root, math.nextafter(root, math.inf),
                                    math.nextafter(root, -math.inf), lo + hi - root,
                                    lo - scale, hi + scale]))
    guess = None if guessed is None else (lambda a, b: guessed)
    return STEP_PREDICATES[sense](root), lo, hi, max_iter, tol, guess


@given(case=bisection_cases())
@example(case=(STEP_PREDICATES["<"](0.3), 0.0, 1.0, BISECT_LEVELS + 1, None, None))
@example(case=(STEP_PREDICATES[">="](0.7), 0.0, 1.0, 4 * BISECT_LEVELS + 3, 1e-15, None))
@example(case=(STEP_PREDICATES["<="](2e-300), 1e-300, 3e-300, 80, 1e-300, None))
@example(case=(STEP_PREDICATES["<"](0.3), 0.3, math.nextafter(0.3, 1.0), 80, None, None))
@example(case=(STEP_PREDICATES[">"](0.3), 0.3, 0.3, BISECT_LEVELS - 1, 0.0, None))
@example(case=(STEP_PREDICATES["<"](0.3), 0.0, 1.0, 80, None, lambda a, b: 0.3))
@example(case=(STEP_PREDICATES["<="](0.3), 0.0, 1.0, 40, 1e-9, lambda a, b: 0.7))
@settings(max_examples=400, deadline=None)
def test_bisect_equals_fixed_count_loop(case):
    below, lo, hi, max_iter, tol, guess = case
    got = bisect(below, lo, hi, max_iter, tol)
    assert got == reference_bisect(below, lo, hi, max_iter, tol)
    assert bisect(below, lo, hi, max_iter, tol, vectorized=True, guess=guess) == got


@pytest.mark.parametrize("root", [0.0, 5e-324, 1e-300, 0.3, math.nextafter(1.0, 0.0), 1.0])
@pytest.mark.parametrize("sense", sorted(STEP_PREDICATES))
def test_bisect_edge_roots_on_unit_interval(root, sense):
    below = STEP_PREDICATES[sense](root)
    assert bisect(below, 0.0, 1.0, 1200) == reference_bisect(below, 0.0, 1.0, 1200)


def test_bisect_degenerate_bracket_calls_nothing():
    calls = []
    assert bisect(calls.append, 0.7, 0.7, 200) == 0.7
    assert bisect(calls.append, 0.7, 0.7, 200, vectorized=True) == 0.7
    assert calls == []


def test_bisect_stops_once_the_bracket_is_two_adjacent_floats():
    calls = []

    def below(x):
        calls.append(x)
        return x < 0.3

    got = bisect(below, 0.0, 1.0, 200)
    assert got == reference_bisect(lambda x: x < 0.3, 0.0, 1.0, 200)
    assert len(calls) <= 60


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.25, 0.2500001), (-3.0, 7.0)])
def test_bisect_vectorized_follows_a_non_monotone_predicate(lo, hi):
    def parity(x):
        return np.floor(np.asarray(x) * 1e6) % 2 == 0

    got = bisect(parity, lo, hi, 200, vectorized=True)
    assert got == bisect(parity, lo, hi, 200) == reference_bisect(parity, lo, hi, 200)
    assert bisect(parity, lo, hi, 200, vectorized=True, guess=lambda a, b: 0.7 * a + 0.3 * b) == got


def test_bisect_vectorized_takes_a_batch_of_steps_per_call():
    calls = []

    def below(x):
        calls.append(len(x))
        return x < 0.3

    got = bisect(below, 0.0, 1.0, 200, vectorized=True)
    assert got == reference_bisect(lambda x: x < 0.3, 0.0, 1.0, 200)
    assert len(calls) <= math.ceil(60 / BISECT_LEVELS)
    assert set(calls) == {2**BISECT_LEVELS - 1}


# a good guess costs the path's call and one batch; a wrong one costs its
# rounds on top of the ten batches of the unguessed search
@pytest.mark.parametrize("guessed, most", [(0.3, 2), (math.nextafter(0.3, 0.0), 2),
                                            (0.7, GUESS_ROUNDS + 10)])
def test_bisect_checks_a_guessed_path_in_few_calls(guessed, most):
    calls = []

    def below(x):
        calls.append(len(x))
        return x < 0.3

    got = bisect(below, 0.0, 1.0, 200, vectorized=True, guess=lambda a, b: guessed)
    assert got == reference_bisect(lambda x: x < 0.3, 0.0, 1.0, 200)
    assert len(calls) <= most


def two_loop_bisect(below, lo, hi, max_iter, tol=None, guess=None):
    """The vectorized ``bisect`` as it was written before its one walk: a
    replay of each guessed path, then a walk of each batch's bracket tree."""
    steps = 0
    for _ in range(GUESS_ROUNDS if guess is not None else 0):
        x, path, a, b = guess(lo, hi), [], lo, hi
        while steps + len(path) < max_iter:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            path.append(mid)
            a, b = (mid, b) if mid < x else (a, mid)
            if tol is not None and b - a <= tol:
                break
        path = path[:-BISECT_LEVELS]
        if not path:
            break
        for mid, flag in zip(path, np.asarray(below(np.array(path))).tolist()):
            steps += 1
            lo, hi = (mid, hi) if flag else (lo, mid)
            if tol is not None and hi - lo <= tol:
                return 0.5 * (lo + hi)
            if flag != (mid < x):
                break
        else:
            break
    for first in range(steps, max_iter, BISECT_LEVELS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        halves = [2**d for d in reversed(range(min(BISECT_LEVELS, max_iter - first)))]
        ends = np.empty(2 * halves[0] + 1)
        ends[0], ends[-1] = lo, hi
        for half in halves:
            ends[half::2 * half] = 0.5 * (ends[:-1:2 * half] + ends[2 * half::2 * half])
        flags = [False, *np.asarray(below(ends[1:-1])).tolist()]
        ends, at = ends.tolist(), 0
        for half in halves:
            mid = ends[at + half]
            if mid == lo or mid == hi:
                return 0.5 * (lo + hi)
            lo, hi, at = (mid, hi, at + half) if flags[at + half] else (lo, mid, at)
            if tol is not None and hi - lo <= tol:
                return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _recorded(below, calls):
    def recording(xs):
        calls.append(np.array(xs, copy=True))
        return below(xs)
    return recording


def _parity(x):
    return np.floor(np.asarray(x) * 1e6) % 2 == 0


def _with_bisection_examples(test):
    x, lo, hi = map(float.fromhex, ["0x1.0000000000004p-2", "0x1.39a4adca590c6p-3",
                                    "0x1.68d655335dbd7p-2"])
    root, x_off, lo_off, hi_off = map(float.fromhex, [
        "0x1.0000000000018p-2", "0x1.0000000000024p-2", "0x1.b58206be06786p-3",
        "0x1.268d354f7f7e4p-1"])
    for case in [(STEP_PREDICATES["<"](0.3), 0.0, 1.0, BISECT_LEVELS + 1, None, None),
                 (STEP_PREDICATES[">="](0.7), 0.0, 1.0, 4 * BISECT_LEVELS + 3, 1e-15, None),
                 (STEP_PREDICATES["<="](2e-300), 1e-300, 3e-300, 80, 1e-300, None),
                 (STEP_PREDICATES["<"](0.3), 0.3, math.nextafter(0.3, 1.0), 80, None, None),
                 (STEP_PREDICATES[">"](0.3), 0.3, 0.3, BISECT_LEVELS - 1, 0.0, None),
                 (STEP_PREDICATES["<"](0.3), 0.0, 1.0, 80, None, lambda a, b: 0.3),
                 (STEP_PREDICATES["<="](0.3), 0.0, 1.0, 40, 1e-9, lambda a, b: 0.7),
                 # the flags leave a path at its last step, across 0.25: a second
                 # guess there reads a two-midpoint path
                 (STEP_PREDICATES["<"](root), lo_off, hi_off, 200, None,
                  lambda a, b: x_off if a == lo_off else a),
                 # a path walked to its end leaves a bracket across 0.25, finer below it:
                 # a second guess there would read a one-midpoint path
                 (STEP_PREDICATES["<"](x), lo, hi, 200, None, lambda a, b: x if a == lo else a),
                 (_parity, -3.0, 7.0, 200, None, lambda a, b: 0.7 * a + 0.3 * b)]:
        test = example(case=case)(test)
    return test


@given(case=bisection_cases())
@_with_bisection_examples
@settings(max_examples=400, deadline=None)
def test_bisect_vectorized_reads_the_two_loop_call_schedule(case):
    """One walk over rounds makes the calls the guessed-path replay and the
    batch walk made: the same arrays, bit for bit, in the same order, and
    returns the same float."""
    below, lo, hi, max_iter, tol, guess = case
    calls, want_calls = [], []
    got = bisect(_recorded(below, calls), lo, hi, max_iter, tol, vectorized=True, guess=guess)
    want = two_loop_bisect(_recorded(below, want_calls), lo, hi, max_iter, tol, guess)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert [c.tobytes() for c in calls] == [c.tobytes() for c in want_calls]


@given(case=bisection_cases())
@_with_bisection_examples
@settings(max_examples=400, deadline=None)
def test_bisect_scalar_reads_the_reference_call_schedule(case):
    """Scalar mode asks ``below`` at the floats the fixed-count loop asks,
    bit for bit, once each and in the same order, up to its early stop; a
    stop ahead of the loop's is where the next midpoint is a bracket end."""
    below, lo, hi, max_iter, tol, _ = case
    calls, want_calls = [], []
    got = bisect(lambda x: calls.append(x) or below(x), lo, hi, max_iter, tol)
    want = reference_bisect(lambda x: want_calls.append(x) or below(x), lo, hi, max_iter, tol)
    bits = lambda xs: [np.float64(x).tobytes() for x in xs]
    assert bits(calls) == bits(want_calls[:len(calls)])
    if len(calls) < len(want_calls):
        assert want_calls[len(calls)] in {*calls, lo, hi}
    assert got == want


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
    assert tech.marginal(0.0) == math.inf


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


def test_rent_gap_on_a_degenerate_window_is_zero(convex_economy):
    gap = rent_gap(convex_economy, (0.5, 0.5))
    assert gap(0.0) == gap(1.0) == 0.0
