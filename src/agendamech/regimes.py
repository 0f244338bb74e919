"""Top-level solvers for every institutional regime.

Unanimity and majority rules, linear and curved reservation profiles,
threshold ladders, coalition choice, exclusion and bunching, plus the
outside-option sweep and the stochastic-coalition variant. Each solver
returns a MechanismSolution carrying the realized outcome together with the
per-agent report schedules that certify incentive compatibility.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    AGENDA_SETTER,
    Curvature,
    Economy,
    InvalidEconomy,
    hazard_high,
    hazard_low,
    virtual_value_gamma,
)
from .solver_core import (
    BracketFailure,
    FixedPointDivergence,
    GammaRepresentation,
    Partition,
    SolverError,
    bisect,
    efficient_level,
    gamma_star_constant,
    gamma_weight_sum,
    partition_types,
    rent_gap,
    solve_weighted_foc,
)
from .transfers import (
    GAMMA_BLEND,
    HAZARD_HIGH,
    HAZARD_LOW,
    FlatSchedule,
    FocSchedule,
    agenda_setter_payoff,
    posted_outside_schedule,
    realized_transfers,
)

BRANCH_TOL = 1e-12
CONSISTENCY_TOL = 1e-9


class Regime(Enum):
    UNDERSTATE_INTERIOR = "understate_interior"
    OUTSIDE_OPTION = "outside_option"
    OVERSTATE_INTERIOR = "overstate_interior"
    NON_MONOTONE_LOW = "non_monotone_low"
    NON_MONOTONE_HIGH = "non_monotone_high"
    MIXED_INTERIOR = "mixed_interior"


@dataclass(frozen=True)
class Thresholds:
    g_low: float
    g_high: float


@dataclass(frozen=True)
class LadderRung:
    g_circ: float
    k: int
    l: int


@dataclass(frozen=True)
class ThresholdTable:
    g_low: float
    g_high: float
    intermediate: tuple


@dataclass(frozen=True)
class MechanismSolution:
    """Solved mechanism at the realized type profile.

    transfers[0] is the agenda setter's own contribution; schedules hold one
    report rule per non-agenda agent, aligned with economy agent order.
    """

    g_star: float
    regime: Regime
    coalition: frozenset
    excluded: frozenset
    bunched: frozenset
    cutoff_types: tuple
    partition: Partition
    gamma: GammaRepresentation
    transfers: tuple
    thresholds: Thresholds
    thresholds_raw: Thresholds
    schedules: tuple
    notes: tuple = ()

    def schedule_for(self, agent: int):
        for s in self.schedules:
            if s.agent == agent:
                return s
        raise KeyError(f"no schedule for agent {agent}")

    def transfer_of(self, agent: int) -> float:
        return self.transfers[agent]


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------


def _require_linear(econ: Economy):
    if econ.reservation.curvature is not Curvature.LINEAR:
        raise InvalidEconomy("reservation profile must be linear for this solver")


def _exclusion_order(econ: Economy, side: str) -> list:
    """Agents in the order they are excluded. Ties by type are broken so the
    surviving coalition is lexicographically smallest."""
    if side == "low":
        return sorted(econ.agents, key=lambda i: (econ.type_of(i), -i))
    return sorted(econ.agents, key=lambda i: (-econ.type_of(i), -i))


def _pick_coalition(econ: Economy, required, eligible) -> frozenset:
    """Quota-sized coalition containing the agenda setter and every required
    member, filled lexicographically from the eligible pool."""
    members = {AGENDA_SETTER, *required}
    for i in sorted(eligible):
        if len(members) >= econ.quota:
            break
        members.add(i)
    if len(members) != econ.quota:
        raise InvalidEconomy("cannot assemble a quota-sized coalition")
    return frozenset(members)


def _middle_gamma(econ: Economy) -> GammaRepresentation:
    """Constant shadow weight rationalizing the status-quo level, if any."""
    g_circ = econ.outside_g
    try:
        dphi = float(econ.tech.phi_prime(g_circ))
    except (ZeroDivisionError, OverflowError, ValueError):
        dphi = math.inf
    if not (math.isfinite(dphi) and dphi > 0):
        return GammaRepresentation.constant(0.5)
    target = 1.0 / dphi

    def w(gam):
        return gamma_weight_sum(econ, GammaRepresentation.constant(gam))

    w1, w0 = w(1.0), w(0.0)
    if not w1 - 1e-9 <= target <= w0 + 1e-9:
        return GammaRepresentation.constant(0.5)
    # w is decreasing in gamma
    return GammaRepresentation.constant(bisect(lambda gam: w(gam) > target, 0.0, 1.0, 100))


def _posted_solution(econ: Economy, thresholds: Thresholds | None = None,
                     thresholds_raw: Thresholds | None = None,
                     notes: tuple = ()) -> MechanismSolution:
    """Status-quo outcome: every agent, the proposer included, gets exactly
    the reservation bundle; financing is the status quo's own."""
    g_circ = econ.outside_g
    schedules = tuple(posted_outside_schedule(econ, i) for i in econ.agents)
    phi_g = float(econ.tech.phi(g_circ))
    t_a = econ.agenda_setter_type * phi_g - float(
        econ.reservation.value(econ.agenda_setter_type, g_circ))
    transfers = (t_a, *(s.t_value for s in schedules))
    thr = thresholds or Thresholds(g_circ, g_circ)
    return MechanismSolution(
        g_star=g_circ,
        regime=Regime.OUTSIDE_OPTION,
        coalition=_pick_coalition(econ, (), econ.agents),
        excluded=frozenset(),
        bunched=frozenset(),
        cutoff_types=(),
        partition=partition_types(econ, g_circ),
        gamma=_middle_gamma(econ),
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thresholds_raw or thr,
        schedules=schedules,
        notes=notes,
    )


def _uniform_sign_candidate(econ: Economy, side: str, exclusions: int,
                            enforce_slope_sign: bool,
                            thresholds: Thresholds | None = None,
                            thresholds_raw: Thresholds | None = None,
                            regime: Regime | None = None,
                            cap_to_efficient: bool = True,
                            notes: tuple = ()) -> MechanismSolution | None:
    """One-sided solution: every type mis-reports in the same direction.

    side "low": all understate, participation anchored at the bottom of the
    coalition; the `exclusions` lowest agents are forced in, bunched at the
    cutoff agent's bundle, and provision is capped at the efficient level.
    side "high" is the mirror image. Returns None when the envelope-slope
    sign check fails (the candidate is infeasible at this outside option).
    """
    r = len(econ.agents)
    k = min(exclusions, r - 1)  # keep one agent anchoring participation
    eff = efficient_level(econ)
    excluded = _exclusion_order(econ, side)[:k]
    coalition_members = sorted(set(econ.agents) - set(excluded),
                               key=lambda i: (econ.type_of(i), i))

    if side == "low":
        cutoff = econ.type_of(coalition_members[0]) if k else None
        weight = econ.agenda_setter_type + (k * cutoff if k else 0.0)
        weight += sum(hazard_low(econ.dist_of(i), econ.type_of(i)) for i in coalition_members)
        g_raw = solve_weighted_foc(econ.tech, weight)
        g_star = min(g_raw, eff) if (k and cap_to_efficient) else g_raw
        family, clip = HAZARD_LOW, {"clip_hi": eff if (k and cap_to_efficient and g_raw > eff) else None}
        anchor_default = econ.theta_lo
        gamma = (GammaRepresentation.interior_mass(cutoff) if k
                 else GammaRepresentation.point_mass_at_low())
        default_regime = Regime.UNDERSTATE_INTERIOR
        cutoff_agent = coalition_members[0] if k else None
    else:
        cutoff = econ.type_of(coalition_members[-1]) if k else None
        weight = econ.agenda_setter_type + (k * cutoff if k else 0.0)
        weight += sum(hazard_high(econ.dist_of(i), econ.type_of(i)) for i in coalition_members)
        g_raw = solve_weighted_foc(econ.tech, weight)
        g_star = max(g_raw, eff) if (k and cap_to_efficient) else g_raw
        family, clip = HAZARD_HIGH, {"clip_lo": eff if (k and cap_to_efficient and g_raw < eff) else None}
        anchor_default = econ.theta_hi
        gamma = (GammaRepresentation.interior_mass(cutoff) if k
                 else GammaRepresentation.point_mass_at_high())
        default_regime = Regime.OVERSTATE_INTERIOR
        cutoff_agent = coalition_members[-1] if k else None

    if enforce_slope_sign:
        grid = np.linspace(econ.theta_lo, econ.theta_hi, 41)
        slopes = float(econ.tech.phi(g_star)) - np.asarray(
            econ.reservation.slope(grid, econ.outside_g), float)
        if side == "low" and slopes.min() < -CONSISTENCY_TOL:
            return None
        if side == "high" and slopes.max() > CONSISTENCY_TOL:
            return None

    schedules = {}
    for i in coalition_members:
        own = (hazard_low if family == HAZARD_LOW else hazard_high)(
            econ.dist_of(i), econ.type_of(i))
        schedules[i] = FocSchedule(econ, i, weight - own, family, **clip)
    if k:
        pool_transfer = float(schedules[cutoff_agent].transfer(econ.type_of(cutoff_agent)))
        for i in excluded:
            schedules[i] = FlatSchedule(econ, i, g_star, pool_transfer)
    ordered = tuple(schedules[i] for i in econ.agents)
    transfers = realized_transfers(econ, ordered, g_star)
    thr = thresholds or Thresholds(g_star, g_star)
    need = econ.quota - 1
    if need <= 0:
        required = ()
    elif side == "low":
        required = coalition_members[-need:]
    else:
        required = coalition_members[:need]
    return MechanismSolution(
        g_star=g_star,
        regime=regime or default_regime,
        coalition=_pick_coalition(econ, required, coalition_members),
        excluded=frozenset(excluded),
        bunched=frozenset(excluded),
        cutoff_types=(cutoff,) if k else (anchor_default,),
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thresholds_raw or Thresholds(g_raw, g_raw),
        schedules=ordered,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Linear reservation profiles
# ---------------------------------------------------------------------------


def _linear_posted_solution(econ: Economy, d: float, thresholds: Thresholds,
                            thresholds_raw: Thresholds) -> MechanismSolution:
    """Middle branch under a linear profile: post the reservation-tracking
    level (phi equal to the common slope d) with the report-independent tax
    that leaves every type exactly its reservation utility. For the
    status-quo-with-head-tax profile this is the bundle (g_circ, g_circ/n)."""
    if econ.tech.phi_inverse is not None:
        g_track = float(econ.tech.phi_inverse(d)) if d > 0 else 0.0
    else:
        g_track = _invert_phi_by_bisection(econ.tech, d)
    g_track = max(g_track, 0.0)
    phi_g = float(econ.tech.phi(g_track))
    schedules = []
    t_others = []
    for i in econ.agents:
        theta = econ.type_of(i)
        t = theta * phi_g - float(econ.reservation.value(theta, econ.outside_g))
        schedules.append(FlatSchedule(econ, i, g_track, t))
        t_others.append(t)
    t_a = econ.agenda_setter_type * phi_g - float(
        econ.reservation.value(econ.agenda_setter_type, econ.outside_g))
    return MechanismSolution(
        g_star=g_track,
        regime=Regime.OUTSIDE_OPTION,
        coalition=_pick_coalition(econ, (), econ.agents),
        excluded=frozenset(),
        bunched=frozenset(),
        cutoff_types=(),
        partition=partition_types(econ, g_track),
        gamma=_middle_gamma(econ),
        transfers=(t_a, *t_others),
        thresholds=thresholds,
        thresholds_raw=thresholds_raw,
        schedules=tuple(schedules),
    )


def _invert_phi_by_bisection(tech, target: float) -> float:
    if target <= 0.0:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if float(tech.phi(hi)) >= target:
            break
        hi *= 2.0
    return bisect(lambda g: float(tech.phi(g)) < target, 0.0, hi, 200)


def _linear_solve(econ: Economy, exclusions: int) -> MechanismSolution:
    r = len(econ.agents)
    k = min(exclusions, r - 1)  # keep one agent anchoring participation
    eff = efficient_level(econ)

    members_low = sorted(set(econ.agents) - set(_exclusion_order(econ, "low")[:k]),
                         key=lambda i: econ.type_of(i))
    cutoff_low = econ.type_of(members_low[0]) if k else None
    w_low = econ.agenda_setter_type + (k * cutoff_low if k else 0.0) + sum(
        hazard_low(econ.dist_of(i), econ.type_of(i)) for i in members_low)
    raw_low = solve_weighted_foc(econ.tech, w_low)
    g_low = min(raw_low, eff) if k else raw_low

    members_high = sorted(set(econ.agents) - set(_exclusion_order(econ, "high")[:k]),
                          key=lambda i: econ.type_of(i))
    cutoff_high = econ.type_of(members_high[-1]) if k else None
    w_high = econ.agenda_setter_type + (k * cutoff_high if k else 0.0) + sum(
        hazard_high(econ.dist_of(i), econ.type_of(i)) for i in members_high)
    raw_high = solve_weighted_foc(econ.tech, w_high)
    g_high = max(raw_high, eff) if k else raw_high

    raw = Thresholds(raw_low, raw_high)
    # slope of the reservation profile is type-independent under linearity
    d = float(econ.reservation.slope(econ.agent_types[0], econ.outside_g))
    phi = lambda g: float(econ.tech.phi(g))

    if raw_low <= raw_high + BRANCH_TOL:
        thr = Thresholds(g_low, g_high)
        if d < phi(g_low) - BRANCH_TOL:
            return _uniform_sign_candidate(
                econ, "low", k, enforce_slope_sign=False,
                thresholds=thr, thresholds_raw=raw)
        if d > phi(g_high) + BRANCH_TOL:
            return _uniform_sign_candidate(
                econ, "high", k, enforce_slope_sign=False,
                thresholds=thr, thresholds_raw=raw)
        return _linear_posted_solution(econ, d, thresholds=thr, thresholds_raw=raw)

    # non-monotone configuration: two branches split at the low provision,
    # the boundary itself assigned to the low branch
    thr = Thresholds(g_low, raw_high)
    note = (f"non-monotone thresholds: raw low {raw_low:.12g} exceeds raw high {raw_high:.12g}",)
    if d <= phi(g_low) + BRANCH_TOL:
        return _uniform_sign_candidate(
            econ, "low", k, enforce_slope_sign=False, thresholds=thr,
            thresholds_raw=raw, regime=Regime.NON_MONOTONE_LOW, notes=note)
    return _uniform_sign_candidate(
        econ, "high", k, enforce_slope_sign=False, thresholds=thr,
        thresholds_raw=raw, regime=Regime.NON_MONOTONE_HIGH,
        cap_to_efficient=False, notes=note)


def solve_unanimity_linear(econ: Economy) -> MechanismSolution:
    """Three-branch rule under unanimity with a linear reservation profile."""
    _require_linear(econ)
    if econ.quota != econ.n:
        raise InvalidEconomy("unanimity solver requires quota = n")
    return _linear_solve(econ, exclusions=0)


def solve_majority_linear(econ: Economy) -> MechanismSolution:
    """Linear-profile solver with a quota: the lowest (highest) types can be
    forced in and bunched at the cutoff agent's bundle, provision capped at
    the efficient level; non-monotone two-branch rule when the low threshold
    exceeds the high one."""
    _require_linear(econ)
    return _linear_solve(econ, exclusions=econ.n - econ.quota)


# ---------------------------------------------------------------------------
# Concave reservation profiles (single binding type)
# ---------------------------------------------------------------------------


def _concave_unanimity(econ: Economy) -> MechanismSolution:
    order = econ.sorted_agents()
    r = len(order)
    types = [econ.type_of(i) for i in order]
    hl = [hazard_low(econ.dist_of(i), t) for i, t in zip(order, types)]
    hh = [hazard_high(econ.dist_of(i), t) for i, t in zip(order, types)]

    weights = []
    for s in range(r + 1):
        weights.append(econ.agenda_setter_type + sum(hh[:s]) + sum(hl[s:]))
    levels = [solve_weighted_foc(econ.tech, w) for w in weights]
    phis = [float(econ.tech.phi(g)) for g in levels]

    points = [econ.theta_lo, *types, econ.theta_hi]
    edges = [float(econ.reservation.slope(p, econ.outside_g)) for p in points]
    thr = Thresholds(levels[0], levels[-1])

    found = None
    for s in range(r + 1):
        lo_ok = (s == r) or phis[s] >= edges[s + 1] - CONSISTENCY_TOL
        hi_ok = (s == 0) or phis[s] <= edges[s] + CONSISTENCY_TOL
        if lo_ok and hi_ok:
            found = s
            break

    if found is not None:
        s = found
        g_star, w_star = levels[s], weights[s]
        if s == 0 and phis[0] >= edges[0]:
            anchor, gamma = econ.theta_lo, GammaRepresentation.point_mass_at_low()
        elif s == r and phis[r] <= edges[r + 1]:
            anchor, gamma = econ.theta_hi, GammaRepresentation.point_mass_at_high()
        else:
            # reservation slope decreases in type
            anchor = bisect(lambda m: float(econ.reservation.slope(m, econ.outside_g)) > phis[s],
                            points[s], points[s + 1], 200)
            gamma = GammaRepresentation.interior_mass(anchor)
        blend = None
    else:
        blend = None
        for s in range(r):
            if phis[s] < edges[s + 1] - CONSISTENCY_TOL and phis[s + 1] > edges[s + 1] + CONSISTENCY_TOL:
                blend = s
                break
        if blend is None:
            raise FixedPointDivergence("no consistent cutoff configuration found")
        s = blend
        j = order[s]
        dist_j, t_j = econ.dist_of(j), types[s]
        base = weights[s] - hl[s]
        target = edges[s + 1]

        def phi_at(gam):
            w = base + virtual_value_gamma(dist_j, t_j, gam)
            return float(econ.tech.phi(solve_weighted_foc(econ.tech, w)))

        # level decreases as the blend weight rises
        gamma_j = bisect(lambda gam: phi_at(gam) > target, 0.0, 1.0, 200)
        w_star = base + virtual_value_gamma(dist_j, t_j, gamma_j)
        g_star = solve_weighted_foc(econ.tech, w_star)
        anchor = t_j
        gamma = GammaRepresentation.interior_mass(t_j, at_star=gamma_j)

    schedules = {}
    for pos, i in enumerate(order):
        if blend is not None and pos == blend:
            fam, gam_val, own = GAMMA_BLEND, gamma.at_star, virtual_value_gamma(
                econ.dist_of(i), types[pos], gamma.at_star)
        elif pos < s:
            fam, gam_val, own = HAZARD_HIGH, None, hh[pos]
        else:
            fam, gam_val, own = HAZARD_LOW, None, hl[pos]
        schedules[i] = FocSchedule(econ, i, w_star - own, fam, gamma=gam_val)
    ordered = tuple(schedules[i] for i in econ.agents)
    transfers = realized_transfers(econ, ordered, g_star)

    if anchor <= econ.theta_lo + 1e-12:
        regime = Regime.UNDERSTATE_INTERIOR
    elif anchor >= econ.theta_hi - 1e-12:
        regime = Regime.OVERSTATE_INTERIOR
    else:
        regime = Regime.MIXED_INTERIOR
    return MechanismSolution(
        g_star=g_star,
        regime=regime,
        coalition=_pick_coalition(econ, order, order),
        excluded=frozenset(),
        bunched=frozenset(),
        cutoff_types=(anchor,),
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thr,
        schedules=ordered,
    )


# ---------------------------------------------------------------------------
# Convex reservation profiles (participation binds at both ends)
# ---------------------------------------------------------------------------


def _convex_unanimity(econ: Economy) -> MechanismSolution:
    lo, hi = econ.theta_lo, econ.theta_hi
    gamma_const = gamma_star_constant(econ, (lo, hi))
    w_low = gamma_weight_sum(econ, GammaRepresentation.constant(1.0))
    w_high = gamma_weight_sum(econ, GammaRepresentation.constant(0.0))
    thr = Thresholds(solve_weighted_foc(econ.tech, w_low),
                     solve_weighted_foc(econ.tech, w_high))

    if gamma_const >= 1.0 - 1e-12:
        sol = _uniform_sign_candidate(econ, "low", 0, enforce_slope_sign=False,
                                      thresholds=thr, thresholds_raw=thr)
        return sol
    if gamma_const <= 1e-12:
        return _uniform_sign_candidate(econ, "high", 0, enforce_slope_sign=False,
                                       thresholds=thr, thresholds_raw=thr)

    gamma = GammaRepresentation.constant(gamma_const)
    w_star = gamma_weight_sum(econ, gamma)
    g_star = solve_weighted_foc(econ.tech, w_star)
    schedules = []
    for i in econ.agents:
        own = virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gamma_const)
        schedules.append(FocSchedule(econ, i, w_star - own, GAMMA_BLEND, gamma=gamma_const))
    ordered = tuple(schedules)
    transfers = realized_transfers(econ, ordered, g_star)
    return MechanismSolution(
        g_star=g_star,
        regime=Regime.MIXED_INTERIOR,
        coalition=_pick_coalition(econ, econ.agents, econ.agents),
        excluded=frozenset(),
        bunched=frozenset(),
        cutoff_types=(lo, hi),
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thr,
        schedules=ordered,
    )


# ---------------------------------------------------------------------------
# General solvers
# ---------------------------------------------------------------------------


def solve_unanimity_general(econ: Economy) -> MechanismSolution:
    """Unanimity solver for any reservation-profile curvature."""
    if econ.quota != econ.n:
        raise InvalidEconomy("unanimity solver requires quota = n")
    curv = econ.reservation.curvature
    if curv is Curvature.LINEAR:
        return _linear_solve(econ, 0)
    if curv is Curvature.NEGATIVE_SLOPE:
        return _uniform_sign_candidate(econ, "low", 0, enforce_slope_sign=False)
    if curv is Curvature.CONCAVE:
        try:
            return _concave_unanimity(econ)
        except FixedPointDivergence:
            return _posted_solution(econ, notes=("no consistent cutoff; status quo implemented",))
    return _convex_unanimity(econ)


def _better_of(econ: Economy, *candidates) -> MechanismSolution:
    best, best_pay = None, -math.inf
    for sol in candidates:
        if sol is None:
            continue
        pay = agenda_setter_payoff(econ, sol)
        if pay > best_pay + 1e-12:
            best, best_pay = sol, pay
    return best


def _concave_window_candidate(econ: Economy, start: int, width: int) -> MechanismSolution | None:
    """Exclude a run of interior agents around the binding type; the window's
    neighbours keep binding participation and the coalition is the
    (possibly non-convex) set of agents outside the window."""
    order = econ.sorted_agents()
    r = len(order)
    end = start + width - 1
    if start < 1 or end > r - 2:
        return None
    window = order[start:end + 1]
    below, above = order[:start], order[end + 1:]
    theta_p = econ.type_of(order[start - 1])
    theta_q = econ.type_of(order[end + 1])
    if theta_q <= theta_p + 1e-12:
        return None

    hh_below = sum(hazard_high(econ.dist_of(i), econ.type_of(i)) for i in below)
    hl_above = sum(hazard_low(econ.dist_of(i), econ.type_of(i)) for i in above)

    def weight_fn(gam):
        mid = sum(virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gam) for i in window)
        return econ.agenda_setter_type + hh_below + mid + hl_above

    f_p = float(econ.dist_of(order[start - 1]).F(theta_p))
    f_q = float(econ.dist_of(order[end + 1]).F(theta_q))
    if f_q <= f_p + 1e-12:
        return None
    try:
        gam = gamma_star_constant(econ, (theta_p, theta_q), (f_p, f_q), weight_fn)
    except BracketFailure:
        return None
    w_star = weight_fn(gam)
    g_star = solve_weighted_foc(econ.tech, w_star)
    phi_g = float(econ.tech.phi(g_star))

    # the rent curve must dip inside the window: falling at its bottom,
    # rising at its top, and strictly below zero at each excluded type
    if phi_g - float(econ.reservation.slope(theta_p, econ.outside_g)) > CONSISTENCY_TOL:
        return None
    if phi_g - float(econ.reservation.slope(theta_q, econ.outside_g)) < -CONSISTENCY_TOL:
        return None
    dips = [rent_gap(econ, g_star, (theta_p, econ.type_of(i))) for i in window]
    if any(d > -1e-12 for d in dips):
        return None

    schedules = {}
    for i in below:
        own = hazard_high(econ.dist_of(i), econ.type_of(i))
        schedules[i] = FocSchedule(econ, i, w_star - own, HAZARD_HIGH)
    for i in above:
        own = hazard_low(econ.dist_of(i), econ.type_of(i))
        schedules[i] = FocSchedule(econ, i, w_star - own, HAZARD_LOW)
    for i, dip in zip(window, dips):
        own = virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gam)
        schedules[i] = FocSchedule(econ, i, w_star - own, GAMMA_BLEND, gamma=gam,
                                   pin=(econ.type_of(i), dip))
    ordered = tuple(schedules[i] for i in econ.agents)
    transfers = realized_transfers(econ, ordered, g_star)

    gamma = GammaRepresentation.piecewise(
        pieces=((econ.theta_lo, theta_p, 0.0), (theta_p, theta_q, gam),
                (theta_q, econ.theta_hi, 1.0)),
        atoms=((theta_p, 0.0), (theta_q, 1.0)),
    )
    outside = below + above
    binding = [order[start - 1], order[end + 1]]
    required = binding if econ.quota >= len(binding) + 1 else binding[:econ.quota - 1]
    return MechanismSolution(
        g_star=g_star,
        regime=Regime.MIXED_INTERIOR,
        coalition=_pick_coalition(econ, required, outside),
        excluded=frozenset(window),
        bunched=frozenset(),
        cutoff_types=(theta_p, theta_q),
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=Thresholds(g_star, g_star),
        thresholds_raw=Thresholds(g_star, g_star),
        schedules=ordered,
        notes=(f"excluded interior window of {width} agent(s)",),
    )


def _convex_tail_candidate(econ: Economy, k_lo: int, k_hi: int) -> MechanismSolution | None:
    """Exclude tail agents on one or both sides; participation binds at the
    extreme coalition members and the tails pool at their bundles."""
    order = econ.sorted_agents()
    r = len(order)
    if k_lo + k_hi > r - 1:
        return None
    low_tail = order[:k_lo]
    high_tail = order[r - k_hi:] if k_hi else []
    members = order[k_lo: r - k_hi]
    if not members:
        return None
    theta_p = econ.type_of(members[0]) if k_lo else econ.theta_lo
    theta_q = econ.type_of(members[-1]) if k_hi else econ.theta_hi
    if theta_q <= theta_p + 1e-12:
        return None
    lo_bound = float(econ.dist_of(members[0]).F(theta_p)) if k_lo else 0.0
    hi_bound = float(econ.dist_of(members[-1]).F(theta_q)) if k_hi else 1.0
    if hi_bound <= lo_bound + 1e-12:
        return None

    def weight_fn(gam):
        mid = sum(virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gam) for i in members)
        return econ.agenda_setter_type + k_lo * theta_p + k_hi * theta_q + mid

    try:
        gam = gamma_star_constant(econ, (theta_p, theta_q), (lo_bound, hi_bound), weight_fn)
    except BracketFailure:
        return None
    w_star = weight_fn(gam)
    g_star = solve_weighted_foc(econ.tech, w_star)
    phi_g = float(econ.tech.phi(g_star))

    # rents must rise into the window from below and fall out of it above
    if k_lo and phi_g - float(econ.reservation.slope(theta_p, econ.outside_g)) < -CONSISTENCY_TOL:
        return None
    if k_hi and phi_g - float(econ.reservation.slope(theta_q, econ.outside_g)) > CONSISTENCY_TOL:
        return None

    schedules = {}
    for i in members:
        own = virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gam)
        schedules[i] = FocSchedule(econ, i, w_star - own, GAMMA_BLEND, gamma=gam)
    if k_lo:
        pool = float(schedules[members[0]].transfer(theta_p))
        for i in low_tail:
            schedules[i] = FlatSchedule(econ, i, g_star, pool)
    if k_hi:
        pool = float(schedules[members[-1]].transfer(theta_q))
        for i in high_tail:
            schedules[i] = FlatSchedule(econ, i, g_star, pool)
    ordered = tuple(schedules[i] for i in econ.agents)
    transfers = realized_transfers(econ, ordered, g_star)

    excluded = [
        i for i in (*low_tail, *high_tail)
        if econ.type_of(i) * phi_g - transfers[i]
        - float(econ.reservation.value(econ.type_of(i), econ.outside_g)) < -1e-12
    ]
    pieces = []
    atoms = []
    if k_lo:
        pieces.append((econ.theta_lo, theta_p, 0.0))
        atoms.append((theta_p, gam))
    pieces.append((theta_p if k_lo else econ.theta_lo,
                   theta_q if k_hi else econ.theta_hi, gam))
    if k_hi:
        pieces.append((theta_q, econ.theta_hi, 1.0))
        atoms.append((theta_q, gam))
    gamma = GammaRepresentation.piecewise(pieces=pieces, atoms=atoms)
    binding = ([members[0]] if k_lo else []) + ([members[-1]] if k_hi else [])
    required = binding if econ.quota >= len(binding) + 1 else binding[:econ.quota - 1]
    return MechanismSolution(
        g_star=g_star,
        regime=Regime.MIXED_INTERIOR,
        coalition=_pick_coalition(econ, required, members),
        excluded=frozenset(excluded),
        bunched=frozenset((*low_tail, *high_tail)),
        cutoff_types=(theta_p, theta_q),
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=Thresholds(g_star, g_star),
        thresholds_raw=Thresholds(g_star, g_star),
        schedules=ordered,
        notes=(f"excluded tails ({k_lo} low, {k_hi} high)",),
    )


def solve_majority_general(econ: Economy) -> MechanismSolution:
    """Quota solver for any curvature: uniform-sign candidates with tail
    exclusion, curvature-specific intermediate candidates, and the posted
    status quo compete on the agenda setter's realized payoff."""
    if econ.quota == econ.n:
        return solve_unanimity_general(econ)
    curv = econ.reservation.curvature
    if curv is Curvature.LINEAR:
        return _linear_solve(econ, econ.n - econ.quota)
    k = econ.n - econ.quota
    if curv is Curvature.NEGATIVE_SLOPE:
        return _uniform_sign_candidate(econ, "low", k, enforce_slope_sign=False)

    thresholds, thresholds_raw = _majority_outer_thresholds(econ, k)
    # uniform-sign regimes apply mechanically: force the cheapest tail in,
    # bunch it at the cutoff bundle, cap at the efficient level
    low = _uniform_sign_candidate(econ, "low", k, enforce_slope_sign=True,
                                  thresholds=thresholds, thresholds_raw=thresholds_raw)
    if low is not None:
        return low
    high = _uniform_sign_candidate(econ, "high", k, enforce_slope_sign=True,
                                   thresholds=thresholds, thresholds_raw=thresholds_raw)
    if high is not None:
        return high

    # countervailing region: curvature-specific exclusion candidates compete
    # on the proposer's realized payoff (the no-exclusion configuration is
    # the degenerate member of each family)
    candidates = []
    try:
        candidates.append(solve_unanimity_general(econ.with_quota(econ.n)))
    except (SolverError, InvalidEconomy):
        pass
    r = econ.n - 1
    if curv is Curvature.CONCAVE:
        for width in range(k, 0, -1):
            for start in range(1, r - width):
                candidates.append(_concave_window_candidate(econ, start, width))
    else:
        for k_lo in range(0, k + 1):
            for k_hi in range(0, k + 1 - k_lo):
                if k_lo == k_hi == 0:
                    continue
                candidates.append(_convex_tail_candidate(econ, k_lo, k_hi))
    best = _better_of(econ, *candidates)
    if best is None:
        return _posted_solution(econ, thresholds=thresholds,
                                thresholds_raw=thresholds_raw,
                                notes=("no consistent configuration; status quo implemented",))
    if len(best.coalition) != econ.quota:
        best = _with_trimmed_coalition(econ, best)
    return dataclasses.replace(best, thresholds=thresholds,
                               thresholds_raw=thresholds_raw)


def _majority_outer_thresholds(econ: Economy, k: int):
    """Provision levels of the two one-sided configurations, capped and raw:
    the plateaus the step function reaches at extreme outside levels."""
    eff = efficient_level(econ)
    out = []
    for side in ("low", "high"):
        excluded = _exclusion_order(econ, side)[: min(k, econ.n - 2)]
        members = [i for i in econ.agents if i not in excluded]
        members.sort(key=lambda i: econ.type_of(i))
        kk = len(excluded)
        if side == "low":
            cutoff = econ.type_of(members[0]) if kk else 0.0
            w = econ.agenda_setter_type + kk * cutoff + sum(
                hazard_low(econ.dist_of(i), econ.type_of(i)) for i in members)
            raw = solve_weighted_foc(econ.tech, w)
            out.append((min(raw, eff) if kk else raw, raw))
        else:
            cutoff = econ.type_of(members[-1]) if kk else 0.0
            w = econ.agenda_setter_type + kk * cutoff + sum(
                hazard_high(econ.dist_of(i), econ.type_of(i)) for i in members)
            raw = solve_weighted_foc(econ.tech, w)
            out.append((max(raw, eff) if kk else raw, raw))
    (g_low, raw_low), (g_high, raw_high) = out
    return Thresholds(g_low, g_high), Thresholds(raw_low, raw_high)


def _with_trimmed_coalition(econ: Economy, sol: MechanismSolution) -> MechanismSolution:
    eligible = [i for i in econ.agents if i not in sol.excluded]
    return dataclasses.replace(sol, coalition=_pick_coalition(econ, (), eligible))


def solve(econ: Economy) -> MechanismSolution:
    """Dispatch on quota and curvature."""
    if econ.quota == econ.n:
        return solve_unanimity_general(econ)
    return solve_majority_general(econ)


# ---------------------------------------------------------------------------
# Sweeps, stochastic coalitions, threshold ladder
# ---------------------------------------------------------------------------


def sweep_outside_option(econ: Economy, g_grid) -> list:
    """Re-solve at each outside-option level; rows are (g_circ, solution)."""
    grid = list(g_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")
    return [(g, solve(econ.with_outside_g(g))) for g in grid]


def solve_stochastic_coalition(econ: Economy, seed: int, tau_bar: float) -> MechanismSolution:
    """Random quota coalition; inside it the unanimity solution applies and
    outsiders pay the flat tax tau_bar (incentive constraints are only
    required within the coalition)."""
    if tau_bar < 0:
        raise InvalidEconomy("tau_bar must be nonnegative")
    rng = random.Random(seed)
    members = sorted(rng.sample(list(econ.agents), econ.quota - 1))
    if not members:
        return _singleton_coalition_solution(econ, tau_bar, seed)
    inner = econ.restricted_to(members)
    inner_sol = solve(inner)
    g_star = inner_sol.g_star

    schedules = {}
    transfers = {AGENDA_SETTER: 0.0}
    for pos, i in enumerate(members):
        inner_sched = inner_sol.schedules[pos]
        sched = _relabel_schedule(inner_sched, i)
        schedules[i] = sched
        transfers[i] = inner_sol.transfers[pos + 1]
    outsiders = [i for i in econ.agents if i not in members]
    for i in outsiders:
        schedules[i] = FlatSchedule(econ, i, g_star, tau_bar)
        transfers[i] = tau_bar
    t_others = [transfers[i] for i in econ.agents]
    t_a = g_star - sum(t_others)
    ordered = tuple(schedules[i] for i in econ.agents)

    phi_g = float(econ.tech.phi(g_star))
    excluded = frozenset(
        i for i in outsiders
        if econ.type_of(i) * phi_g - tau_bar
        - float(econ.reservation.value(econ.type_of(i), econ.outside_g)) < -1e-12
    )
    return MechanismSolution(
        g_star=g_star,
        regime=inner_sol.regime,
        coalition=frozenset({AGENDA_SETTER, *members}),
        excluded=excluded,
        bunched=frozenset(),
        cutoff_types=inner_sol.cutoff_types,
        partition=partition_types(econ, g_star),
        gamma=inner_sol.gamma,
        transfers=(t_a, *t_others),
        thresholds=inner_sol.thresholds,
        thresholds_raw=inner_sol.thresholds_raw,
        schedules=ordered,
        notes=(f"coalition drawn with seed {seed}; outsiders taxed {tau_bar}",),
    )


def _singleton_coalition_solution(econ: Economy, tau_bar: float, seed: int) -> MechanismSolution:
    """Quota of one: the proposer needs no votes, provides his own optimum
    and taxes everyone else at the bound."""
    g_star = solve_weighted_foc(econ.tech, econ.agenda_setter_type)
    schedules = tuple(FlatSchedule(econ, i, g_star, tau_bar) for i in econ.agents)
    t_others = [tau_bar] * len(econ.agents)
    t_a = g_star - sum(t_others)
    phi_g = float(econ.tech.phi(g_star))
    excluded = frozenset(
        i for i in econ.agents
        if econ.type_of(i) * phi_g - tau_bar
        - float(econ.reservation.value(econ.type_of(i), econ.outside_g)) < -1e-12
    )
    return MechanismSolution(
        g_star=g_star,
        regime=Regime.UNDERSTATE_INTERIOR,
        coalition=frozenset({AGENDA_SETTER}),
        excluded=excluded,
        bunched=frozenset(),
        cutoff_types=(),
        partition=partition_types(econ, g_star),
        gamma=GammaRepresentation.point_mass_at_low(),
        transfers=(t_a, *t_others),
        thresholds=Thresholds(g_star, g_star),
        thresholds_raw=Thresholds(g_star, g_star),
        schedules=schedules,
        notes=(f"singleton coalition (seed {seed}); outsiders taxed {tau_bar}",),
    )


class _RelabeledSchedule:
    """Schedule borrowed from a sub-economy, re-addressed to the full one."""

    def __init__(self, inner, agent):
        self._inner = inner
        self.agent = agent
        self.kind = inner.kind
        self.anchor = inner.anchor

    def allocation(self, x):
        return self._inner.allocation(x)

    def transfer(self, x):
        return self._inner.transfer(x)

    def rent(self, x):
        return self._inner.rent(x)


def _relabel_schedule(inner, agent):
    return _RelabeledSchedule(inner, agent)


def threshold_table(econ: Economy, g_circ_max: float | None = None) -> ThresholdTable:
    """Outside-option levels at which the solution's split indices step.

    For concave profiles each rung is the level where the binding type
    reaches the next realized agent (indices rise with the outside option);
    for convex profiles rungs are where a realized agent's envelope slope
    flips sign at the solution (positional indices fall). Linear profiles
    have only the two outer thresholds.
    """
    order = econ.sorted_agents()
    r = len(order)
    curv = econ.reservation.curvature
    base = solve(econ.with_outside_g(0.0))
    hi_cap = g_circ_max if g_circ_max is not None else max(
        8.0, 16.0 * base.thresholds.g_high + 8.0)

    def slope_at(theta, gc):
        return float(econ.reservation.slope(theta, gc))

    if curv is Curvature.LINEAR:
        sol = solve(econ)
        return ThresholdTable(sol.thresholds.g_low, sol.thresholds.g_high, ())

    rungs = []
    if curv is Curvature.CONCAVE:
        types = [econ.type_of(i) for i in order]
        hl = [hazard_low(econ.dist_of(i), t) for i, t in zip(order, types)]
        hh = [hazard_high(econ.dist_of(i), t) for i, t in zip(order, types)]
        for s in range(r):
            w = econ.agenda_setter_type + sum(hh[:s]) + sum(hl[s:])
            phi_s = float(econ.tech.phi(solve_weighted_foc(econ.tech, w)))
            target_theta = types[s]
            g_circ = _bisect_increasing(lambda gc: slope_at(target_theta, gc) - phi_s,
                                        0.0, hi_cap)
            if g_circ is not None:
                rungs.append(LadderRung(g_circ, k=s, l=s + 1))
        g_low = rungs[0].g_circ if rungs else 0.0
        g_high = rungs[-1].g_circ if rungs else 0.0
    else:
        for pos in range(r - 1, -1, -1):
            theta = econ.type_of(order[pos])

            def flip(gc):
                sol = solve(econ.with_outside_g(gc))
                return slope_at(theta, gc) - float(econ.tech.phi(sol.g_star))

            g_circ = _bisect_increasing(flip, 0.0, hi_cap)
            if g_circ is not None:
                rungs.append(LadderRung(g_circ, k=pos + 1, l=pos + 1))
        g_low = rungs[0].g_circ if rungs else 0.0
        g_high = rungs[-1].g_circ if rungs else 0.0
    return ThresholdTable(g_low, g_high, tuple(rungs))


def _bisect_increasing(f, lo: float, hi: float, iters: int = 100):
    """Root of an increasing function on [lo, hi], or None without a sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        return None
    return bisect(lambda x: f(x) < 0, lo, hi, iters)
