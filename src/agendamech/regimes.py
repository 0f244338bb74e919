"""Top-level solvers for every institutional regime.

Unanimity and majority rules, linear and curved reservation profiles,
threshold ladders, coalition choice, exclusion and bunching, plus the
outside-option sweep and the stochastic-coalition variant. Each solver
returns a MechanismSolution carrying the realized outcome together with the
per-agent report schedules that certify incentive compatibility.
"""

from __future__ import annotations

import copy
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
    invert_phi,
    partition_types,
    rent_gap,
    solve_weighted_foc,
)
from .transfers import FlatSchedule, FocSchedule, agenda_setter_payoff, realized_transfers

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
        with np.errstate(divide="ignore"):
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


def _solution(econ: Economy, g_star: float, regime: Regime, schedules: dict,
              coalition: frozenset, gamma: GammaRepresentation, cutoff_types: tuple,
              excluded=(), bunched=(), thresholds: Thresholds | None = None,
              thresholds_raw: Thresholds | None = None, notes: tuple = (),
              transfers: tuple | None = None) -> MechanismSolution:
    """The one constructor of a solved mechanism.

    `schedules` maps every non-agenda agent to its report rule. Transfers
    default to the schedules' realized ones, thresholds to the level itself
    and raw thresholds to the thresholds.
    """
    ordered = tuple(schedules[i] for i in econ.agents)
    if transfers is None:
        transfers = realized_transfers(econ, ordered, g_star)
    thr = thresholds or Thresholds(g_star, g_star)
    return MechanismSolution(
        g_star=g_star,
        regime=regime,
        coalition=coalition,
        excluded=frozenset(excluded),
        bunched=frozenset(bunched),
        cutoff_types=cutoff_types,
        partition=partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thresholds_raw or thr,
        schedules=ordered,
        notes=notes,
    )


def _foc_schedules(econ: Economy, agents, weight: float, gamma: float, **kw) -> dict:
    """FOC schedule of each agent at the common weight minus its own virtual
    type under the shadow weight gamma."""
    own = lambda i: virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gamma)
    return {i: FocSchedule(econ, i, weight - own(i), gamma, **kw) for i in agents}


def _pool(econ: Economy, schedules: dict, tail, donor: int, theta: float, g_star: float):
    """Bunch the tail agents at level g_star and the donor's transfer at theta."""
    if tail:
        pool = float(schedules[donor].transfer(theta))
        schedules.update((i, FlatSchedule(econ, i, g_star, pool)) for i in tail)


def _short_of_reservation(econ: Economy, agents, g: float, transfers) -> list:
    """Agents whose realized payoff at level g falls below their reservation."""
    phi_g = float(econ.tech.phi(g))
    return [i for i in agents
            if econ.type_of(i) * phi_g - transfers[i]
            - float(econ.reservation.value(econ.type_of(i), econ.outside_g)) < -1e-12]


def _posted_solution(econ: Economy, g: float, thresholds: Thresholds | None = None,
                     thresholds_raw: Thresholds | None = None,
                     notes: tuple = ()) -> MechanismSolution:
    """Posted outcome at level g: every agent, the proposer included, pays
    the report-independent tax that leaves it exactly its reservation
    utility; financing is the status quo's own. At g = g_circ this is the
    status quo itself."""
    phi_g = float(econ.tech.phi(g))
    taxes = tuple(
        econ.type_of(i) * phi_g - float(econ.reservation.value(econ.type_of(i), econ.outside_g))
        for i in range(econ.n))
    return _solution(econ, g, Regime.OUTSIDE_OPTION,
                     {i: FlatSchedule(econ, i, g, taxes[i]) for i in econ.agents},
                     _pick_coalition(econ, (), econ.agents), _middle_gamma(econ), (),
                     thresholds=thresholds, thresholds_raw=thresholds_raw, notes=notes,
                     transfers=taxes)


def _one_sided(econ: Economy, side: str, k: int):
    """One-sided configuration with the k cheapest agents on `side` forced in.

    Side "low" (shadow weight 1): every type understates and the k lowest
    agents are excluded and pooled at the lowest member's type; side "high"
    (shadow weight 0) is the mirror image. At least one agent stays a member
    to anchor participation. Returns (members in type order, excluded,
    cutoff type or None, shadow weight, FOC weight, FOC level).
    """
    k = min(k, len(econ.agents) - 1)
    excluded = _exclusion_order(econ, side)[:k]
    members = sorted(set(econ.agents) - set(excluded), key=lambda i: (econ.type_of(i), i))
    gamma = 1.0 if side == "low" else 0.0
    cutoff = econ.type_of(members[0] if side == "low" else members[-1]) if k else None
    weight = econ.agenda_setter_type + (k * cutoff if k else 0.0)
    weight += sum(virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gamma) for i in members)
    return members, excluded, cutoff, gamma, weight, solve_weighted_foc(econ.tech, weight)


def _outer_thresholds(econ: Economy, k: int):
    """Provision levels of the two one-sided configurations, capped at the
    efficient level when agents are forced in, and raw: the plateaus the
    step function reaches at extreme outside levels. Also returns the
    efficient level and both configurations, keyed by side, for the
    uniform-sign candidates."""
    eff = efficient_level(econ)
    sides = {side: _one_sided(econ, side, k) for side in ("low", "high")}
    raw = Thresholds(sides["low"][5], sides["high"][5])
    thr = Thresholds(min(raw.g_low, eff), max(raw.g_high, eff)) if sides["low"][1] else raw
    return thr, raw, eff, sides


def _uniform_sign_candidate(econ: Economy, side: str, config: tuple,
                            enforce_slope_sign: bool,
                            thresholds: Thresholds | None = None,
                            thresholds_raw: Thresholds | None = None,
                            regime: Regime | None = None,
                            cap_to_efficient: bool = True,
                            notes: tuple = (),
                            eff: float | None = None) -> MechanismSolution | None:
    """One-sided solution: every type mis-reports in the same direction.

    `config` is the `_one_sided` configuration of `side`. side "low": all
    understate, participation anchored at the bottom of the coalition; the
    excluded lowest agents are forced in, bunched at the cutoff agent's
    bundle, and provision is capped at the efficient level `eff`, which is
    needed only when agents are excluded. side "high" is the mirror image.
    Returns None when the envelope-slope sign check fails (the candidate is
    infeasible at this outside option).
    """
    members, excluded, cutoff, shadow, weight, g_raw = config
    k = len(excluded)
    low = side == "low"
    if low:
        g_star = min(g_raw, eff) if (k and cap_to_efficient) else g_raw
        clip = {"clip_hi": eff if (k and cap_to_efficient and g_raw > eff) else None}
    else:
        g_star = max(g_raw, eff) if (k and cap_to_efficient) else g_raw
        clip = {"clip_lo": eff if (k and cap_to_efficient and g_raw < eff) else None}

    if enforce_slope_sign:
        grid = np.linspace(econ.theta_lo, econ.theta_hi, 41)
        slopes = float(econ.tech.phi(g_star)) - np.asarray(
            econ.reservation.slope(grid, econ.outside_g), float)
        if (slopes.min() < -CONSISTENCY_TOL) if low else (slopes.max() > CONSISTENCY_TOL):
            return None

    schedules = _foc_schedules(econ, members, weight, shadow, **clip)
    _pool(econ, schedules, excluded, members[0] if low else members[-1], cutoff, g_star)
    need = econ.quota - 1
    required = () if need <= 0 else members[-need:] if low else members[:need]
    if k:
        gamma, cutoff_types = GammaRepresentation.interior_mass(cutoff), (cutoff,)
    elif low:
        gamma, cutoff_types = GammaRepresentation.point_mass_at_low(), (econ.theta_lo,)
    else:
        gamma, cutoff_types = GammaRepresentation.point_mass_at_high(), (econ.theta_hi,)
    default_regime = Regime.UNDERSTATE_INTERIOR if low else Regime.OVERSTATE_INTERIOR
    return _solution(econ, g_star, regime or default_regime, schedules,
                     _pick_coalition(econ, required, members), gamma, cutoff_types,
                     excluded=excluded, bunched=excluded, thresholds=thresholds,
                     thresholds_raw=thresholds_raw or Thresholds(g_raw, g_raw), notes=notes)


# ---------------------------------------------------------------------------
# Linear reservation profiles
# ---------------------------------------------------------------------------


def _linear_solve(econ: Economy, exclusions: int) -> MechanismSolution:
    thr, raw, eff, sides = _outer_thresholds(econ, exclusions)
    g_low, g_high, raw_low, raw_high = thr.g_low, thr.g_high, raw.g_low, raw.g_high
    # slope of the reservation profile is type-independent under linearity
    d = float(econ.reservation.slope(econ.agent_types[0], econ.outside_g))
    phi = lambda g: float(econ.tech.phi(g))

    def candidate(side, thresholds, **kw):
        return _uniform_sign_candidate(econ, side, sides[side], enforce_slope_sign=False,
                                       thresholds=thresholds, thresholds_raw=raw, eff=eff, **kw)

    if raw_low <= raw_high + BRANCH_TOL:
        if d < phi(g_low) - BRANCH_TOL:
            return candidate("low", thr)
        if d > phi(g_high) + BRANCH_TOL:
            return candidate("high", thr)
        # post the reservation-tracking level, phi equal to the common slope
        # d; under the head-tax profile this is the bundle (g_circ, g_circ/n)
        return _posted_solution(econ, invert_phi(econ.tech, d), thresholds=thr,
                                thresholds_raw=raw)

    # non-monotone configuration: two branches split at the low provision,
    # the boundary itself assigned to the low branch
    thr = Thresholds(g_low, raw_high)
    note = (f"non-monotone thresholds: raw low {raw_low:.12g} exceeds raw high {raw_high:.12g}",)
    if d <= phi(g_low) + BRANCH_TOL:
        return candidate("low", thr, regime=Regime.NON_MONOTONE_LOW, notes=note)
    return candidate("high", thr, regime=Regime.NON_MONOTONE_HIGH, cap_to_efficient=False,
                     notes=note)


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


def _split_weights(econ: Economy, order: list):
    """Types and virtual types at shadow weight 1 (hl) of the agents in type
    order, and the FOC weight of every split s = 0..r: the s lowest agents
    overstate (shadow weight 0), the others understate."""
    types = [econ.type_of(i) for i in order]
    hl = [virtual_value_gamma(econ.dist_of(i), t, 1.0) for i, t in zip(order, types)]
    hh = [virtual_value_gamma(econ.dist_of(i), t, 0.0) for i, t in zip(order, types)]
    weights = [econ.agenda_setter_type + sum(hh[:s]) + sum(hl[s:]) for s in range(len(order) + 1)]
    return types, hl, weights


def _concave_unanimity(econ: Economy) -> MechanismSolution:
    order = econ.sorted_agents()
    r = len(order)
    types, hl, weights = _split_weights(econ, order)
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
        gamma_s = 1.0  # the agent at split s understates
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
        gamma_s = bisect(lambda gam: phi_at(gam) > target, 0.0, 1.0, 200)
        w_star = base + virtual_value_gamma(dist_j, t_j, gamma_s)
        g_star = solve_weighted_foc(econ.tech, w_star)
        anchor = t_j
        gamma = GammaRepresentation.interior_mass(t_j, at_star=gamma_s)

    schedules = {**_foc_schedules(econ, order[:s], w_star, 0.0),
                 **_foc_schedules(econ, order[s:s + 1], w_star, gamma_s),
                 **_foc_schedules(econ, order[s + 1:], w_star, 1.0)}
    if anchor <= econ.theta_lo + 1e-12:
        regime = Regime.UNDERSTATE_INTERIOR
    elif anchor >= econ.theta_hi - 1e-12:
        regime = Regime.OVERSTATE_INTERIOR
    else:
        regime = Regime.MIXED_INTERIOR
    return _solution(econ, g_star, regime, schedules, _pick_coalition(econ, order, order),
                     gamma, (anchor,), thresholds=thr)


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

    side = "low" if gamma_const >= 1.0 - 1e-12 else "high" if gamma_const <= 1e-12 else None
    if side is not None:
        return _uniform_sign_candidate(econ, side, _one_sided(econ, side, 0),
                                       enforce_slope_sign=False, thresholds=thr,
                                       thresholds_raw=thr)

    gamma = GammaRepresentation.constant(gamma_const)
    w_star = gamma_weight_sum(econ, gamma)
    g_star = solve_weighted_foc(econ.tech, w_star)
    return _solution(econ, g_star, Regime.MIXED_INTERIOR,
                     _foc_schedules(econ, econ.agents, w_star, gamma_const),
                     _pick_coalition(econ, econ.agents, econ.agents), gamma, (lo, hi),
                     thresholds=thr)


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
        return _uniform_sign_candidate(econ, "low", _one_sided(econ, "low", 0),
                                       enforce_slope_sign=False)
    if curv is Curvature.CONCAVE:
        try:
            return _concave_unanimity(econ)
        except FixedPointDivergence:
            return _posted_solution(econ, econ.outside_g,
                                    notes=("no consistent cutoff; status quo implemented",))
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

    hh_below = sum(virtual_value_gamma(econ.dist_of(i), econ.type_of(i), 0.0) for i in below)
    hl_above = sum(virtual_value_gamma(econ.dist_of(i), econ.type_of(i), 1.0) for i in above)

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

    schedules = {**_foc_schedules(econ, below, w_star, 0.0),
                 **_foc_schedules(econ, above, w_star, 1.0)}
    for i, dip in zip(window, dips):
        schedules.update(_foc_schedules(econ, [i], w_star, gam, pin=(econ.type_of(i), dip)))
    gamma = GammaRepresentation.piecewise(
        pieces=((econ.theta_lo, theta_p, 0.0), (theta_p, theta_q, gam),
                (theta_q, econ.theta_hi, 1.0)),
        atoms=((theta_p, 0.0), (theta_q, 1.0)),
    )
    required = [order[start - 1], order[end + 1]][:econ.quota - 1]
    return _solution(econ, g_star, Regime.MIXED_INTERIOR, schedules,
                     _pick_coalition(econ, required, below + above), gamma, (theta_p, theta_q),
                     excluded=window, notes=(f"excluded interior window of {width} agent(s)",))


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

    schedules = _foc_schedules(econ, members, w_star, gam)
    _pool(econ, schedules, low_tail, members[0], theta_p, g_star)
    _pool(econ, schedules, high_tail, members[-1], theta_q, g_star)
    tails = (*low_tail, *high_tail)
    transfers = realized_transfers(econ, [schedules[i] for i in econ.agents], g_star)
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
    return _solution(econ, g_star, Regime.MIXED_INTERIOR, schedules,
                     _pick_coalition(econ, binding[:econ.quota - 1], members), gamma,
                     (theta_p, theta_q),
                     excluded=_short_of_reservation(econ, tails, g_star, transfers),
                     bunched=tails, notes=(f"excluded tails ({k_lo} low, {k_hi} high)",),
                     transfers=transfers)


def solve_majority_general(econ: Economy) -> MechanismSolution:
    """Quota solver for any curvature: uniform-sign candidates with tail
    exclusion, curvature-specific intermediate candidates, and the posted
    status quo compete on the agenda setter's realized payoff."""
    if econ.quota == econ.n:
        return solve_unanimity_general(econ)
    curv = econ.reservation.curvature
    k = econ.n - econ.quota
    if curv is Curvature.LINEAR:
        return _linear_solve(econ, k)
    if curv is Curvature.NEGATIVE_SLOPE:
        return _uniform_sign_candidate(econ, "low", _one_sided(econ, "low", k),
                                       enforce_slope_sign=False, eff=efficient_level(econ))

    thresholds, thresholds_raw, eff, sides = _outer_thresholds(econ, k)
    # uniform-sign regimes apply mechanically: force the cheapest tail in,
    # bunch it at the cutoff bundle, cap at the efficient level
    for side in ("low", "high"):
        sol = _uniform_sign_candidate(econ, side, sides[side], enforce_slope_sign=True,
                                      thresholds=thresholds, thresholds_raw=thresholds_raw,
                                      eff=eff)
        if sol is not None:
            return sol

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
        return _posted_solution(econ, econ.outside_g, thresholds=thresholds,
                                thresholds_raw=thresholds_raw,
                                notes=("no consistent configuration; status quo implemented",))
    coalition = best.coalition
    if len(coalition) != econ.quota:
        coalition = _pick_coalition(econ, (), [i for i in econ.agents if i not in best.excluded])
    return dataclasses.replace(best, coalition=coalition, thresholds=thresholds,
                               thresholds_raw=thresholds_raw)


def solve(econ: Economy) -> MechanismSolution:
    """Solve at the economy's quota and curvature (unanimity when quota = n)."""
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
    schedules, paid = {}, {}
    if members:
        inner = solve(econ.restricted_to(members))
        g_star, regime, gamma = inner.g_star, inner.regime, inner.gamma
        cutoff_types, thr, thr_raw = inner.cutoff_types, inner.thresholds, inner.thresholds_raw
        note = f"coalition drawn with seed {seed}; outsiders taxed {tau_bar}"
        for pos, i in enumerate(members):
            # the schedule keeps the sub-economy and its distribution; only
            # the agent index changes
            schedules[i] = copy.copy(inner.schedules[pos])
            schedules[i].agent = i
            paid[i] = inner.transfers[pos + 1]
    else:
        # quota of one: the proposer needs no votes and provides its own
        # optimum
        g_star = solve_weighted_foc(econ.tech, econ.agenda_setter_type)
        regime, gamma = Regime.UNDERSTATE_INTERIOR, GammaRepresentation.point_mass_at_low()
        cutoff_types, thr, thr_raw = (), None, None
        note = f"singleton coalition (seed {seed}); outsiders taxed {tau_bar}"
    outsiders = [i for i in econ.agents if i not in members]
    for i in outsiders:
        schedules[i] = FlatSchedule(econ, i, g_star, tau_bar)
        paid[i] = tau_bar
    t_others = [paid[i] for i in econ.agents]
    transfers = (g_star - sum(t_others), *t_others)
    return _solution(econ, g_star, regime, schedules, frozenset({AGENDA_SETTER, *members}),
                     gamma, cutoff_types,
                     excluded=_short_of_reservation(econ, outsiders, g_star, transfers),
                     thresholds=thr, thresholds_raw=thr_raw, notes=(note,), transfers=transfers)


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
        types, _, weights = _split_weights(econ, order)
        for s in range(r):
            phi_s = float(econ.tech.phi(solve_weighted_foc(econ.tech, weights[s])))
            target_theta = types[s]
            g_circ = _bisect_increasing(lambda gc: slope_at(target_theta, gc) - phi_s,
                                        0.0, hi_cap)
            if g_circ is not None:
                rungs.append(LadderRung(g_circ, k=s, l=s + 1))
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
