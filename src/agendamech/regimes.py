"""Top-level solvers for every institutional regime.

Unanimity and majority rules, linear and curved reservation profiles,
threshold ladders, coalition choice, exclusion and bunching, and the
stochastic-coalition variant (`cli.cmd_sweep` sweeps the outside option).
Each solver returns a MechanismSolution carrying the realized outcome and
the per-agent report schedules that certify incentive compatibility.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import random
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    AGENDA_SETTER,
    Curvature,
    Economy,
    InvalidEconomy,
    _bits,
    _shadow_weight,
)
from .solver_core import (
    BracketFailure,
    FixedPointDivergence,
    GammaRepresentation,
    Partition,
    SolverError,
    _partition_at,
    bisect,
    efficient_level,
    gamma_root,
    invert_phi,
    partition_types,
    rent_gap,
    solve_weighted_foc,
)
from .transfers import FlatSchedule, FocSchedule, READINGS, agenda_setter_payoff, realized_transfers

BRANCH_TOL = 1e-12
CONSISTENCY_TOL = 1e-9
TALLY = ContextVar("outbid_tally")  # [bound left, floor] of the assembly `_better_of` runs


class _Outbid(Exception):
    """The rents an assembly has charged sink its payoff bound below the floor."""


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


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------


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
    dphi, w = econ.tech.marginal(econ.outside_g), _constant_weight(econ)
    # w falls as gamma rises; 0.5 where no gamma puts w at 1/phi' of the status quo
    if math.isfinite(dphi) and dphi > 0 and w(1.0) - 1e-9 <= 1.0 / dphi <= w(0.0) + 1e-9:
        return GammaRepresentation.constant(bisect(lambda gam: w(gam) > 1.0 / dphi, 0.0, 1.0, 100))
    return GammaRepresentation.constant(0.5)


def _solution(econ: Economy, g_star: float, regime: Regime, schedules: dict,
              coalition: frozenset, gamma: GammaRepresentation, cutoff_types: tuple,
              excluded=(), bunched=(), thresholds: Thresholds | None = None,
              thresholds_raw: Thresholds | None = None, notes: tuple = (),
              transfers: tuple | None = None,
              partition: Partition | None = None) -> MechanismSolution:
    """The one constructor of a solved mechanism.

    `schedules` maps every non-agenda agent to its report rule. Transfers
    default to the schedules' realized ones, thresholds to the level itself,
    raw thresholds to the thresholds and the partition to the one at the level.
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
        partition=partition or partition_types(econ, g_star),
        gamma=gamma,
        transfers=transfers,
        thresholds=thr,
        thresholds_raw=thresholds_raw or thr,
        schedules=ordered,
        notes=notes,
    )


def _foc_schedules(econ: Economy, agents, weight: float, gamma: float, **kw) -> dict:
    """FOC schedule of each agent at the common weight minus its own virtual
    type under the shadow weight gamma. In an assembly `_better_of` checks, each
    unpinned schedule's rent at its agent's type is charged to the open `TALLY`
    as it is built, and `_Outbid` raised once the bound left falls below the floor."""
    tally, schedules = None if "pin" in kw else TALLY.get(None), {}
    for i in agents:
        schedules[i] = s = FocSchedule(econ, i, weight - econ.virtual_type(i, gamma), gamma, **kw)
        if tally is not None:
            tally[0] -= s.rent(econ.type_of(i))
            if tally[0] < tally[1]:
                raise _Outbid
    return schedules


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
    members = [i for i in econ.sorted_agents() if i not in excluded]
    gamma = 1.0 if side == "low" else 0.0
    cutoff = econ.type_of(members[0] if side == "low" else members[-1]) if k else None
    weight = econ.agenda_setter_type + (k * cutoff if k else 0.0)
    weight += sum(econ.virtual_type(i, gamma) for i in members)
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
                            thresholds: Thresholds | None = None,
                            thresholds_raw: Thresholds | None = None,
                            eff: float | None = None,
                            partition: Partition | None = None) -> MechanismSolution:
    """One-sided solution: every type mis-reports in the same direction.

    `config` is the `_one_sided` configuration of `side`. side "low": all
    understate, participation anchored at the bottom of the coalition; the
    excluded lowest agents are forced in, bunched at the cutoff agent's
    bundle, and provision is capped at the efficient level `eff` (None: no
    cap), which applies only when agents are excluded. side "high" is the
    mirror image.
    """
    members, excluded, cutoff, shadow, weight, g_raw = config
    k = len(excluded)
    low = side == "low"
    capped = k > 0 and eff is not None and (g_raw > eff if low else g_raw < eff)
    g_star = eff if capped else g_raw
    clip = {"clip_hi" if low else "clip_lo": eff if capped else None}
    schedules = _foc_schedules(econ, members, weight, shadow, **clip)
    _pool(econ, schedules, excluded, members[0] if low else members[-1], cutoff, g_star)
    required = members if econ.quota > 1 else ()
    if k:
        gamma, cutoff_types = GammaRepresentation.interior_mass(cutoff), (cutoff,)
    elif low:
        gamma, cutoff_types = GammaRepresentation.point_mass_at_low(), (econ.theta_lo,)
    else:
        gamma, cutoff_types = GammaRepresentation.point_mass_at_high(), (econ.theta_hi,)
    regime = Regime.UNDERSTATE_INTERIOR if low else Regime.OVERSTATE_INTERIOR
    return _solution(econ, g_star, regime, schedules,
                     _pick_coalition(econ, required, members), gamma, cutoff_types,
                     excluded=excluded, bunched=excluded, thresholds=thresholds,
                     thresholds_raw=thresholds_raw or Thresholds(g_raw, g_raw), partition=partition)


# ---------------------------------------------------------------------------
# Linear reservation profiles
# ---------------------------------------------------------------------------


def _linear_solve(econ: Economy, exclusions: int) -> MechanismSolution:
    thr, raw, eff, sides = _outer_thresholds(econ, exclusions)
    g_low, g_high, raw_low, raw_high = thr.g_low, thr.g_high, raw.g_low, raw.g_high
    # slope of the reservation profile is type-independent under linearity
    d = float(econ.reservation.slope(econ.agent_types[0], econ.outside_g))
    phi = lambda g: float(econ.tech.phi(g))

    def candidate(side, thresholds, cap=eff):
        return _uniform_sign_candidate(econ, side, sides[side], thresholds=thresholds,
                                       thresholds_raw=raw, eff=cap)

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
        return dataclasses.replace(candidate("low", thr), regime=Regime.NON_MONOTONE_LOW,
                                   notes=note)
    return dataclasses.replace(candidate("high", thr, cap=None),
                               regime=Regime.NON_MONOTONE_HIGH, notes=note)


# ---------------------------------------------------------------------------
# Concave reservation profiles (single binding type)
# ---------------------------------------------------------------------------


def _split_weights(econ: Economy, order: list):
    """Types and virtual types at shadow weight 1 (hl) of the agents in type
    order, and the FOC weight of every split s = 0..r: the s lowest agents
    overstate (shadow weight 0), the others understate."""
    types = [econ.type_of(i) for i in order]
    hl = [econ.virtual_type(i, 1.0) for i in order]
    hh = [econ.virtual_type(i, 0.0) for i in order]
    weights = [econ.agenda_setter_type + sum(hh[:s]) + sum(hl[s:]) for s in range(len(order) + 1)]
    return types, hl, weights


def _concave_unanimity(econ: Economy):
    order = econ.sorted_agents()
    r = len(order)
    types, hl, weights = _split_weights(econ, order)
    levels = [solve_weighted_foc(econ.tech, w) for w in weights]
    phis = [float(econ.tech.phi(g)) for g in levels]

    points = [econ.theta_lo, *types, econ.theta_hi]
    edges = [float(econ.reservation.slope(p, econ.outside_g)) for p in points]
    thr = Thresholds(levels[0], levels[-1])

    found = next((s for s in range(r + 1)
                  if (s == r or phis[s] >= edges[s + 1] - CONSISTENCY_TOL)
                  and (s == 0 or phis[s] <= edges[s] + CONSISTENCY_TOL)), None)

    if found is not None:
        s = found
        g_star, w_star, phi_g = levels[s], weights[s], phis[s]
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
        blend = next((s for s in range(r) if phis[s] < edges[s + 1] - CONSISTENCY_TOL
                      and phis[s + 1] > edges[s + 1] + CONSISTENCY_TOL), None)
        if blend is None:
            raise FixedPointDivergence("no consistent cutoff configuration found")
        s = blend
        j = order[s]
        t_j = types[s]
        base = weights[s] - hl[s]
        target = edges[s + 1]

        def phi_at(gam):
            w = base + econ.virtual_type(j, gam)
            return float(econ.tech.phi(solve_weighted_foc(econ.tech, w)))

        # level decreases as the blend weight rises
        gamma_s = bisect(lambda gam: phi_at(gam) > target, 0.0, 1.0, 200)
        w_star = base + econ.virtual_type(j, gamma_s)
        g_star = solve_weighted_foc(econ.tech, w_star)
        phi_g = float(econ.tech.phi(g_star))
        anchor = t_j
        gamma = GammaRepresentation.interior_mass(t_j, at_star=gamma_s)

    if anchor <= econ.theta_lo + 1e-12:
        regime = Regime.UNDERSTATE_INTERIOR
    elif anchor >= econ.theta_hi - 1e-12:
        regime = Regime.OVERSTATE_INTERIOR
    else:
        regime = Regime.MIXED_INTERIOR

    def assemble(partition):
        schedules = {**_foc_schedules(econ, order[:s], w_star, 0.0),
                     **_foc_schedules(econ, order[s:s + 1], w_star, gamma_s),
                     **_foc_schedules(econ, order[s + 1:], w_star, 1.0)}
        return _solution(econ, g_star, regime, schedules, _pick_coalition(econ, order, order),
                         gamma, (anchor,), thresholds=thr, partition=partition)

    return _candidate(econ, assemble, g_star, phi_g, types)


# ---------------------------------------------------------------------------
# Convex reservation profiles (participation binds at both ends)
# ---------------------------------------------------------------------------


def _constant_weight(econ: Economy):
    """`gamma_weight_sum` at a constant shadow weight, as a function of it:
    the same float, from each agent's type, F, f and at-top flag read once."""
    terms = [(theta, theta >= econ.theta_hi - 1e-12, cdf, pdf)
             for theta, (cdf, pdf) in zip(econ.agent_types, econ._cdf_pdf)]

    def weight(gam):
        total = econ.agenda_setter_type
        for theta, at_top, cdf, pdf in terms:
            total += theta - ((1.0 if at_top else gam) - cdf) / pdf
        return total
    return weight


def _convex_ends(econ: Economy):
    """What the outside level leaves fixed in `_convex_configuration`: the levels
    at constant shadow weights 1 and 0, both sides' `_one_sided` tuples (kept
    apart: the sums weigh an agent at theta_hi differently, so their levels can
    differ), `_constant_weight`, phi at the two levels and phi at each side's
    level, read once per distinct float among the four levels."""
    weight = _constant_weight(econ)
    levels = tuple(solve_weighted_foc(econ.tech, weight(gam)) for gam in (1.0, 0.0))
    sides = {side: _one_sided(econ, side, 0) for side in ("low", "high")}
    distinct = {_bits(g): g for g in (*levels, sides["low"][5], sides["high"][5])}
    phi = {key: float(econ.tech.phi(g)) for key, g in distinct.items()}
    return (levels, sides, weight, tuple(phi[_bits(g)] for g in levels),
            {side: phi[_bits(config[5])] for side, config in sides.items()})


def _convex_configuration(econ: Economy, ends):
    """(gamma, binding side or None, the side's `_one_sided` tuple or the FOC weight,
    level, phi there) at the economy's outside level, from `_convex_ends(econ)`."""
    phi_level = lambda gam: float(econ.tech.phi(solve_weighted_foc(econ.tech, ends[2](gam))))
    gamma_const = gamma_root(rent_gap(econ, (econ.theta_lo, econ.theta_hi)), phi_level,
                             (0.0, 1.0), ends[3])
    side = "low" if gamma_const >= 1.0 - 1e-12 else "high" if gamma_const <= 1e-12 else None
    if side is not None:
        config = ends[1][side]
        return gamma_const, side, config, config[5], ends[4][side]
    w_star = ends[2](gamma_const)
    g_star = solve_weighted_foc(econ.tech, w_star)
    return gamma_const, side, w_star, g_star, float(econ.tech.phi(g_star))


def _convex_unanimity(econ: Economy):
    ends = _convex_ends(econ)
    gamma_const, side, config, g_star, phi_g = _convex_configuration(econ, ends)
    thr = Thresholds(*ends[0])

    def assemble(partition):
        if side is not None:
            return _uniform_sign_candidate(econ, side, config, thresholds=thr,
                                           thresholds_raw=thr, partition=partition)
        return _solution(econ, g_star, Regime.MIXED_INTERIOR,
                         _foc_schedules(econ, econ.agents, config, gamma_const),
                         _pick_coalition(econ, econ.agents, econ.agents),
                         GammaRepresentation.constant(gamma_const),
                         (econ.theta_lo, econ.theta_hi), thresholds=thr, partition=partition)

    return _candidate(econ, assemble, g_star, phi_g, econ.agent_types)


# ---------------------------------------------------------------------------
# General solvers
# ---------------------------------------------------------------------------


def _curved_unanimity(econ: Economy):
    """Unanimity candidate for a concave or convex reservation profile."""
    if econ.reservation.curvature is Curvature.CONCAVE:
        try:
            return _concave_unanimity(econ)
        except FixedPointDivergence:
            sol = _posted_solution(econ, econ.outside_g,
                                   notes=("no consistent cutoff; status quo implemented",))
            return lambda: agenda_setter_payoff(econ, sol), lambda: sol
    return _convex_unanimity(econ)


def _payoff_bound(econ: Economy, g_star: float, phi_g: float, payers, dips=()) -> float:
    """Bound on a candidate's payoff theta_a phi(g*) - g* + sum of transfers
    theta phi(g*) - v_bar(theta) - rent, read at each type in `payers` (a
    pooled tail's is its donor's): a rent is >= 0, or its pinned dip in `dips`.
    phi_g is phi(g*). A slack of 1e-9 times the size of the terms covers rounding.
    Less the rents of unpinned schedules built so far it is still a bound, which
    lets `_better_of` abandon an assembly that falls below its floor."""
    theta = np.asarray(payers, float)
    terms = [econ.agenda_setter_type * phi_g, -g_star, *(-d for d in dips),
             *(theta * phi_g - np.asarray(econ.reservation.value(theta, econ.outside_g), float))]
    return math.fsum(terms) + 1e-9 * (1.0 + math.fsum(map(abs, terms)))


def _candidate(econ: Economy, assemble, g_star: float, phi_g: float, payers, dips=()):
    """(`_payoff_bound`, assembly) thunks of a candidate whose `assemble` takes
    the partition, checked here at phi_g = phi(g*). Bisected levels (no closed
    form) can raise in a build, so those candidates are assembled here, in
    their old order, and never charged."""
    if econ.tech.weighted_argmax is None:
        sol = assemble(None)
        return lambda: math.inf, lambda: sol
    partition = _partition_at(econ, phi_g)
    return lambda: _payoff_bound(econ, g_star, phi_g, payers, dips), lambda: assemble(partition)


def _better_of(econ: Economy, candidates: list) -> MechanismSolution | None:
    """What the in-order rule (replace on a payoff gain above 1e-12) picks from
    (bound, assembly) thunk pairs assembled by decreasing bound, skipping any more
    than `slack` below the best payoff so far. Every payoff within `slack` of
    the top is assembled; fewer than len(candidates) steps of 1e-12 cannot span
    that window, so a gap above 1e-12 cuts it and above it the rule runs as over all.
    An assembly after the first is abandoned where its bound less the rents of the
    schedules built so far (see `_foc_schedules`) falls below that floor: a bound
    still, so it drops only what the skip could have dropped."""
    slack, built, top = 1e-12 * len(candidates), {}, -math.inf
    bounds = [bound() for bound, _ in candidates]
    for pos in sorted(range(len(candidates)), key=lambda i: -bounds[i]):
        if not bounds[pos] < top - slack:
            token = TALLY.set([bounds[pos], top - slack] if top > -math.inf else None)
            try:
                sol = candidates[pos][1]()
            except _Outbid:
                continue
            finally:
                TALLY.reset(token)
            built[pos] = agenda_setter_payoff(econ, sol), sol
            top = max(top, built[pos][0])  # a NaN payoff leaves top as it is
    best, best_pay = None, -math.inf
    for pay, sol in (built[pos] for pos in sorted(built)):
        if pay > best_pay + 1e-12:
            best, best_pay = sol, pay
    return best


def _constant_gamma_level(econ: Economy, window: tuple, bounds: tuple, weight_fn):
    """(gamma, FOC weight, level, phi at the level) of the constant shadow
    weight on `window`, or None when the window or the shadow-weight bounds
    are degenerate or the search has no bracket."""
    if window[1] <= window[0] + 1e-12 or bounds[1] <= bounds[0] + 1e-12:
        return None
    phi_level = lambda gam: float(econ.tech.phi(solve_weighted_foc(econ.tech, weight_fn(gam))))
    gap, bounds = rent_gap(econ, window), tuple(map(_shadow_weight, bounds))
    try:
        gam = gamma_root(gap, phi_level, bounds, (phi_level(bounds[1]), phi_level(bounds[0])))
    except BracketFailure:
        return None
    w_star = weight_fn(gam)
    g_star = solve_weighted_foc(econ.tech, w_star)
    return gam, w_star, g_star, float(econ.tech.phi(g_star))


def _virtual_sum(econ: Economy, members):
    """The members' `virtual_type` sum at a constant shadow weight, as a function of
    it, from each one's θ, F and f read once (`_constant_gamma_level` checks the weight)."""
    terms = [(econ.type_of(i), *econ._cdf_pdf[i - 1]) for i in members]
    return lambda gam: sum(theta - (gam - cdf) / pdf for theta, cdf, pdf in terms)


def _concave_window_candidate(econ: Economy, start: int, width: int):
    """Exclude a run of interior agents around the binding type; the window's
    neighbours keep binding participation and the coalition is the
    (possibly non-convex) set of agents outside the window: a `_candidate` or None."""
    order = econ.sorted_agents()
    end = start + width - 1
    window = order[start:end + 1]
    below, above = order[:start], order[end + 1:]
    theta_p = econ.type_of(order[start - 1])
    theta_q = econ.type_of(order[end + 1])
    hh_below = sum(econ.virtual_type(i, 0.0) for i in below)
    hl_above = sum(econ.virtual_type(i, 1.0) for i in above)
    mid = _virtual_sum(econ, window)
    weight_fn = lambda gam: econ.agenda_setter_type + hh_below + mid(gam) + hl_above
    bounds = (econ.realized_cdf(order[start - 1]), econ.realized_cdf(order[end + 1]))
    found = _constant_gamma_level(econ, (theta_p, theta_q), bounds, weight_fn)
    if found is None:
        return None
    gam, w_star, g_star, phi_g = found

    # the rent curve must dip inside the window: falling at its bottom,
    # rising at its top, and strictly below zero at each excluded type
    if phi_g - float(econ.reservation.slope(theta_p, econ.outside_g)) > CONSISTENCY_TOL:
        return None
    if phi_g - float(econ.reservation.slope(theta_q, econ.outside_g)) < -CONSISTENCY_TOL:
        return None
    dips = [rent_gap(econ, (theta_p, econ.type_of(i)))(phi_g) for i in window]
    if any(d > -1e-12 for d in dips):
        return None

    coalition = _pick_coalition(econ, [order[start - 1], order[end + 1]][:econ.quota - 1],
                                below + above)

    def assemble(partition):
        schedules = {**_foc_schedules(econ, below, w_star, 0.0),
                     **_foc_schedules(econ, above, w_star, 1.0)}
        for i, dip in zip(window, dips):
            schedules.update(_foc_schedules(econ, [i], w_star, gam, pin=(econ.type_of(i), dip)))
        gamma = GammaRepresentation.piecewise(
            ((econ.theta_lo, theta_p, 0.0), (theta_p, theta_q, gam), (theta_q, econ.theta_hi, 1.0)),
            ((theta_p, 0.0), (theta_q, 1.0)))
        return _solution(econ, g_star, Regime.MIXED_INTERIOR, schedules, coalition, gamma,
                         (theta_p, theta_q), excluded=window, partition=partition,
                         notes=(f"excluded interior window of {width} agent(s)",))

    return _candidate(econ, assemble, g_star, phi_g, [econ.type_of(i) for i in order], dips)


def _convex_tail_candidate(econ: Economy, k_lo: int, k_hi: int):
    """Exclude tail agents on one or both sides; participation binds at the
    extreme coalition members and the tails pool at their bundles: a `_candidate` or None."""
    order = econ.sorted_agents()
    r = len(order)
    if k_lo + k_hi > r - 1:
        return None
    low_tail = order[:k_lo]
    high_tail = order[r - k_hi:] if k_hi else []
    members = order[k_lo: r - k_hi]
    theta_p = econ.type_of(members[0]) if k_lo else econ.theta_lo
    theta_q = econ.type_of(members[-1]) if k_hi else econ.theta_hi
    lo_bound = econ.realized_cdf(members[0]) if k_lo else 0.0
    hi_bound = econ.realized_cdf(members[-1]) if k_hi else 1.0
    mid = _virtual_sum(econ, members)
    weight_fn = lambda gam: econ.agenda_setter_type + k_lo * theta_p + k_hi * theta_q + mid(gam)
    found = _constant_gamma_level(econ, (theta_p, theta_q), (lo_bound, hi_bound), weight_fn)
    if found is None:
        return None
    gam, w_star, g_star, phi_g = found

    # rents must rise into the window from below and fall out of it above
    if k_lo and phi_g - float(econ.reservation.slope(theta_p, econ.outside_g)) < -CONSISTENCY_TOL:
        return None
    if k_hi and phi_g - float(econ.reservation.slope(theta_q, econ.outside_g)) > CONSISTENCY_TOL:
        return None

    binding = ([members[0]] if k_lo else []) + ([members[-1]] if k_hi else [])
    coalition = _pick_coalition(econ, binding[:econ.quota - 1], members)

    def assemble(partition):
        schedules = _foc_schedules(econ, members, w_star, gam)
        _pool(econ, schedules, low_tail, members[0], theta_p, g_star)
        _pool(econ, schedules, high_tail, members[-1], theta_q, g_star)
        tails = (*low_tail, *high_tail)
        transfers = realized_transfers(econ, [schedules[i] for i in econ.agents], g_star)
        pieces = ([(econ.theta_lo, theta_p, 0.0)] if k_lo else []) + [(theta_p, theta_q, gam)]
        pieces += [(theta_q, econ.theta_hi, 1.0)] if k_hi else []
        atoms = ([(theta_p, gam)] if k_lo else []) + ([(theta_q, gam)] if k_hi else [])
        gamma = GammaRepresentation.piecewise(pieces=pieces, atoms=atoms)
        return _solution(econ, g_star, Regime.MIXED_INTERIOR, schedules, coalition, gamma,
                         (theta_p, theta_q),
                         excluded=_short_of_reservation(econ, tails, g_star, transfers),
                         bunched=tails, notes=(f"excluded tails ({k_lo} low, {k_hi} high)",),
                         transfers=transfers, partition=partition)

    payers = [econ.type_of(i) for i in members] + [theta_p] * k_lo + [theta_q] * k_hi
    return _candidate(econ, assemble, g_star, phi_g, payers)


def solve(econ: Economy) -> MechanismSolution:
    """Solve at the economy's quota and curvature; the schedules hold `econ` itself.

    Linear and decreasing profiles follow their closed branch rules. Curved
    profiles under unanimity solve directly. Under a quota a uniform-sign
    candidate with tail exclusion applies where its slope signs hold; else
    the unanimity copy and the curvature's exclusion candidates are each
    configured (every check that can raise runs there) and bounded without
    schedules, and `_better_of` assembles only those that can win, picking
    what full assembly would. Without a consistent one the status quo is posted.
    """
    token = READINGS.set({})  # its schedules' one table of grid readings, gone on return
    try:
        return _solve(econ)
    finally:
        READINGS.reset(token)


def _solve(econ: Economy) -> MechanismSolution:
    curv = econ.reservation.curvature
    k = econ.n - econ.quota
    if curv is Curvature.LINEAR:
        return _linear_solve(econ, k)
    if curv is Curvature.NEGATIVE_SLOPE:
        return _uniform_sign_candidate(econ, "low", _one_sided(econ, "low", k),
                                       eff=efficient_level(econ) if k else None)
    if not k:
        return _curved_unanimity(econ)[1]()

    thresholds, thresholds_raw, eff, sides = _outer_thresholds(econ, k)
    # uniform-sign regimes apply mechanically (force the cheapest tail in,
    # bunch it at the cutoff bundle, cap at the efficient level) where every
    # envelope slope on a 41-point type grid keeps the side's sign at the
    # side's capped level, its threshold
    slopes = np.asarray(econ.reservation.slope(np.linspace(econ.theta_lo, econ.theta_hi, 41),
                                               econ.outside_g), float)
    for side, g in (("low", thresholds.g_low), ("high", thresholds.g_high)):
        envelope = float(econ.tech.phi(g)) - slopes
        if not ((envelope.min() < -CONSISTENCY_TOL) if side == "low"
                else (envelope.max() > CONSISTENCY_TOL)):
            return _uniform_sign_candidate(econ, side, sides[side], thresholds=thresholds,
                                           thresholds_raw=thresholds_raw, eff=eff)

    # countervailing region: curvature-specific exclusion candidates compete
    # on the proposer's realized payoff (the no-exclusion configuration is
    # the degenerate member of each family)
    candidates = []
    try:
        candidates.append(_curved_unanimity(econ.with_quota(econ.n)))
    except (SolverError, InvalidEconomy):
        pass
    r = econ.n - 1
    if curv is Curvature.CONCAVE:
        candidates += [_concave_window_candidate(econ, start, width)
                       for width in range(k, 0, -1) for start in range(1, r - width)]
    else:
        candidates += [_convex_tail_candidate(econ, k_lo, k_hi) for k_lo in range(k + 1)
                       for k_hi in range(k + 1 - k_lo) if k_lo or k_hi]
    best = _better_of(econ, [c for c in candidates if c is not None])
    if best is None:
        return _posted_solution(econ, econ.outside_g, thresholds=thresholds,
                                thresholds_raw=thresholds_raw,
                                notes=("no consistent configuration; status quo implemented",))
    coalition = best.coalition
    if len(coalition) != econ.quota:
        coalition = _pick_coalition(econ, (), [i for i in econ.agents if i not in best.excluded])
    return dataclasses.replace(best, coalition=coalition, thresholds=thresholds,
                               thresholds_raw=thresholds_raw)


# ---------------------------------------------------------------------------
# Stochastic coalitions, threshold ladder
# ---------------------------------------------------------------------------


def solve_stochastic_coalition(econ: Economy, seed: int, tau_bar: float) -> MechanismSolution:
    """Random quota coalition; inside it the unanimity solution applies and
    outsiders pay the flat tax tau_bar (incentive constraints are only
    required within the coalition)."""
    if not 0 <= tau_bar < math.inf:
        raise InvalidEconomy("tau_bar must be finite and nonnegative")
    rng = random.Random(seed)
    members = sorted(rng.sample(list(econ.agents), econ.quota - 1))
    schedules = {}
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
    transfers = realized_transfers(econ, [schedules[i] for i in econ.agents], g_star)
    return _solution(econ, g_star, regime, schedules, frozenset({AGENDA_SETTER, *members}),
                     gamma, cutoff_types,
                     excluded=_short_of_reservation(econ, outsiders, g_star, transfers),
                     thresholds=thr, thresholds_raw=thr_raw, notes=(note,), transfers=transfers)


def threshold_table(econ: Economy) -> ThresholdTable:
    """Outside-option levels at which the solution's split indices step.

    Concave rungs are where the binding type reaches the next realized agent
    (indices rise with the outside option); other rungs are where a realized
    agent's envelope slope flips sign at the solution (positional indices
    fall), bisected on the outside level; a decreasing profile finds none: (0, 0, ()).
    A convex unanimity table reads levels, cap included, off `_convex_ends`
    kept per table with phi at those levels, so a probe whose shadow weight lands
    on a bound reads phi only at its outside level; the rest solve in full.
    Linear profiles have only the two outer thresholds.
    """
    curv = econ.reservation.curvature
    if curv is Curvature.LINEAR:
        sol = solve(econ)
        return ThresholdTable(sol.thresholds.g_low, sol.thresholds.g_high, ())

    order = econ.sorted_agents()
    r = len(order)
    ends = _convex_ends(econ) if curv is Curvature.CONVEX and econ.quota == econ.n else None
    # convex unanimity posts ends[0][1]; the first probe, at 0, raises where a solve would
    g_high = ends[0][1] if ends is not None else solve(econ.with_outside_g(0.0)).thresholds.g_high
    hi_cap = max(8.0, 16.0 * g_high + 8.0)

    rungs = []
    if curv is Curvature.CONCAVE:
        types, _, weights = _split_weights(econ, order)
        for s in range(r):
            phi_s = float(econ.tech.phi(solve_weighted_foc(econ.tech, weights[s])))
            target_theta = types[s]
            g_circ = _bisect_increasing(
                lambda gc: float(econ.reservation.slope(target_theta, gc)) - phi_s, 0.0, hi_cap)
            if g_circ is not None:
                rungs.append(LadderRung(g_circ, k=s, l=s + 1))
    else:
        for pos in range(r - 1, -1, -1):
            theta = econ.type_of(order[pos])

            def flip(gc):
                at = econ.with_outside_g(gc)
                if ends is not None:  # no schedules; phi at the level from the configuration
                    phi_g = _convex_configuration(at, ends)[4]
                    _partition_at(at, phi_g)  # raises wherever solve would
                else:
                    phi_g = float(econ.tech.phi(solve(at).g_star))
                return float(econ.reservation.slope(theta, gc)) - phi_g

            g_circ = _bisect_increasing(flip, 0.0, hi_cap)
            if g_circ is not None:
                rungs.append(LadderRung(g_circ, k=pos + 1, l=pos + 1))
    g_low = rungs[0].g_circ if rungs else 0.0
    g_high = rungs[-1].g_circ if rungs else 0.0
    return ThresholdTable(g_low, g_high, tuple(rungs))


def _bisect_increasing(f, lo: float, hi: float):
    """Root of an increasing function on [lo, hi], or None without a sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > 0 or f_hi < 0:
        return None
    return bisect(lambda x: f(x) < 0, lo, hi, 100)
