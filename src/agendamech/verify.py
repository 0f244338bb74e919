"""Brute-force certification of solved mechanisms.

Every check evaluates utilities directly from the emitted allocation and
transfer rules on a report grid; none of them re-derives first-order
conditions. Also houses the efficiency-benchmark demonstrator: the
budget-deficit and renegotiation-gain computation for efficient
dominant-strategy mechanisms.

The paper's two remaining claims are tested from solutions, not here:
deterministic dominance over lotteries by the lottery LP in
``tests/oracles.py``, and repetition by ``verify_solution`` on the static
solution, whose payoff a T-period repetition scales by
beta = (1 - delta**T) / (1 - delta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AGENDA_SETTER, Economy, InvalidEconomy, ModelError

ORACLE_GRID = 41
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class DeviationRecord:
    agent: int
    true_type: float
    misreport: float
    gain: float


@dataclass(frozen=True)
class MonotonicityRecord:
    agent: int
    report_low: float
    report_high: float
    g_low: float
    g_high: float


@dataclass(frozen=True)
class OracleReport:
    dsic_ok: bool
    worst_deviation: DeviationRecord | None
    monotone_ok: bool
    first_monotonicity_violation: MonotonicityRecord | None
    participation_ok: bool
    participation_slack: tuple  # (agent, slack) pairs, agenda setter included
    budget_slack: float
    budget_ok: bool
    tolerance: float
    grid_size: int
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.dsic_ok and self.monotone_ok and self.participation_ok and self.budget_ok

    def summary(self) -> str:
        parts = [
            f"dsic={'ok' if self.dsic_ok else 'FAIL'}",
            f"monotone={'ok' if self.monotone_ok else 'FAIL'}",
            f"participation={'ok' if self.participation_ok else 'FAIL'}",
            f"budget={'ok' if self.budget_ok else 'FAIL'} (slack {self.budget_slack:.3g})",
        ]
        if self.worst_deviation is not None:
            d = self.worst_deviation
            parts.append(
                f"worst deviation: agent {d.agent} type {d.true_type:.6g} -> "
                f"report {d.misreport:.6g} gain {d.gain:.3g}")
        return "; ".join(parts)


def _schedules_of(mechanism):
    return getattr(mechanism, "schedules", mechanism)


def check_dsic(econ: Economy, mechanism, grid_size: int = ORACLE_GRID,
               tol: float = ORACLE_TOL, agents=None):
    """Own-report deviation scan plus allocation monotonicity per agent.

    For every agent, every grid true type and every grid misreport, truthful
    utility must weakly beat the deviation within tol. Returns
    (dsic_ok, worst_deviation, monotone_ok, first_monotonicity_violation).
    """
    if grid_size < 5:
        raise ValueError("grid_size must be at least 5")
    grid = np.linspace(econ.theta_lo, econ.theta_hi, grid_size)
    include = set(econ.agents if agents is None else agents)

    worst = None
    monotone_violation = None
    for sched in _schedules_of(mechanism):
        if sched.agent not in include:
            continue
        g_vec = np.asarray(sched.allocation(grid), float)
        t_vec = np.asarray(sched.transfer(grid), float)

        steps = np.diff(g_vec)
        bad = np.flatnonzero(steps < -tol)
        if bad.size and monotone_violation is None:
            b = int(bad[0])
            monotone_violation = MonotonicityRecord(
                sched.agent, float(grid[b]), float(grid[b + 1]),
                float(g_vec[b]), float(g_vec[b + 1]))

        phi_vec = np.asarray(econ.tech.phi_at(g_vec), float)
        utility = grid[:, None] * phi_vec[None, :] - t_vec[None, :]
        truthful = np.diag(utility)
        gains = utility - truthful[:, None]
        idx = np.unravel_index(int(np.argmax(gains)), gains.shape)
        gain = float(gains[idx])
        if worst is None or gain > worst.gain:
            worst = DeviationRecord(sched.agent, float(grid[idx[0]]),
                                    float(grid[idx[1]]), gain)
    dsic_ok = worst is None or worst.gain <= tol
    return dsic_ok, worst, monotone_violation is None, monotone_violation


def check_participation(econ: Economy, g_star: float, transfers, coalition,
                        tol: float = ORACLE_TOL):
    """Per-agent participation slack from the realized bundle.

    Coalition members other than the agenda setter must clear their
    reservation utility within tol; excluded agents' shortfalls are reported
    but do not fail the check. Returns (ok, ((agent, slack), ...)).
    """
    phi_g = float(econ.tech.phi(g_star))
    slacks = []
    ok = True
    for i in range(econ.n):
        theta = econ.type_of(i)
        reserve = float(econ.reservation.value(theta, econ.outside_g))
        slack = theta * phi_g - transfers[i] - reserve
        slacks.append((i, slack))
        if i != AGENDA_SETTER and i in coalition and slack < -tol:
            ok = False
    return ok, tuple(slacks)


def verify_solution(econ: Economy, solution, grid_size: int = ORACLE_GRID,
                    tol: float = ORACLE_TOL, agents=None) -> OracleReport:
    """Full oracle: deviation scan, monotonicity, participation and budget."""
    dsic_ok, worst, monotone_ok, mono_viol = check_dsic(
        econ, solution, grid_size, tol, agents=agents)
    part_ok, slacks = check_participation(
        econ, solution.g_star, solution.transfers, solution.coalition, tol)
    budget_slack = float(sum(solution.transfers)) - solution.g_star
    notes = ()
    regime_name = getattr(getattr(solution, "regime", None), "value", "")
    if regime_name == "outside_option":
        budget_ok = True  # status quo carries its own exogenous financing
        notes = ("status-quo outcome: budget financed outside the mechanism",)
    else:
        budget_ok = budget_slack >= -tol
    return OracleReport(
        dsic_ok=dsic_ok,
        worst_deviation=worst,
        monotone_ok=monotone_ok,
        first_monotonicity_violation=mono_viol,
        participation_ok=part_ok,
        participation_slack=slacks,
        budget_slack=budget_slack,
        budget_ok=budget_ok,
        tolerance=tol,
        grid_size=grid_size,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Efficient dominant-strategy mechanisms: deficit and renegotiation gain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VcgReport:
    g_efficient: float
    transfers: tuple
    deficit: float
    epsilon: float
    perturbation_gain: float
    level_reduction: float
    lowest_agent_type: float


def _require_log_tech(econ: Economy):
    probe = float(econ.tech.phi(math.e - 1.0))
    if econ.tech.name != "log" or abs(probe - 1.0) > 1e-9 or econ.tech.weighted_argmax is None:
        raise InvalidEconomy("log benefit technology required for the efficiency demo")


def vcg_demo(econ: Economy, epsilon: float) -> VcgReport:
    """Efficient level, pivot-style transfers, their budget deficit, and the
    proposer's gain from a small compensated reduction of the level.

    Transfers use the pure aligned form t_i = g* - sum_{j != i} theta_j
    phi(g*): each agent internalizes total surplus, so truth-telling is
    dominant and the deficit equals (n - 1) times the surplus at g*. The
    perturbation trims the level so the lowest-type agent is exactly
    compensated by a transfer cut of epsilon; every other agent is strictly
    cheaper to compensate, leaving the proposer a positive residual.
    """
    _require_log_tech(econ)
    if not 0.0 <= epsilon <= 0.1:
        raise ModelError("epsilon must lie in [0, 0.1]")
    thetas = np.array([econ.agenda_setter_type, *econ.agent_types], float)
    total = float(thetas.sum())
    g_eff = float(econ.tech.weighted_argmax(total))
    phi_g = float(econ.tech.phi(g_eff))
    transfers = tuple(g_eff - (total - th) * phi_g for th in thetas)
    deficit = g_eff - float(sum(transfers))

    theta_j = float(thetas.min())
    if epsilon > 0.0 and theta_j <= 0.0:
        raise ModelError("perturbation needs a strictly positive lowest type")
    if epsilon == 0.0:
        gain = 0.0
        delta = 0.0
    else:
        delta = total * (math.exp(epsilon / theta_j) - 1.0)
        gain = delta - (total / theta_j) * epsilon
    return VcgReport(
        g_efficient=g_eff,
        transfers=transfers,
        deficit=deficit,
        epsilon=epsilon,
        perturbation_gain=gain,
        level_reduction=delta,
        lowest_agent_type=theta_j,
    )
