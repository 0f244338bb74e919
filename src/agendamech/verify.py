"""Brute-force certification of solved mechanisms.

Every check evaluates utilities directly from the emitted allocation and
transfer rules on a report grid; none of them re-derives first-order
conditions. Also houses the efficiency-benchmark demonstrators: the
budget-deficit and renegotiation-gain computation for efficient
dominant-strategy mechanisms, deterministic dominance over lotteries, and
the repeated-mechanism consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AGENDA_SETTER, Economy, InvalidEconomy, ModelError
from .solver_core import GammaRepresentation, gamma_weight_sum, invert_phi, solve_weighted_foc
from .transfers import agenda_setter_payoff

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
    if econ.tech.name != "log" or abs(probe - 1.0) > 1e-9:
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
    g_eff = solve_weighted_foc(econ.tech, total)
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


# ---------------------------------------------------------------------------
# Deterministic provision dominates lotteries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LotteryRow:
    support: tuple
    probabilities: tuple
    g_deterministic: float
    sigma_deterministic: float
    sigma_lottery: float
    gap: float
    mc_phi_error: float | None = None

    @property
    def dominated(self) -> bool:
        return self.gap >= -1e-12


@dataclass(frozen=True)
class DominanceReport:
    rows: tuple

    @property
    def all_dominated(self) -> bool:
        return all(r.dominated for r in self.rows)


def stochastic_dominance_check(econ: Economy, lotteries, samples: int = 0) -> DominanceReport:
    """For each lottery over levels, the deterministic level with the same
    expected benefit weakly raises the adjusted surplus (the gap is the
    expected level minus its certainty equivalent, nonnegative by benefit
    concavity). ``samples`` adds a Monte-Carlo cross-check of the expected
    benefit."""
    weight = gamma_weight_sum(econ, GammaRepresentation.point_mass_at_low())
    rng = np.random.default_rng(0)
    rows = []
    for support, probs in lotteries:
        support = np.asarray(list(support), float)
        probs = np.asarray(list(probs), float)
        if support.size != probs.size or support.size == 0:
            raise ModelError("lottery support and probabilities must align")
        if (support < 0).any():
            raise ModelError("lottery levels must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any():
            raise ModelError("probabilities must be nonnegative and sum to one")
        phi_vals = np.asarray(econ.tech.phi_at(support), float)
        mean_phi = float(phi_vals @ probs)
        mean_g = float(support @ probs)
        g_det = invert_phi(econ.tech, mean_phi, hi=max(float(support.max()), 1.0))
        sigma_det = weight * mean_phi - g_det
        sigma_lot = weight * mean_phi - mean_g
        mc_err = None
        if samples > 0:
            draws = rng.choice(support, size=samples, p=probs)
            mc_err = float(abs(np.asarray(econ.tech.phi_at(draws), float).mean() - mean_phi))
        rows.append(LotteryRow(tuple(support), tuple(probs), g_det,
                               sigma_det, sigma_lot, sigma_det - sigma_lot, mc_err))
    return DominanceReport(tuple(rows))


# ---------------------------------------------------------------------------
# Repetition of the static solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicReport:
    horizon: int
    discount: float
    beta: float
    static_payoff: float
    total_payoff: float
    payoff_identity_error: float
    ir_scaling_error: float
    dsic_ok: bool

    @property
    def passed(self) -> bool:
        return (self.payoff_identity_error <= 1e-9
                and self.ir_scaling_error <= 1e-9
                and self.dsic_ok)


def dynamic_check(econ: Economy, T: int = 1, delta: float = 0.0) -> DynamicReport:
    """T-fold repetition of the static solution: total payoff scales by
    beta = (1 - delta**T) / (1 - delta), per-period incentives and
    participation are unchanged, and dynamic slacks are beta times static
    ones."""
    if T < 1:
        raise ModelError("horizon must be at least 1")
    if not 0.0 <= delta < 1.0:
        raise ModelError("discount must lie in [0, 1)")
    from .regimes import solve

    sol = solve(econ)
    beta = (1.0 - delta**T) / (1.0 - delta)
    weights = [delta**t for t in range(T)]

    static_payoff = agenda_setter_payoff(econ, sol)
    total_payoff = sum(w * static_payoff for w in weights)
    payoff_err = abs(total_payoff - beta * static_payoff)

    _, slacks = check_participation(econ, sol.g_star, sol.transfers, sol.coalition)
    ir_err = 0.0
    for _, s in slacks:
        dyn = sum(w * s for w in weights)
        ir_err = max(ir_err, abs(dyn - beta * s))

    dsic_ok, worst, mono_ok, _ = check_dsic(econ, sol)
    # per-period repetition scales every deviation gain by beta > 0
    dyn_dsic_ok = dsic_ok and mono_ok
    return DynamicReport(
        horizon=T,
        discount=delta,
        beta=beta,
        static_payoff=static_payoff,
        total_payoff=total_payoff,
        payoff_identity_error=payoff_err,
        ir_scaling_error=ir_err,
        dsic_ok=dyn_dsic_ok,
    )
