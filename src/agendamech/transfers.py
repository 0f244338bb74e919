"""Envelope-based transfers, per-agent report schedules and rent curves.

A solved mechanism is exposed as one schedule per non-agenda agent: the
public-good level and transfer the agent would face for every own report,
holding the other realized reports fixed. Transfers integrate the envelope
condition along the schedule, anchored where participation binds, so
truthfulness follows from schedule monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Economy, virtual_value_gamma
from .solver_core import bisect, solve_weighted_foc

RENT_NODES = 1025
RENT_GRID = 201


class FlatSchedule:
    """Report-independent bundle: the agent's report never moves anything."""

    kind = "flat"

    def __init__(self, econ: Economy, agent: int, g_value: float, t_value: float):
        self._econ = econ
        self.agent = agent
        self.g_value = float(g_value)
        self.t_value = float(t_value)
        self.anchor = econ.type_of(agent)

    def allocation(self, x):
        x = np.asarray(x, float)
        out = np.full_like(x, self.g_value)
        return float(out) if out.ndim == 0 else out

    def transfer(self, x):
        x = np.asarray(x, float)
        out = np.full_like(x, self.t_value)
        return float(out) if out.ndim == 0 else out

    def rent(self, x):
        econ = self._econ
        phi_g = float(econ.tech.phi(self.g_value))
        x = np.asarray(x, float)
        out = x * phi_g - self.t_value - np.asarray(
            econ.reservation.value(x, econ.outside_g), float)
        return float(out) if out.ndim == 0 else out


class FocSchedule:
    """First-order-condition schedule for one agent's own reports.

    The level solves (base_weight + w(x)) * phi'(g) = 1 where w is the
    agent's virtual type under the constant shadow weight gamma (1 on the
    understating side, 0 on the overstating side), optionally clipped to
    [clip_lo, clip_hi].
    Rents accumulate the envelope slope along the schedule; by default the
    curve is shifted so its minimum is exactly zero (participation binds
    where the slope crosses zero), or it can be pinned to a target value at
    a given type.
    """

    kind = "foc"

    def __init__(self, econ: Economy, agent: int, base_weight: float, gamma: float,
                 clip_lo: float | None = None, clip_hi: float | None = None,
                 pin: tuple | None = None, nodes: int = RENT_NODES):
        self._econ = econ
        self._dist = econ.dist_of(agent)
        self.agent = agent
        self.base_weight = float(base_weight)
        self.gamma = gamma
        self.clip_lo = clip_lo
        self.clip_hi = clip_hi
        if econ.tech.weighted_argmax is None:
            nodes = min(nodes, 257)
        self._build(nodes, pin)

    # -- allocation ---------------------------------------------------------

    def allocation(self, x):
        econ = self._econ
        scalar = np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, float))
        w = self.base_weight + np.asarray(virtual_value_gamma(self._dist, xs, self.gamma), float)
        if econ.tech.weighted_argmax is not None:
            g = np.maximum(np.asarray(econ.tech.weighted_argmax(w), float), 0.0)
        else:
            g = np.array([solve_weighted_foc(econ.tech, wi) for wi in w])
        if self.clip_lo is not None:
            g = np.maximum(g, self.clip_lo)
        if self.clip_hi is not None:
            g = np.minimum(g, self.clip_hi)
        return float(g[0]) if scalar else g

    def _slope(self, x):
        econ = self._econ
        phi_g = np.asarray(econ.tech.phi_at(self.allocation(x)), float)
        return phi_g - np.asarray(econ.reservation.slope(x, econ.outside_g), float)

    # -- rent curve ---------------------------------------------------------

    def _allocation_kinks(self, lo: float, hi: float) -> list:
        """Reports where the schedule crosses a clip level or leaves the
        zero corner; they become quadrature nodes so every panel is smooth."""
        g_lo = float(self.allocation(lo))
        g_hi = float(self.allocation(hi))
        # (level, True) marks a floor the schedule leaves from; (level, False)
        # a ceiling it enters. The schedule is nondecreasing in the report.
        levels = [(0.0, True)]
        if self.clip_lo is not None:
            levels.append((self.clip_lo, True))
        if self.clip_hi is not None:
            levels.append((self.clip_hi, False))
        kinks = []
        for level, is_floor in levels:
            if not g_lo - 1e-14 <= level <= g_hi + 1e-14 or g_hi - g_lo <= 1e-14:
                continue

            def below(m):
                g_m = float(self.allocation(m))
                return g_m <= level + 1e-14 if is_floor else g_m < level - 1e-14

            kinks.append(bisect(below, lo, hi, 80))
        return kinks

    def _build(self, nodes: int, pin):
        econ = self._econ
        lo, hi = econ.theta_lo, econ.theta_hi
        xs = np.linspace(lo, hi, nodes)
        kinks = self._allocation_kinks(lo, hi)
        if kinks:
            xs = np.unique(np.concatenate([xs, np.asarray(kinks, float)]))
        mids = 0.5 * (xs[:-1] + xs[1:])
        s_nodes = self._slope(xs)
        s_mids = self._slope(mids)
        h = np.diff(xs)
        increments = h / 6.0 * (s_nodes[:-1] + 4.0 * s_mids + s_nodes[1:])
        u = np.concatenate([[0.0], np.cumsum(increments)])
        self._xs, self._u, self._s = xs, u, s_nodes

        if pin is not None:
            theta_pin, target = pin
            offset = self._raw_rent(theta_pin) - target
            self.anchor = float(theta_pin)
        else:
            anchor, offset = self._locate_minimum()
            self.anchor = anchor
        self._u = self._u - offset

    def _raw_rent(self, x):
        scalar = np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, float))
        idx = np.clip(np.searchsorted(self._xs, xs, side="right") - 1, 0, len(self._xs) - 2)
        h = self._xs[idx + 1] - self._xs[idx]
        t = (xs - self._xs[idx]) / h
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        out = (h00 * self._u[idx] + h10 * h * self._s[idx]
               + h01 * self._u[idx + 1] + h11 * h * self._s[idx + 1])
        return float(out[0]) if scalar else out

    def _locate_minimum(self):
        xs, u, s = self._xs, self._u, self._s
        best_idx = int(np.argmin(u))
        candidates = [(float(u[best_idx]), float(xs[best_idx]))]
        crossings = np.flatnonzero((s[:-1] < 0.0) & (s[1:] > 0.0))
        for k in crossings:
            x_star = bisect(lambda m: float(self._slope(m)) < 0.0, xs[k], xs[k + 1], 60)
            candidates.append((float(self._raw_rent(x_star)), float(x_star)))
        val, arg = min(candidates)
        return arg, val

    # -- public surface -----------------------------------------------------

    def rent(self, x):
        return self._raw_rent(x)

    def transfer(self, x):
        econ = self._econ
        scalar = np.ndim(x) == 0
        xs = np.atleast_1d(np.asarray(x, float))
        phi_g = np.asarray(econ.tech.phi_at(self.allocation(xs)), float)
        out = (xs * phi_g
               - np.asarray(econ.reservation.value(xs, econ.outside_g), float)
               - self._raw_rent(xs))
        return float(out[0]) if scalar else out


def realized_transfers(econ: Economy, schedules, g_star: float) -> tuple:
    """Per-agent transfers at the realized profile; the agenda setter's own
    contribution makes the resource constraint bind exactly."""
    others = [float(s.transfer(econ.type_of(s.agent))) for s in schedules]
    t_a = g_star - sum(others)
    return (t_a, *others)


# ---------------------------------------------------------------------------
# Named transfer formulas
# ---------------------------------------------------------------------------


def transfer_understate(econ: Economy, schedule, theta_i: float) -> float:
    """Envelope transfer of an agent at type theta_i.

    Rents integrate from the binding anchor, at the bottom of the support
    for an agent on the understating side and at the top on the overstating
    side, so the payment is the gross value minus the rent accumulated from
    the anchor, normalized so the anchor type earns exactly its reservation
    utility.
    """
    econ.dist_of(schedule.agent).check_support(theta_i)
    return float(schedule.transfer(theta_i))


transfer_overstate = transfer_understate


# ---------------------------------------------------------------------------
# Solution-level rent curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RentProfile:
    """Information rents over the type space at the solved level."""

    grid: tuple
    rent: tuple
    anchors: tuple

    def as_arrays(self):
        return np.asarray(self.grid), np.asarray(self.rent)


def rent_profile(econ: Economy, solution, grid_size: int = RENT_GRID) -> RentProfile:
    """Type-space rent curve at the solved level by cumulative trapezoid.

    Integrates the envelope slope phi(g_star) - dv_bar/dtheta over the type
    space and normalizes so the solution's first binding type has zero rent.
    """
    if grid_size < 3:
        raise ValueError("grid_size must be at least 3")
    lo, hi = econ.theta_lo, econ.theta_hi
    grid = np.linspace(lo, hi, grid_size)
    phi_g = float(econ.tech.phi(solution.g_star))
    slope = phi_g - np.asarray(econ.reservation.slope(grid, econ.outside_g), float)
    u = np.concatenate([[0.0], np.cumsum(0.5 * (slope[:-1] + slope[1:]) * np.diff(grid))])

    anchors = solution.cutoff_types if solution.cutoff_types else (lo,)
    first = anchors[0]
    u = u - float(np.interp(first, grid, u))
    return RentProfile(tuple(grid), tuple(u), tuple(anchors))


def agenda_setter_payoff(econ: Economy, solution) -> float:
    """Proposer's realized payoff theta_a * phi(g_star) - t_a with the
    resource constraint binding."""
    t_a = solution.transfers[0]
    return econ.agenda_setter_type * float(econ.tech.phi(solution.g_star)) - t_a
