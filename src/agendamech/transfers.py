"""Envelope-based transfers, per-agent report schedules and rent curves.

A solved mechanism is exposed as one schedule per non-agenda agent: the
public-good level and transfer the agent would face for every own report,
holding the other realized reports fixed. Transfers integrate the envelope
condition along the schedule, anchored where participation binds, so
truthfulness follows from schedule monotonicity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextvars import ContextVar

import numpy as np

from .model import Economy, _virtual
from .solver_core import bisect, solve_weighted_foc

RENT_NODES = 1025
READINGS = ContextVar("grid_readings")  # the open solve's table; each thread sees its own


class FlatSchedule:
    """Report-independent bundle: the agent's report never moves anything."""

    kind = "flat"

    def __init__(self, econ: Economy, agent: int, g_value: float, t_value: float):
        self.agent = agent
        self.g_value = float(g_value)
        self.t_value = float(t_value)
        self.anchor = econ.type_of(agent)

    def allocation(self, x):
        return self._flat(x, self.g_value)

    def transfer(self, x):
        return self._flat(x, self.t_value)

    @staticmethod
    def _flat(x, value):
        """``value`` at each report in x; a float for a scalar x."""
        out = np.full_like(np.asarray(x, float), value)
        return float(out) if out.ndim == 0 else out


def hermite_panel_root(u0: float, u1: float, s0: float, s1: float, h: float) -> float:
    """Where the cubic Hermite panel of width h with end values u0, u1 and end
    slopes s0 < 0 < s1 has zero slope, as a fraction t of the panel.

    With d = (u1 - u0)/h the slope is a t^2 + b t + c, where
    a = 3(s0 + s1 - 2d), b = 6d - 4s0 - 2s1 and c = s0. It is s0 < 0 at t = 0
    and s1 > 0 at t = 1, so exactly one root lies between: the larger one
    when a > 0, the smaller when a < 0, in both cases (-b + r)/(2a) with
    r = sqrt(b^2 - 4ac). For b >= 0 it is taken as -2c/(b + r), which does
    not cancel and is -c/b when a vanishes; b < 0 forces a > -b - c > 0.
    A denominator that rounding leaves at zero puts the root at t = 1.
    """
    s0, s1 = float(s0), float(s1)
    d = (float(u1) - float(u0)) / float(h)
    a = 3.0 * (s0 + s1 - 2.0 * d)
    b = 6.0 * d - 4.0 * s0 - 2.0 * s1
    r = math.sqrt(max(b * b - 4.0 * a * s0, 0.0))
    num, den = (r - b, 2.0 * a) if b < 0.0 else (-2.0 * s0, b + r)
    return min(num / den, 1.0) if den > 0.0 else 1.0


def _reading(key, read):
    """``read()``, kept under ``key`` in the open table (a throwaway one without)."""
    table = READINGS.get({})
    return table[key] if key in table else table.setdefault(key, read())


def _capped_slopes(h, u, s):
    """Node slopes for the Hermite panels, limited so no panel overshoots its
    end values (the Fritsch-Carlson box). On a panel whose end slopes both
    share the secant d's sign (zero counts as either) each end slope is held
    to 3|d|; a node takes the tighter cap of its two panels. A panel whose end
    slopes have opposite signs holds a minimum and caps nothing. Where no cap
    binds the slopes come back unchanged."""
    cap = 3.0 * np.abs(np.diff(u) / h)
    mag = np.abs(s)
    over = np.flatnonzero((mag[:-1] > cap) | (mag[1:] > cap))
    if over.size == 0:
        return s
    capped = s.copy()
    for k in over.tolist():
        s0, s1, d = s[k], s[k + 1], u[k + 1] - u[k]
        if s0 * d >= 0.0 and s1 * d >= 0.0 and s0 * s1 >= 0.0:
            c = cap[k]
            capped[k:k + 2] = np.clip(capped[k:k + 2], -c, c)
    return capped


class FocSchedule:
    """First-order-condition schedule for one agent's own reports.

    The level solves (base_weight + w(x)) * phi'(g) = 1 where w is the
    agent's virtual type under the constant shadow weight gamma (1 on the
    understating side, 0 on the overstating side), optionally clipped to
    [clip_lo, clip_hi].
    Rents accumulate the envelope slope along the schedule and are
    interpolated by cubic Hermite panels between quadrature nodes. By
    default the curve is shifted so its minimum is exactly zero: the anchor,
    where participation binds, is the minimiser of that interpolated curve.
    Or the curve can be pinned to a target value at a given type.
    """

    kind = "foc"

    def __init__(self, econ: Economy, agent: int, base_weight: float, gamma: float,
                 clip_lo: float | None = None, clip_hi: float | None = None,
                 pin: tuple | None = None):
        self._econ = econ
        self._dist = econ.dist_of(agent)
        self.agent = agent
        self.base_weight = float(base_weight)
        self.gamma = gamma
        self.clip_lo, self.clip_hi = clip_lo, clip_hi
        self._batched = econ.tech.weighted_argmax is not None  # extra points are cheap
        self._build(RENT_NODES if self._batched else 257, pin)

    # -- allocation ---------------------------------------------------------

    def allocation(self, x):
        """Level at each report. A scalar report reads F and f as floats; the
        level is then solved on a one-element array, as for an array of
        reports, so both give the same float."""
        scalar = np.ndim(x) == 0
        x = float(x) if scalar else np.atleast_1d(np.asarray(x, float))
        g = self._level(np.atleast_1d(self._weight(x)))
        return float(g[0]) if scalar else g

    def _level(self, w):
        """Level at each FOC weight of the array w, clipped."""
        tech = self._econ.tech
        if tech.weighted_argmax is not None:
            g = np.maximum(np.asarray(tech.weighted_argmax(w), float), 0.0)
        else:
            g = np.array([solve_weighted_foc(tech, wi) for wi in w])
        if self.clip_lo is not None:
            g = np.maximum(g, self.clip_lo)
        if self.clip_hi is not None:
            g = np.minimum(g, self.clip_hi)
        return g

    def _weight(self, x):
        """FOC weight base_weight + w(x) at each report, from F and f."""
        dist = self._dist
        return self.base_weight + _virtual(x, dist.F(x), dist.f(x), self.gamma)

    # -- rent curve ---------------------------------------------------------

    def _allocation_kinks(self, lo: float, hi: float, g_lo: float, g_hi: float) -> list:
        """Reports where the schedule crosses a clip level or leaves the
        zero corner; they become quadrature nodes so every panel is smooth.
        ``g_lo`` and ``g_hi`` are the levels at ``lo`` and ``hi``."""
        # (level, True) marks a floor the schedule leaves from; (level, False)
        # a ceiling it enters; a None level is an absent clip. The schedule is
        # nondecreasing in the report.
        kinks = []
        for level, is_floor in ((0.0, True), (self.clip_lo, True), (self.clip_hi, False)):
            if level is None or not g_lo - 1e-14 <= level <= g_hi + 1e-14 or g_hi - g_lo <= 1e-14:
                continue

            edge = level + 1e-14 if is_floor else level - 1e-14

            def below(m):
                g_m = self.allocation(m)
                return g_m <= edge if is_floor else g_m < edge

            kinks.append(bisect(below, lo, hi, 80, vectorized=self._batched,
                                guess=lambda a, b: self._kink_guess(edge, a, b)))
        return kinks

    def _kink_guess(self, level: float, lo: float, hi: float) -> float:
        """Report in [lo, hi] where the FOC weight reaches 1/phi'(level), from
        the grid's node weights on the whole support, else the secant of the
        bracket's end weights. It only guesses a kink for ``bisect``, so a
        weight that is not increasing costs calls, not accuracy."""
        with np.errstate(all="ignore"):
            target = 1.0 / np.float64(self._econ.tech.marginal(level))
            if (lo, hi) == (self._econ.theta_lo, self._econ.theta_hi):
                xs, _, virtual = self._grid(self._nodes)
                return float(np.interp(target - self.base_weight, virtual[:xs.size], xs))
            w_lo, w_hi = self._weight(np.array([lo, hi]))
            return float(lo + (hi - lo) * (target - w_lo) / (w_hi - w_lo))

    def _grid(self, nodes: int):
        """(nodes, nodes and midpoints, this schedule's virtual values there) of the even grid."""
        econ, dist, gamma = self._econ, self._dist, self.gamma
        xs = _reading(("xs", nodes), lambda: np.linspace(econ.theta_lo, econ.theta_hi, nodes))
        pts = _reading(("pts", nodes), lambda: np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])]))
        cdf, pdf = _reading(("F f", nodes, id(dist)), lambda: (dist.F(pts), dist.f(pts)))
        return xs, pts, _reading(("virtual", nodes, id(dist), gamma),
                                 lambda: _virtual(pts, cdf, pdf, gamma))

    def _build(self, nodes: int, pin):
        econ, self._nodes = self._econ, nodes
        xs, pts, virtual = self._grid(nodes)
        g = self._level(self.base_weight + virtual)
        # linspace puts lo and hi exactly at the ends, so these are their levels
        lo, hi = econ.theta_lo, econ.theta_hi
        kinks = self._allocation_kinks(lo, hi, float(g[0]), float(g[nodes - 1]))
        if kinks:  # the merged grid is this schedule's own: read once, not kept
            xs = np.unique(np.concatenate([xs, np.asarray(kinks, float)]))
            pts = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])])
            g, res = self.allocation(pts), econ.reservation.slope(pts, econ.outside_g)
        else:
            res = _reading(("slope", nodes, econ.outside_g),
                           lambda: econ.reservation.slope(pts, econ.outside_g))
        slopes = np.asarray(econ.tech.phi_at(g), float) - np.asarray(res, float)
        s_nodes, s_mids = slopes[:xs.size], slopes[xs.size:]
        h = np.diff(xs)
        increments = h / 6.0 * (s_nodes[:-1] + 4.0 * s_mids + s_nodes[1:])
        u = np.concatenate([[0.0], np.cumsum(increments)])
        self._xs, self._u, self._s = xs, u, _capped_slopes(h, u, s_nodes)

        if pin is not None:
            theta_pin, target = pin
            offset = self.rent(theta_pin) - target
            self.anchor = float(theta_pin)
        else:
            self.anchor, offset = self._locate_minimum()
        self._u = self._u - offset

    def rent(self, x):
        """Rent at each report, from the cubic Hermite panel that holds it. A
        scalar report reads its one panel in floats with the array path's
        operations; t**3 comes from numpy's power, which Python's ``**`` can
        miss by one ulp."""
        if np.ndim(x) == 0:
            nodes, x = self._xs, float(x)
            k = min(max(bisect_right(nodes, x) - 1, 0), len(nodes) - 2)
            x0, x1 = float(nodes[k]), float(nodes[k + 1])
            u0, u1 = float(self._u[k]), float(self._u[k + 1])
            s0, s1 = float(self._s[k]), float(self._s[k + 1])
            h = x1 - x0
            t = (x - x0) / h
            t2, t3 = t * t, float(np.power(t, 3.0))
            return ((2 * t3 - 3 * t2 + 1) * u0 + (t3 - 2 * t2 + t) * h * s0
                    + (-2 * t3 + 3 * t2) * u1 + (t3 - t2) * h * s1)
        xs = np.atleast_1d(np.asarray(x, float))
        idx = np.clip(np.searchsorted(self._xs, xs, side="right") - 1, 0, len(self._xs) - 2)
        h = self._xs[idx + 1] - self._xs[idx]
        t = (xs - self._xs[idx]) / h
        h00 = 2 * t**3 - 3 * t**2 + 1
        h10 = t**3 - 2 * t**2 + t
        h01 = -2 * t**3 + 3 * t**2
        h11 = t**3 - t**2
        return (h00 * self._u[idx] + h10 * h * self._s[idx]
                + h01 * self._u[idx + 1] + h11 * h * self._s[idx + 1])

    def _locate_minimum(self):
        """Anchor and value of the lowest point of the interpolated rent curve.

        The candidates are the lowest node and, on each panel where the node
        slope turns from negative to positive, the zero of the Hermite
        cubic's derivative there (``hermite_panel_root``), so the anchor is
        the exact minimiser of the curve that ``rent`` evaluates.
        """
        xs, u, s = self._xs, self._u, self._s
        best_idx = int(np.argmin(u))
        candidates = [(float(u[best_idx]), float(xs[best_idx]))]
        crossings = np.flatnonzero((s[:-1] < 0.0) & (s[1:] > 0.0))
        for k in crossings.tolist():
            h = xs[k + 1] - xs[k]
            t = hermite_panel_root(u[k], u[k + 1], s[k], s[k + 1], h)
            x_star = float(xs[k] + t * h)
            candidates.append((float(self.rent(x_star)), x_star))
        val, arg = min(candidates)
        return arg, val

    # -- public surface -----------------------------------------------------

    def transfer(self, x):
        econ = self._econ
        x = float(x) if np.ndim(x) == 0 else np.atleast_1d(np.asarray(x, float))
        phi_g = econ.tech.phi_at(self.allocation(x))
        return x * phi_g - econ.reservation.value(x, econ.outside_g) - self.rent(x)


def realized_transfers(econ: Economy, schedules, g_star: float) -> tuple:
    """Per-agent transfers at the realized profile; the agenda setter's own
    contribution makes the resource constraint bind exactly."""
    others = [float(s.transfer(econ.type_of(s.agent))) for s in schedules]
    t_a = g_star - sum(others)
    return (t_a, *others)


def agenda_setter_payoff(econ: Economy, solution) -> float:
    """Proposer's realized payoff theta_a * phi(g_star) - t_a with the
    resource constraint binding."""
    t_a = solution.transfers[0]
    return econ.agenda_setter_type * float(econ.tech.phi(solution.g_star)) - t_a
