"""Screening engine: shadow-weight representations, type partitioning,
adjusted-surplus maximization and the first-order-condition machinery shared
by every regime solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .model import Curvature, Economy, Technology

FOC_TOL = 1e-10
FOC_MAX_ITER = 200
SLOPE_TOL = 1e-7  # membership tolerance for the zero-slope set


class SolverError(RuntimeError):
    """Numerical failure inside the screening engine."""


class UnboundedObjective(SolverError):
    """phi' never falls below 1/W on the search bracket."""


class BracketFailure(SolverError):
    """Root bracketing failed where theory guarantees a sign change."""


class ContiguityViolation(SolverError):
    """Envelope-slope signs contradict the declared curvature ordering."""


class FixedPointDivergence(SolverError):
    """No consistent cutoff/partition configuration was found."""


# ---------------------------------------------------------------------------
# Bisection
# ---------------------------------------------------------------------------

BISECT_LEVELS = 6  # steps per predicate call in vectorized mode
GUESS_ROUNDS = 2  # guessed paths a vectorized bisection checks before its batches


def bisect(below: Callable, lo: float, hi: float, max_iter: int,
           tol: float | None = None, *, vectorized: bool = False,
           guess: Callable | None = None) -> float:
    """Midpoint of a bisected bracket: ``lo`` moves to the midpoint where
    ``below(mid)`` holds, ``hi`` otherwise.

    Stops after ``max_iter`` steps, once ``hi - lo <= tol`` after a step, or
    when the midpoint rounds onto an endpoint. From there on a step either
    leaves the bracket as it is or collapses it onto that endpoint, so every
    further step returns the same float and is skipped.

    Both modes step through one loop. The scalar mode reads ``below(mid)``
    at each step; the vectorized mode reads it in rounds, one array call
    each, stepping only on a midpoint whose flag the round read at that
    float, and reads the next round when the next midpoint is not one. Both
    return the same float, monotone or not, if ``below`` flags each array
    element as it flags that float alone. A power technology's level does
    not: numpy's scalar power is an ulp off its array ufunc for some weights
    (164 of 20001 near the benchmark corpus draw 222's concave blend), where
    a guessed-path bisection moved gamma from 0.5981989664667204 to
    0.5981989664667198.

    A round reads every midpoint of the next ``BISECT_LEVELS`` steps, or,
    while ``guess`` (vectorized mode only) maps the bracket to a report x,
    the guessed path less its last ``BISECT_LEVELS`` steps: the midpoints of
    this function run in scalar mode with ``mid < x`` for ``below``. The
    walk leaves a path at its first flag that differs from the guessed one.
    At most ``GUESS_ROUNDS`` paths are read, and none once a path is empty
    or walked to its end. The guess changes the number of calls, never the
    result.
    """
    flags, guesses, path = {}, GUESS_ROUNDS if guess is not None else 0, []
    for steps in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if not vectorized:
            flag = below(mid)
        elif (flag := flags.get(mid)) is None:  # the walk has left the last round's midpoints
            if path and (lo if path[-1] < x else hi) == path[-1]:
                guesses = 0  # the walk took that path to its end, each step as x guessed
            x, path = guess(lo, hi) if guesses else None, []
            if guesses:
                bisect(lambda m: path.append(m) or m < x, lo, hi, max_iter - steps, tol)
            del path[-BISECT_LEVELS:]  # near the root the predicate's rounding decides, not x
            if path:
                guesses -= 1
                flags = dict(zip(path, np.asarray(below(np.array(path))).tolist()))
            else:
                guesses, depth = 0, min(BISECT_LEVELS, max_iter - steps)
                ends = np.empty(2**depth + 1)  # every bracket end of the next steps, in order
                ends[0], ends[-1] = lo, hi
                for half in (2**d for d in reversed(range(depth))):
                    ends[half::2 * half] = 0.5 * (ends[:-1:2 * half] + ends[2 * half::2 * half])
                mids = ends[1:-1]
                flags = dict(zip(mids.tolist(), np.asarray(below(mids)).tolist()))
            flag = flags[mid]
        if flag:
            lo = mid
        else:
            hi = mid
        if tol is not None and hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Shadow-weight (gamma) representations
# ---------------------------------------------------------------------------


class GammaKind(Enum):
    POINT_MASS_AT_LOW = "point_mass_at_low"
    POINT_MASS_AT_HIGH = "point_mass_at_high"
    INTERIOR_MASS = "interior_mass"
    CONSTANT = "constant"
    PIECEWISE = "piecewise"


@dataclass(frozen=True)
class GammaRepresentation:
    """Cumulative shadow-weight function over the type space: a step function.

    Values lie in [0, 1], are nondecreasing in type, and reach 1 at the top
    of the support. ``pieces`` holds (lo, hi, value) half-open intervals and
    ``atoms`` (type, value) exact overrides, such as the share of the jump
    an agent sitting on a binding type carries. ``kind`` names the shape for
    ``describe`` only.
    """

    kind: GammaKind
    pieces: tuple
    atoms: tuple = ()

    @classmethod
    def point_mass_at_low(cls):
        return cls(GammaKind.POINT_MASS_AT_LOW, ((-math.inf, math.inf, 1.0),))

    @classmethod
    def point_mass_at_high(cls):
        return cls(GammaKind.POINT_MASS_AT_HIGH, ((-math.inf, math.inf, 0.0),))

    @classmethod
    def interior_mass(cls, theta_star: float, at_star: float = 1.0):
        return cls(GammaKind.INTERIOR_MASS,
                   ((-math.inf, theta_star, 0.0), (theta_star, math.inf, 1.0)),
                   ((theta_star, at_star),))

    @classmethod
    def constant(cls, gamma: float):
        return cls(GammaKind.CONSTANT, ((-math.inf, math.inf, gamma),))

    @classmethod
    def piecewise(cls, pieces, atoms=()):
        return cls(GammaKind.PIECEWISE, tuple(pieces), tuple(atoms))

    @property
    def theta_star(self) -> float | None:
        """Type of the first atom, None without atoms."""
        return self.atoms[0][0] if self.atoms else None

    @property
    def at_star(self) -> float | None:
        """Weight on the first atom, None without atoms."""
        return self.atoms[0][1] if self.atoms else None

    @property
    def gamma(self) -> float | None:
        """Weight below the top of the support when it is one constant."""
        return self.pieces[0][2] if len(self.pieces) == 1 else None

    def value(self, theta: float, theta_lo: float, theta_hi: float) -> float:
        for at, val in self.atoms:
            if abs(theta - at) <= 1e-12:
                return val
        if theta >= theta_hi - 1e-12:
            return 1.0
        for lo, hi, val in self.pieces:
            if lo - 1e-12 <= theta < hi:
                return val
        return self.pieces[-1][2]

    def is_valid_cdf(self, theta_lo: float, theta_hi: float) -> bool:
        grid = np.linspace(theta_lo, theta_hi, 101)
        vals = np.array([self.value(float(t), theta_lo, theta_hi) for t in grid])
        in_range = (vals >= -1e-9).all() and (vals <= 1.0 + 1e-9).all()
        monotone = (np.diff(vals) >= -1e-9).all()
        tops_out = abs(vals[-1] - 1.0) <= 1e-9
        return bool(in_range and monotone and tops_out)

    def describe(self) -> str:
        if self.kind is GammaKind.POINT_MASS_AT_LOW:
            return "point mass at support bottom"
        if self.kind is GammaKind.POINT_MASS_AT_HIGH:
            return "point mass at support top"
        if self.kind is GammaKind.INTERIOR_MASS:
            return f"mass at theta={self.theta_star:.12g} (weight {self.at_star:.12g} on the point)"
        if self.kind is GammaKind.CONSTANT:
            return f"constant {self.gamma:.12g} with end-point jumps"
        return "piecewise " + ", ".join(
            f"[{lo:.6g},{hi:.6g})={val:.6g}" for lo, hi, val in self.pieces
        )


# ---------------------------------------------------------------------------
# Envelope slope and type partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Agents split by the sign of the envelope slope at a solution.

    K: slope < 0 (overstating side), L: slope = 0 within tolerance,
    M: slope > 0 (understating side).
    """

    K: frozenset
    L: frozenset
    M: frozenset


def partition_types(econ: Economy, g: float) -> Partition:
    """Classify non-agenda agents by envelope-slope sign at level g.

    Agents with equal realized types always co-classify. Raises
    ContiguityViolation when the sign pattern in type order contradicts the
    declared curvature (rising slopes for concave profiles, falling for
    convex, constant for linear).
    """
    return _partition_at(econ, float(econ.tech.phi(g)))


def _partition_at(econ: Economy, phi_g: float) -> Partition:
    """`partition_types` at a level whose phi the caller has read: phi_g."""
    labels, sides = [], {"K": [], "L": [], "M": []}
    for i in econ.sorted_agents():  # the envelope slope phi(g) - v_bar'(theta) gives the sign
        s = phi_g - float(econ.reservation.slope(econ.type_of(i), econ.outside_g))
        labels.append("K" if s < -SLOPE_TOL else ("M" if s > SLOPE_TOL else "L"))
        sides[labels[-1]].append(i)
    curv = econ.reservation.curvature
    if curv is Curvature.NEGATIVE_SLOPE:
        # zero slopes occur only in the degenerate g_circ = 0 profile
        if "K" in labels:
            raise ContiguityViolation(
                f"slope signs {labels} not uniformly positive under a decreasing profile")
    elif curv is Curvature.LINEAR:
        if len(set(labels)) > 1:  # slope is type-independent for linear
            raise ContiguityViolation(
                f"slope signs {labels} vary across types under a linear profile")
    elif labels != sorted(labels, reverse=curv is Curvature.CONVEX):  # K < L < M
        raise ContiguityViolation(
            f"slope signs {labels} in type order contradict {curv.value} ordering")
    return Partition(*map(frozenset, sides.values()))


# ---------------------------------------------------------------------------
# Adjusted surplus and its maximizer
# ---------------------------------------------------------------------------


def gamma_weight_sum(econ: Economy, gamma: GammaRepresentation) -> float:
    """Agenda type plus every agent's shadow-adjusted virtual type."""
    lo, hi = econ.theta_lo, econ.theta_hi
    total = econ.agenda_setter_type
    for i in econ.agents:
        total += econ.virtual_type(i, gamma.value(econ.type_of(i), lo, hi))
    return total


def solve_weighted_foc(tech: Technology, weight: float) -> float:
    """Solve weight * phi'(g) = 1 for g >= 0; 0 at the corner.

    Uses the technology's closed form when available, otherwise bisection on
    an auto-expanding bracket.
    """
    if weight <= 0.0:
        return 0.0
    if tech.weighted_argmax is not None:
        g = float(tech.weighted_argmax(weight))
        return max(g, 0.0)
    if weight * tech.marginal(0.0) <= 1.0:
        return 0.0

    def excess(g):
        return weight * float(tech.phi_prime(g)) - 1.0

    hi = _doubled(lambda g: excess(g) < 0.0, 1.0,
                  f"phi' stays above 1/{weight:.6g}; benefit not concave enough")
    return bisect(lambda g: excess(g) > 0.0, 0.0, hi, FOC_MAX_ITER, FOC_TOL)


def invert_phi(tech: Technology, target: float, hi: float = 1.0) -> float:
    """Level g >= 0 with phi(g) = target; 0 for a nonpositive target.

    Uses the technology's closed-form inverse when available, otherwise
    bisection on a bracket doubled from ``hi`` until phi reaches the target.
    """
    if target <= 0.0:
        return 0.0
    if tech.phi_inverse is not None:
        return max(float(tech.phi_inverse(target)), 0.0)
    hi = _doubled(lambda g: float(tech.phi(g)) >= target, hi,
                  f"phi stays below {target:.6g}; benefit target unreachable")
    return bisect(lambda g: float(tech.phi(g)) < target, 0.0, hi, 200)


def _doubled(reached: Callable, hi: float, unbounded: str) -> float:
    """First of hi, 2 hi, 4 hi, ... where ``reached`` holds, within 200 doublings."""
    for _ in range(200):
        if reached(hi):
            return hi
        hi *= 2.0
    raise UnboundedObjective(unbounded)


def xi_argmax(econ: Economy, gamma: GammaRepresentation) -> float:
    """Unique maximizer of the shadow-adjusted surplus over g >= 0."""
    return solve_weighted_foc(econ.tech, gamma_weight_sum(econ, gamma))


def efficient_level(econ: Economy) -> float:
    """Utilitarian first-best level: sum of all types times phi'(g) equals 1."""
    total = econ.agenda_setter_type + sum(econ.agent_types)
    return solve_weighted_foc(econ.tech, total)


# ---------------------------------------------------------------------------
# Constant shadow weight on a window (both-ends-binding configurations)
# ---------------------------------------------------------------------------


def rent_gap(econ: Economy, window: tuple) -> Callable:
    """The rent difference between the window's top and bottom types when the
    allocation is held at a flat level g, as a function of phi(g).

    It is the integral of the envelope slope phi(g) - v_bar'(theta) over the
    window [a, b], phi(g) (b - a) - (v_bar(b) - v_bar(a)) at the economy's
    outside level, since `ReservationProfile.v_bar_dtheta` is v_bar's type
    derivative; 0 on a degenerate window. The level enters only through
    phi(g), so callers read phi once at each level they test.
    """
    a, b = window
    if b <= a:
        return lambda phi_g: 0.0
    rise = (float(econ.reservation.value(b, econ.outside_g))
            - float(econ.reservation.value(a, econ.outside_g)))
    return lambda phi_g: phi_g * (b - a) - rise


def gamma_root(gap: Callable, phi_level: Callable, gamma_bounds: tuple, end_phis: tuple) -> float:
    """Constant shadow weight gamma equalizing rents at a window's two ends.

    Solves gap(phi_level(gamma)) = 0 on ``gamma_bounds``, where ``gap`` is the
    window's ``rent_gap`` and ``phi_level`` phi at the FOC level as a function
    of gamma; ``end_phis`` are its values at the (high, low) bounds, which
    callers may keep. Returns the nearest bound when the gap keeps one sign
    there (participation then binds at a single end). The gap must be
    nonincreasing in gamma; a rising gap raises BracketFailure.
    """
    lo_b, hi_b = gamma_bounds
    r_hi, r_lo = gap(end_phis[0]), gap(end_phis[1])  # high weight: low level, small gap
    if r_lo < r_hi - 1e-12:
        raise BracketFailure("rent gap is not decreasing in the shadow weight")
    if r_hi >= 0.0:
        return hi_b
    if r_lo <= 0.0:
        return lo_b
    return bisect(lambda gam: gap(phi_level(gam)) > 0.0, lo_b, hi_b, 200, 1e-12)
