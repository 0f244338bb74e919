"""Screening engine: shadow-weight representations, type partitioning,
adjusted-surplus maximization and the first-order-condition machinery shared
by every regime solver."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .model import (
    Curvature,
    Economy,
    ReservationProfile,
    Technology,
    virtual_value_gamma,
)

FOC_TOL = 1e-10
FOC_MAX_ITER = 200
SLOPE_TOL = 1e-7  # membership tolerance for the zero-slope set
SIMPSON_PANELS = 400
GAMMA_TOL = 1e-12


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
# Scalar bisection
# ---------------------------------------------------------------------------


def bisect(below: Callable, lo: float, hi: float, max_iter: int,
           tol: float | None = None) -> float:
    """Midpoint of a bisected bracket: ``lo`` moves to the midpoint where
    ``below(mid)`` holds, ``hi`` otherwise.

    Stops after ``max_iter`` steps, once ``hi - lo <= tol`` after a step, or
    when the midpoint rounds onto an endpoint. From there on a step either
    leaves the bracket as it is or collapses it onto that endpoint, so every
    further step returns the same float and is skipped.
    """
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
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
    """Cumulative shadow-weight function over the type space.

    Values lie in [0, 1], are nondecreasing in type, and reach 1 at the top
    of the support. ``at_star`` carries the weight assigned exactly at an
    interior mass point (an agent sitting on the binding type splits the
    jump). ``pieces`` is a tuple of (lo, hi, value) half-open intervals, with
    optional exact overrides in ``atoms``.
    """

    kind: GammaKind
    theta_star: float | None = None
    at_star: float | None = None
    gamma: float | None = None
    pieces: tuple | None = None
    atoms: tuple | None = None

    @classmethod
    def point_mass_at_low(cls):
        return cls(GammaKind.POINT_MASS_AT_LOW)

    @classmethod
    def point_mass_at_high(cls):
        return cls(GammaKind.POINT_MASS_AT_HIGH)

    @classmethod
    def interior_mass(cls, theta_star: float, at_star: float = 1.0):
        return cls(GammaKind.INTERIOR_MASS, theta_star=theta_star, at_star=at_star)

    @classmethod
    def constant(cls, gamma: float):
        return cls(GammaKind.CONSTANT, gamma=gamma)

    @classmethod
    def piecewise(cls, pieces, atoms=()):
        return cls(GammaKind.PIECEWISE, pieces=tuple(pieces), atoms=tuple(atoms))

    def value(self, theta: float, theta_lo: float, theta_hi: float) -> float:
        if self.kind is GammaKind.POINT_MASS_AT_LOW:
            return 1.0
        if self.kind is GammaKind.POINT_MASS_AT_HIGH:
            return 1.0 if theta >= theta_hi - 1e-12 else 0.0
        if self.kind is GammaKind.INTERIOR_MASS:
            if abs(theta - self.theta_star) <= 1e-12:
                return self.at_star
            return 1.0 if theta > self.theta_star else 0.0
        if self.kind is GammaKind.CONSTANT:
            return 1.0 if theta >= theta_hi - 1e-12 else self.gamma
        if self.atoms:
            for at, val in self.atoms:
                if abs(theta - at) <= 1e-12:
                    return val
        if theta >= theta_hi - 1e-12:
            return 1.0
        for lo, hi, val in self.pieces:
            if lo - 1e-12 <= theta < hi:
                return val
        return self.pieces[-1][2]

    def grid_values(self, grid, theta_lo: float, theta_hi: float):
        return np.array([self.value(float(t), theta_lo, theta_hi) for t in grid])

    def is_valid_cdf(self, theta_lo: float, theta_hi: float, grid_size: int = 101) -> bool:
        grid = np.linspace(theta_lo, theta_hi, grid_size)
        vals = self.grid_values(grid, theta_lo, theta_hi)
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


def envelope_slope(theta_i: float, g: float, g_circ: float,
                   res: ReservationProfile, tech: Technology) -> float:
    """Marginal information rent phi(g) - dv_bar/dtheta at (theta_i, g_circ)."""
    return float(tech.phi(g)) - float(res.slope(theta_i, g_circ))


@dataclass(frozen=True)
class Partition:
    """Agents split by the sign of the envelope slope at a solution.

    K: slope < 0 (overstating side), L: slope = 0 within tolerance,
    M: slope > 0 (understating side).
    """

    K: frozenset
    L: frozenset
    M: frozenset

    def member_sets(self):
        return {"K": self.K, "L": self.L, "M": self.M}


def partition_types(econ: Economy, g: float, tol: float = SLOPE_TOL) -> Partition:
    """Classify non-agenda agents by envelope-slope sign at level g.

    Agents with equal realized types always co-classify. Raises
    ContiguityViolation when the sign pattern in type order contradicts the
    declared curvature (rising slopes for concave profiles, falling for
    convex, constant for linear).
    """
    slopes = {
        i: envelope_slope(econ.type_of(i), g, econ.outside_g, econ.reservation, econ.tech)
        for i in econ.agents
    }
    K, L, M = set(), set(), set()
    for i, s in slopes.items():
        if s < -tol:
            K.add(i)
        elif s > tol:
            M.add(i)
        else:
            L.add(i)

    order = econ.sorted_agents()
    labels = ["K" if i in K else ("L" if i in L else "M") for i in order]
    curv = econ.reservation.curvature
    if curv is Curvature.NEGATIVE_SLOPE:
        # zero slopes occur only in the degenerate g_circ = 0 profile
        if not set(labels) <= {"M", "L"}:
            raise ContiguityViolation(
                f"slope signs {labels} not uniformly positive under a decreasing profile")
    elif curv is Curvature.LINEAR:
        if len(set(labels)) > 1:  # slope is type-independent for linear
            raise ContiguityViolation(
                f"slope signs {labels} vary across types under a linear profile")
    else:
        expected = ("K", "L", "M") if curv is Curvature.CONCAVE else ("M", "L", "K")
        rank = {lab: k for k, lab in enumerate(expected)}
        ranks = [rank[lab] for lab in labels]
        if any(b < a for a, b in zip(ranks, ranks[1:])):
            raise ContiguityViolation(
                f"slope signs {labels} in type order contradict {curv.value} ordering")
    return Partition(frozenset(K), frozenset(L), frozenset(M))


# ---------------------------------------------------------------------------
# Adjusted surplus and its maximizer
# ---------------------------------------------------------------------------


def gamma_weight_sum(econ: Economy, gamma: GammaRepresentation) -> float:
    """Agenda type plus every agent's shadow-adjusted virtual type."""
    lo, hi = econ.theta_lo, econ.theta_hi
    total = econ.agenda_setter_type
    for i in econ.agents:
        theta = econ.type_of(i)
        total += virtual_value_gamma(econ.dist_of(i), theta, gamma.value(theta, lo, hi))
    return total


def sigma(econ: Economy, gamma: GammaRepresentation, g: float) -> float:
    """Shadow-adjusted surplus at level g for the realized profile."""
    return gamma_weight_sum(econ, gamma) * float(econ.tech.phi(g)) - g


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
    if weight * tech.marginal_at_zero() <= 1.0:
        return 0.0

    def excess(g):
        return weight * float(tech.phi_prime(g)) - 1.0

    hi = 1.0
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise UnboundedObjective(f"phi' stays above 1/{weight:.6g}; benefit not concave enough")
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
    for _ in range(200):
        if float(tech.phi(hi)) >= target:
            break
        hi *= 2.0
    else:
        raise UnboundedObjective(f"phi stays below {target:.6g}; benefit target unreachable")
    return bisect(lambda g: float(tech.phi(g)) < target, 0.0, hi, 200)


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


def simpson_integral(f: Callable, lo: float, hi: float, panels: int = SIMPSON_PANELS) -> float:
    """Composite Simpson quadrature with vectorized evaluation."""
    if hi <= lo:
        return 0.0
    x = np.linspace(lo, hi, 2 * panels + 1)
    y = np.asarray(f(x), float)
    h = (hi - lo) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def rent_gap(econ: Economy, g: float, window: tuple, panels: int = SIMPSON_PANELS) -> float:
    """Integral of the envelope slope over the window at a flat level g.

    Equals the rent difference between the window's top and bottom types
    when the allocation is held at g.
    """
    lo, hi = window
    phi_g = float(econ.tech.phi(g))

    def slope(x):
        return phi_g - np.asarray(econ.reservation.slope(x, econ.outside_g), float)

    return simpson_integral(slope, lo, hi, panels)


def gamma_star_constant(econ: Economy, theta_window: tuple,
                        gamma_bounds: tuple = (0.0, 1.0),
                        weight_fn: Callable | None = None,
                        tol: float = 1e-12) -> float:
    """Constant shadow weight equalizing rents at the window's two ends.

    Solves R(gamma) = 0 where R integrates the envelope slope over the
    window at the gamma-dependent optimum; returns the nearest bound when R
    keeps one sign there (participation then binds at a single end). R must
    be nonincreasing in gamma; a violation raises BracketFailure.
    """
    lo_b, hi_b = gamma_bounds
    if weight_fn is None:
        def weight_fn(gam):
            return gamma_weight_sum(econ, GammaRepresentation.constant(gam))

    def residual(gam):
        g = solve_weighted_foc(econ.tech, weight_fn(gam))
        return rent_gap(econ, g, theta_window)

    r_hi = residual(hi_b)  # highest weight -> lowest provision -> smallest gap
    r_lo = residual(lo_b)
    if r_lo < r_hi - 1e-12:
        raise BracketFailure("rent gap is not decreasing in the shadow weight")
    if r_hi >= 0.0:
        return hi_b
    if r_lo <= 0.0:
        return lo_b
    return bisect(lambda gam: residual(gam) > 0.0, lo_b, hi_b, 200, tol)
