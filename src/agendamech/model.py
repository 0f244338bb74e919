"""Domain types for the collective-choice economy.

Type distributions, benefit technologies, reservation-utility profiles and
the assembled economy, plus validation of the standing regularity
assumptions (positive density, log-concavity, concave technology,
implementable reservation profile).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

VALIDATION_GRID = 201
LOG_CONCAVITY_TOL = 1e-7
CURVATURE_TOL = 1e-7

AGENDA_SETTER = 0  # agent index reserved for the proposer
_bits = struct.Struct("<d").pack  # a float's bits


class ModelError(ValueError):
    """Invalid domain object or out-of-domain evaluation."""


class InvalidEconomy(ModelError):
    """Economy violates a solver precondition."""


def _as_array(f: Callable, x):
    """Evaluate f on a scalar or array, tolerating scalar-only callables."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(f(float(x)))
    if x.size > 1:  # a size-1 array can fool scalar-only callables
        try:
            out = np.asarray(f(x), dtype=float)
            if out.shape == x.shape:
                return out
        except (TypeError, ValueError):
            pass
    return np.array([float(f(float(v))) for v in x.ravel()]).reshape(x.shape)


# ---------------------------------------------------------------------------
# Type distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeDistribution:
    """Continuous type distribution on a common support [theta_lo, theta_hi].

    cdf and pdf should be vectorized (accept numpy arrays); scalar-only
    callables are tolerated at a performance cost. An ``Economy`` reads
    them at each agent's realized type once and reuses those values, so
    both must be pure functions of their argument.
    """

    theta_lo: float
    theta_hi: float
    cdf: Callable
    pdf: Callable
    name: str = "custom"

    def __post_init__(self):
        if not self.theta_hi > self.theta_lo:
            raise ModelError("type support requires theta_hi > theta_lo")
        if self.theta_lo < 0:
            raise ModelError("type support must be nonnegative")

    def check_support(self, theta: float) -> None:
        if not (self.theta_lo - 1e-12 <= theta <= self.theta_hi + 1e-12):
            raise ModelError(
                f"type {theta} outside support [{self.theta_lo}, {self.theta_hi}]"
            )

    def F(self, theta):
        return _as_array(self.cdf, theta)

    def f(self, theta):
        return _as_array(self.pdf, theta)


def uniform(lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    width = hi - lo
    return TypeDistribution(
        theta_lo=lo,
        theta_hi=hi,
        cdf=lambda x: np.clip((np.asarray(x, float) - lo) / width, 0.0, 1.0),
        pdf=lambda x: np.full_like(np.asarray(x, float), 1.0 / width),
        name=f"uniform[{lo},{hi}]",
    )


def truncated_exponential(rate: float, lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    if not rate > 0:
        raise ModelError("rate must be positive")
    z = 1.0 - math.exp(-rate * (hi - lo))
    return TypeDistribution(
        theta_lo=lo,
        theta_hi=hi,
        cdf=lambda x: (1.0 - np.exp(-rate * (np.asarray(x, float) - lo))) / z,
        pdf=lambda x: rate * np.exp(-rate * (np.asarray(x, float) - lo)) / z,
        name=f"truncexp(rate={rate})[{lo},{hi}]",
    )


def _erf(z):  # math.erf at each element of z, in z's shape
    return np.fromiter(map(math.erf, np.ravel(z).tolist()), float, np.size(z)).reshape(np.shape(z))


def truncated_normal(mu: float, sigma: float, lo: float = 0.0, hi: float = 1.0) -> TypeDistribution:
    if not sigma > 0:
        raise ModelError("sigma must be positive")

    def std_cdf(z):
        return 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))

    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    cdf_a = std_cdf(a)
    z = float(std_cdf(b) - cdf_a)
    return TypeDistribution(
        theta_lo=lo,
        theta_hi=hi,
        cdf=lambda x: (std_cdf((np.asarray(x, float) - mu) / sigma) - cdf_a) / z,
        pdf=lambda x: np.exp(-0.5 * ((np.asarray(x, float) - mu) / sigma) ** 2)
        / (sigma * math.sqrt(2.0 * math.pi) * z),
        name=f"truncnorm(mu={mu},sigma={sigma})[{lo},{hi}]",
    )


def _shadow_weight(gamma_at) -> float:
    """gamma_at as a float in [0, 1] (1e-12 slack); NaN raises."""
    if not -1e-12 <= (g := float(gamma_at)) <= 1 + 1e-12:
        raise ModelError("gamma_at must lie in [0, 1]")
    return g


def _virtual(theta, cdf, pdf, gamma_at):
    """theta - (gamma - F) / f for a shadow weight gamma in [0, 1]; NaN raises."""
    if np.isscalar(gamma_at) or np.ndim(gamma_at) == 0:
        g = _shadow_weight(gamma_at)
    else:
        g = np.asarray(gamma_at, float)
        if not (np.all(g >= -1e-12) and np.all(g <= 1 + 1e-12)):
            raise ModelError("gamma_at must lie in [0, 1]")
    return theta - (g - cdf) / pdf


def virtual_value_gamma(dist: TypeDistribution, theta, gamma_at):
    """Virtual type under a shadow weight: theta - (gamma - F(theta)) / f(theta).

    gamma_at = 1 gives theta - (1 - F) / f and gamma_at = 0 gives theta + F / f.
    For an agent's realized type, ``Economy.virtual_type`` gives the same
    float from F and f read once per economy.
    """
    if np.isscalar(theta) or np.ndim(theta) == 0:
        dist.check_support(float(theta))
        return _virtual(float(theta), dist.F(theta), dist.f(theta), gamma_at)
    return _virtual(np.asarray(theta, float), dist.F(theta), dist.f(theta), gamma_at)


# ---------------------------------------------------------------------------
# Technology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Technology:
    """Public-good benefit function phi, nondecreasing and concave, phi(0)=0.

    ``weighted_argmax`` optionally solves W * phi'(g) = 1 in closed form
    (vectorized over W); ``phi_inverse`` optionally inverts phi. Both are
    used as fast paths; the solver falls back to bisection when absent.
    """

    phi: Callable
    phi_prime: Callable
    name: str = "custom"
    weighted_argmax: Callable | None = None
    phi_inverse: Callable | None = None

    def marginal(self, g: float) -> float:
        """phi'(g) as a float; inf where it is infinite or undefined (power benefits at 0)."""
        try:
            with np.errstate(divide="ignore"):
                v = float(self.phi_prime(g))
        except (ZeroDivisionError, OverflowError, ValueError):
            return math.inf
        return v if math.isfinite(v) else math.inf

    def phi_at(self, g):
        """phi evaluated on a scalar or array, tolerating scalar-only callables."""
        return _as_array(self.phi, g)


def log_technology() -> Technology:
    """phi(g) = ln(1 + g); W * phi'(g) = 1 solves to g = W - 1."""
    return Technology(
        phi=lambda g: np.log1p(np.asarray(g, float)),
        phi_prime=lambda g: 1.0 / (1.0 + np.asarray(g, float)),
        name="log",
        weighted_argmax=lambda w: np.maximum(np.asarray(w, float) - 1.0, 0.0),
        phi_inverse=lambda y: np.expm1(np.asarray(y, float)),
    )


def power_technology(alpha: float) -> Technology:
    """phi(g) = g**alpha with alpha in (0, 1); always interior optimum."""
    if not 0.0 < alpha < 1.0:
        raise ModelError("alpha must lie in (0, 1)")

    def weighted_argmax(w):
        w = np.asarray(w, float)
        return np.where(w > 0.0, (alpha * np.maximum(w, 0.0)) ** (1.0 / (1.0 - alpha)), 0.0)

    return Technology(
        phi=lambda g: np.asarray(g, float) ** alpha,
        phi_prime=lambda g: alpha * np.asarray(g, float) ** (alpha - 1.0),
        name=f"power({alpha})",
        weighted_argmax=weighted_argmax,
        phi_inverse=lambda y: np.maximum(np.asarray(y, float), 0.0) ** (1.0 / alpha),
    )


# ---------------------------------------------------------------------------
# Reservation-utility profiles
# ---------------------------------------------------------------------------


class Curvature(Enum):
    LINEAR = "linear"
    CONCAVE = "concave"
    CONVEX = "convex"
    NEGATIVE_SLOPE = "negative_slope"


@dataclass(frozen=True)
class ReservationProfile:
    """Outside-option utility v_bar(theta, g_circ) and its type derivative
    ``v_bar_dtheta``; `solver_core.rent_gap` relies on it, reading the slope's
    integral over a type window as v_bar's rise."""

    v_bar: Callable
    v_bar_dtheta: Callable
    curvature: Curvature
    name: str = "custom"

    def value(self, theta, g_circ: float):
        return _as_array(lambda t: self.v_bar(t, g_circ), theta)

    def slope(self, theta, g_circ: float):
        return _as_array(lambda t: self.v_bar_dtheta(t, g_circ), theta)


def _phi_once(tech: Technology) -> Callable:
    """float(tech.phi(g)) by the bits of g, read once per g in a row, for a share or
    linear reservation's phi(g_circ); the last pair is replaced whole, so threads agree."""
    last = [(None, 0.0)]

    def phi(g):
        if (pair := last[0])[0] != (key := _bits(g)):
            pair = last[0] = key, float(tech.phi(g))
        return pair[1]
    return phi


def linear_reservation(tech: Technology, n: int) -> ReservationProfile:
    """v_bar = theta * phi(g_circ) - g_circ / n; slope is type-independent."""
    phi = _phi_once(tech)
    return ReservationProfile(
        v_bar=lambda t, gc: np.asarray(t, float) * phi(gc) - gc / n,
        v_bar_dtheta=lambda t, gc: np.full_like(t, phi(gc)),
        curvature=Curvature.LINEAR,
        name=f"linear(n={n})",
    )


def zero_reservation() -> ReservationProfile:
    """Identically-zero outside option."""
    zero = lambda t, gc: np.zeros_like(t)
    return ReservationProfile(zero, zero, Curvature.LINEAR, name="zero")


def share_reservation(tech: Technology, share: Callable, share_prime: Callable,
                      curvature: Curvature, name: str = "share") -> ReservationProfile:
    """v_bar = phi(g_circ) * share(theta); curvature inherited from share."""
    phi = _phi_once(tech)
    return ReservationProfile(
        v_bar=lambda t, gc: phi(gc) * share(t),
        v_bar_dtheta=lambda t, gc: phi(gc) * share_prime(t),
        curvature=curvature,
        name=name,
    )


def quadratic_share_reservation(tech: Technology, slope: float, curve: float) -> ReservationProfile:
    """v_bar = phi(g_circ) * (slope * theta + curve * theta^2).

    curve < 0 gives a concave profile, curve > 0 convex, curve = 0 a linear
    profile without the head-tax term. The caller must keep
    slope + 2 * curve * theta positive on the support.
    """
    if curve < 0:
        curvature = Curvature.CONCAVE
    elif curve > 0:
        curvature = Curvature.CONVEX
    else:
        curvature = Curvature.LINEAR
    return share_reservation(
        tech,
        share=lambda t: slope * t + curve * t**2,
        share_prime=lambda t: slope + 2.0 * curve * t,
        curvature=curvature,
        name=f"quadshare({slope},{curve})",
    )


def negative_slope_reservation(tech: Technology, level: float, slope: float) -> ReservationProfile:
    """v_bar = phi(g_circ) * (level - slope * theta), decreasing in type."""
    if not slope > 0:
        raise ModelError("slope must be positive for a decreasing profile")
    return share_reservation(
        tech,
        share=lambda t: level - slope * t,
        share_prime=lambda t: -slope + 0.0 * t,
        curvature=Curvature.NEGATIVE_SLOPE,
        name=f"negslope({level},{slope})",
    )


# ---------------------------------------------------------------------------
# Economy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Economy:
    """A realized collective-choice problem.

    Agent 0 is the agenda setter with a known type; agents 1..n-1 carry the
    realized type profile at which mechanisms are evaluated, one
    distribution each. All model objects are immutable; each agent's cdf
    and pdf at its realized type are read once, on first use, and kept;
    ``with_outside_g`` and ``with_quota`` copies share that reading.
    """

    agenda_setter_type: float
    agent_types: tuple
    distributions: tuple
    tech: Technology
    reservation: ReservationProfile
    quota: int
    outside_g: float

    def __post_init__(self):
        object.__setattr__(self, "agent_types", tuple(float(t) for t in self.agent_types))
        dists = self.distributions
        if isinstance(dists, TypeDistribution):
            dists = (dists,) * len(self.agent_types)
        object.__setattr__(self, "distributions", tuple(dists))
        if len(self.agent_types) < 1:
            raise InvalidEconomy("need at least one non-agenda agent (n >= 2)")
        if len(self.distributions) != len(self.agent_types):
            raise InvalidEconomy("one distribution per non-agenda agent required")
        for name in ("quota", "agenda_setter_type", "outside_g"):
            self._check(name)
        for theta, dist in zip(self.agent_types, self.distributions):
            dist.check_support(theta)

    def _check(self, name: str) -> None:
        """Raise InvalidEconomy unless the named scalar field is valid."""
        value = getattr(self, name)
        if name == "quota":
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidEconomy(f"quota must be an integer, got {value!r}")
            if not 1 <= value <= self.n:
                raise InvalidEconomy(f"quota must lie in [1, {self.n}]")
        elif not math.isfinite(value):
            raise InvalidEconomy(f"{name} must be finite, got {value!r}")
        elif name == "outside_g" and value < 0:
            raise InvalidEconomy("outside_g must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.agent_types) + 1

    @cached_property
    def agents(self) -> tuple:
        """Indices of the non-agenda agents."""
        return tuple(range(1, self.n))

    def type_of(self, agent: int) -> float:
        if agent == AGENDA_SETTER:
            return self.agenda_setter_type
        return self.agent_types[agent - 1]

    def dist_of(self, agent: int) -> TypeDistribution:
        return self.distributions[agent - 1]

    @cached_property
    def _cdf_pdf(self) -> tuple:
        """(F, f) of each non-agenda agent's distribution at its realized type."""
        return tuple((dist.F(theta), dist.f(theta))
                     for theta, dist in zip(self.agent_types, self.distributions))

    def virtual_type(self, agent: int, gamma_at) -> float:
        """``virtual_value_gamma`` at a non-agenda agent's realized type."""
        if agent == AGENDA_SETTER:
            raise ModelError("the agenda setter has no type distribution")
        g, (cdf, pdf) = _shadow_weight(gamma_at), self._cdf_pdf[agent - 1]
        return self.agent_types[agent - 1] - (g - cdf) / pdf

    def realized_cdf(self, agent: int) -> float:
        """F at a non-agenda agent's realized type, read once per economy."""
        if agent == AGENDA_SETTER:
            raise ModelError("the agenda setter has no type distribution")
        return self._cdf_pdf[agent - 1][0]

    @property
    def theta_lo(self) -> float:
        return self.distributions[0].theta_lo

    @property
    def theta_hi(self) -> float:
        return self.distributions[0].theta_hi

    def sorted_agents(self) -> list:
        """Non-agenda agent indices sorted by realized type, index-stable."""
        return sorted(self.agents, key=lambda i: (self.type_of(i), i))

    def _sharing(self, name: str, value) -> "Economy":
        copy = object.__new__(type(self))  # no constructor: check only the changed field
        copy.__dict__.update(self.__dict__, _cdf_pdf=self._cdf_pdf, agents=self.agents,
                             **{name: value})
        if name == "outside_g":  # a solve's grid readings hold the old level's slope
            copy.__dict__.pop("_grid_table", None)
        copy._check(name)  # same agents: keep this reading of them
        return copy

    def with_outside_g(self, g_circ: float) -> "Economy":
        return self._sharing("outside_g", g_circ)

    def with_quota(self, quota: int) -> "Economy":
        return self._sharing("quota", quota)

    def restricted_to(self, members: Sequence[int]) -> "Economy":
        """Sub-economy keeping only the given non-agenda agents."""
        keep = [i for i in sorted(members) if i != AGENDA_SETTER]
        return replace(
            self,
            agent_types=tuple(self.type_of(i) for i in keep),
            distributions=tuple(self.dist_of(i) for i in keep),
            quota=len(keep) + 1,
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    first_violation: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            loc = "" if c.first_violation is None else f" at theta={c.first_violation:.6g}"
            lines.append(f"[{status}] {c.name}{loc} {c.detail}".rstrip())
        return "\n".join(lines)


def _first_bad(grid, mask):
    idx = np.flatnonzero(mask)
    return float(grid[idx[0]]) if idx.size else None


def _check_distribution(dist: TypeDistribution) -> list:
    grid = np.linspace(dist.theta_lo, dist.theta_hi, VALIDATION_GRID)
    pdf = dist.f(grid)
    cdf = dist.F(grid)
    checks = []

    bad = ~(pdf > 0)
    checks.append(CheckResult(
        f"positive density ({dist.name})", not bad.any(),
        first_violation=_first_bad(grid, bad)))

    ends_ok = abs(cdf[0]) <= 1e-6 and abs(cdf[-1] - 1.0) <= 1e-6
    monotone = np.diff(cdf) >= -1e-12
    checks.append(CheckResult(
        f"cdf endpoints and monotonicity ({dist.name})",
        ends_ok and monotone.all(),
        detail=f"F(lo)={cdf[0]:.3g}, F(hi)={cdf[-1]:.3g}",
        first_violation=_first_bad(grid[1:], ~monotone)))

    # log-concavity via the second central difference of log f
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = np.log(np.maximum(pdf, 1e-300))
    h = grid[1] - grid[0]
    second = (logf[2:] - 2.0 * logf[1:-1] + logf[:-2]) / h**2
    bad = ~(second <= LOG_CONCAVITY_TOL)
    checks.append(CheckResult(
        f"log-concave density ({dist.name})", not bad.any(),
        detail=f"max (log f)'' = {second.max():.3g}" if second.size else "",
        first_violation=_first_bad(grid[1:-1], bad)))
    return checks


def _check_technology(tech: Technology, g_max: float) -> list:
    grid = np.linspace(0.0, g_max, VALIDATION_GRID)
    phi = np.asarray(_as_array(tech.phi, grid), float)
    checks = [CheckResult("phi(0) = 0", abs(phi[0]) <= 1e-12, detail=f"phi(0)={phi[0]:.3g}")]
    rising = np.diff(phi) >= -1e-12
    checks.append(CheckResult(
        "phi nondecreasing", bool(rising.all()),
        first_violation=_first_bad(grid[1:], ~rising)))
    interior = grid[1:]  # phi' may blow up at 0 for power benefits
    dphi = np.asarray(_as_array(tech.phi_prime, interior), float)
    bad = ~(np.diff(dphi) <= 1e-10)
    checks.append(CheckResult(
        "phi concave (phi' nonincreasing)", not bad.any(),
        first_violation=_first_bad(interior[1:], bad)))
    return checks


def _check_reservation(res: ReservationProfile, lo: float, hi: float,
                       g_circ: float) -> list:
    grid = np.linspace(lo, hi, VALIDATION_GRID)
    checks = []

    # The status-quo level may be financed: a reservation utility can fall
    # with the outside level, but never faster than bearing the entire
    # marginal cost alone (the head-tax profile falls at rate 1/n).
    probes = [0.0] + sorted({0.5, 1.0, max(2.0 * g_circ, 2.0)})
    vals = np.array([res.value(grid, gc) for gc in probes])
    bad = ~(np.abs(vals[0]) <= 1e-9)
    checks.append(CheckResult(
        "v_bar(theta, 0) = 0", not bad.any(), first_violation=_first_bad(grid, bad)))

    steps = np.diff(np.asarray(probes, float))
    drops = np.diff(vals, axis=0) + steps[:, None]
    bad_cols = ~(drops >= -1e-9).all(axis=0)
    checks.append(CheckResult(
        "v_bar responds to outside level (net of cost share)", not bad_cols.any(),
        first_violation=_first_bad(grid, bad_cols)))

    gc = g_circ if g_circ > 0 else 1.0
    slope = res.slope(grid, gc)
    if res.curvature is Curvature.NEGATIVE_SLOPE:
        bad = ~(slope < 0)
        checks.append(CheckResult(
            "v_bar decreasing in type", not bad.any(),
            first_violation=_first_bad(grid, bad)))
    else:
        bad = ~(slope >= -1e-9)
        checks.append(CheckResult(
            "v_bar nondecreasing in type", not bad.any(),
            first_violation=_first_bad(grid, bad)))

    vv = res.value(grid, gc)
    h = grid[1] - grid[0]
    second = (vv[2:] - 2.0 * vv[1:-1] + vv[:-2]) / h**2
    scale = max(1.0, np.abs(second).max()) * CURVATURE_TOL * 10 + CURVATURE_TOL
    if res.curvature is Curvature.CONCAVE:
        bad = ~(second <= scale)
    elif res.curvature is Curvature.CONVEX:
        bad = ~(second >= -scale)
    elif res.curvature is Curvature.LINEAR:
        bad = ~(np.abs(second) <= scale)
    else:
        bad = np.zeros_like(second, bool)
    checks.append(CheckResult(
        f"declared curvature matches ({res.curvature.value})", not bad.any(),
        first_violation=_first_bad(grid[1:-1], bad)))
    return checks


def validate_economy(econ: Economy) -> ValidationReport:
    """Report-style validation of every standing assumption.

    Never raises: each assumption is listed with pass/fail and the first
    violating grid point, so callers can surface precise diagnostics.
    """
    checks: list = []
    seen = set()
    for dist in econ.distributions:
        if id(dist) in seen:
            continue
        seen.add(id(dist))
        checks.extend(_check_distribution(dist))

    lo, hi = econ.theta_lo, econ.theta_hi
    same_support = all(
        abs(d.theta_lo - lo) <= 1e-12 and abs(d.theta_hi - hi) <= 1e-12
        for d in econ.distributions
    )
    checks.append(CheckResult("shared type support", same_support))

    g_max = max(4.0, 4.0 * econ.outside_g, 2.0 * (econ.agenda_setter_type + sum(econ.agent_types)))
    checks.extend(_check_technology(econ.tech, g_max))
    checks.extend(_check_reservation(econ.reservation, lo, hi, econ.outside_g))
    return ValidationReport(tuple(checks))
