import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agendamech as am
from oracles import second_difference, simpson


# ---------------------------------------------------------------------------
# hazards and virtual values
# ---------------------------------------------------------------------------


def test_hazard_low_uniform_examples():
    d = am.uniform(0.0, 1.0)
    assert am.virtual_value_gamma(d, 0.8, 1.0) == pytest.approx(0.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert am.virtual_value_gamma(am.uniform(0.0, 2.0), 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_hazard_high_uniform_examples():
    d = am.uniform(0.0, 1.0)
    assert am.virtual_value_gamma(d, 0.8, 0.0) == pytest.approx(1.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert am.virtual_value_gamma(am.uniform(0.0, 2.0), 1.0, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_virtual_value_gamma_reduces_to_hazards():
    d = am.uniform(0.0, 1.0)
    assert am.virtual_value_gamma(d, 0.8, 1.0) == pytest.approx(0.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 0.8, 0.0) == pytest.approx(1.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_hazard_domain_error():
    d = am.uniform(0.0, 1.0)
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, 1.5, 1.0)
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, -0.1, 0.0)
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, 0.5, 1.5)


DISTS = {
    "uniform": lambda: am.uniform(0.0, 1.0),
    "truncexp": lambda: am.truncated_exponential(1.3, 0.0, 1.0),
    "truncnorm": lambda: am.truncated_normal(0.4, 0.5, 0.0, 1.0),
}


@given(theta=st.floats(0.0, 1.0), name=st.sampled_from(sorted(DISTS)))
@settings(max_examples=200, deadline=None)
def test_hazards_sandwich_type(theta, name):
    d = DISTS[name]()
    assert am.virtual_value_gamma(d, theta, 1.0) <= theta + 1e-12
    assert am.virtual_value_gamma(d, theta, 0.0) >= theta - 1e-12


@given(name=st.sampled_from(sorted(DISTS)))
@settings(max_examples=30, deadline=None)
def test_hazards_monotone_under_log_concavity(name):
    d = DISTS[name]()
    grid = np.linspace(0.0, 1.0, 101)
    low = np.array([am.virtual_value_gamma(d, t, 1.0) for t in grid])
    high = np.array([am.virtual_value_gamma(d, t, 0.0) for t in grid])
    assert (np.diff(low) >= -1e-9).all()
    assert (np.diff(high) >= -1e-9).all()


@given(theta=st.floats(0.05, 0.95),
       g1=st.floats(0.0, 1.0), g2=st.floats(0.0, 1.0),
       name=st.sampled_from(sorted(DISTS)))
@settings(max_examples=200, deadline=None)
def test_virtual_value_nonincreasing_in_gamma(theta, g1, g2, name):
    d = DISTS[name]()
    lo, hi = min(g1, g2), max(g1, g2)
    assert (am.virtual_value_gamma(d, theta, hi)
            <= am.virtual_value_gamma(d, theta, lo) + 1e-12)


def reference_at_gamma_one(dist, theta):
    """The separate downward-distortion formula the shadow weight replaced."""
    if np.isscalar(theta) or np.ndim(theta) == 0:
        dist.check_support(float(theta))
        return float(theta) - (1.0 - dist.F(theta)) / dist.f(theta)
    return np.asarray(theta, float) - (1.0 - dist.F(theta)) / dist.f(theta)


def reference_at_gamma_zero(dist, theta):
    """The separate upward-distortion formula the shadow weight replaced."""
    if np.isscalar(theta) or np.ndim(theta) == 0:
        dist.check_support(float(theta))
        return float(theta) + dist.F(theta) / dist.f(theta)
    return np.asarray(theta, float) + dist.F(theta) / dist.f(theta)


@pytest.mark.parametrize("name", sorted(DISTS))
def test_virtual_value_gamma_equals_hazard_formulas_exactly(name):
    d = DISTS[name]()
    grid = np.linspace(0.0, 1.0, 97)
    for gamma, reference in ((1.0, reference_at_gamma_one), (0.0, reference_at_gamma_zero)):
        want = reference(d, grid)
        assert am.virtual_value_gamma(d, grid, gamma).tolist() == want.tolist()
        for theta in grid:
            want_t = reference(d, float(theta))
            assert am.virtual_value_gamma(d, float(theta), gamma) == want_t
            assert type(am.virtual_value_gamma(d, float(theta), gamma)) is float


def test_virtual_value_gamma_range_check():
    d = am.uniform(0.0, 1.0)
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, np.array([0.2, 0.4]), np.array([0.5, 1.5]))
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, 0.4, np.array(-0.1))
    with pytest.raises(am.ModelError):
        am.virtual_value_gamma(d, 0.4, -1e-9)
    # the tolerance admits rounding just outside [0, 1]; NaN is not rejected
    assert am.virtual_value_gamma(d, 0.4, 1.0 + 1e-13) == pytest.approx(-0.2)
    assert math.isnan(am.virtual_value_gamma(d, 0.4, math.nan))


def scalar_only_truncexp(rate: float, calls: list | None = None):
    """A truncated exponential on [0, 1] whose cdf and pdf reject arrays;
    each cdf call is appended to ``calls`` when given."""
    z = 1.0 - math.exp(-rate)

    def cdf(x):
        if calls is not None:
            calls.append(x)
        return (1.0 - math.exp(-rate * x)) / z

    return am.TypeDistribution(0.0, 1.0, cdf, lambda x: rate * math.exp(-rate * x) / z,
                               name=f"scalar-truncexp({rate})")


VIRTUAL_TYPE_DISTS = {**DISTS, "scalar-only": lambda: scalar_only_truncexp(1.3)}
VIRTUAL_TYPE_GAMMAS = (0.0, 1.0, *np.random.default_rng(11).uniform(0.0, 1.0, 4).tolist())


def economy_over(log_tech, types, dists):
    return am.Economy(0.5, types, dists, log_tech,
                      am.linear_reservation(log_tech, len(types) + 1), len(types) + 1, 0.3)


@pytest.mark.parametrize("name", sorted(VIRTUAL_TYPE_DISTS))
def test_virtual_type_equals_virtual_value_gamma_exactly(log_tech, name):
    econ = economy_over(log_tech, (0.0, 0.137, 0.5, 0.81, 1.0), VIRTUAL_TYPE_DISTS[name]())
    for gamma in VIRTUAL_TYPE_GAMMAS:
        for i in econ.agents:
            got = econ.virtual_type(i, gamma)
            assert type(got) is float
            assert got == am.virtual_value_gamma(econ.dist_of(i), econ.type_of(i), gamma)


@pytest.mark.parametrize("name", sorted(VIRTUAL_TYPE_DISTS))
def test_realized_cdf_equals_dist_cdf_exactly(log_tech, name):
    econ = economy_over(log_tech, (0.0, 0.137, 0.5, 0.81, 1.0), VIRTUAL_TYPE_DISTS[name]())
    for i in econ.agents:
        got = econ.realized_cdf(i)
        assert type(got) is float
        assert got == econ.dist_of(i).F(econ.type_of(i))
    with pytest.raises(am.ModelError):
        econ.realized_cdf(am.AGENDA_SETTER)


def test_virtual_type_reads_each_cdf_once(log_tech):
    calls = []
    econ = economy_over(log_tech, (0.2, 0.7), scalar_only_truncexp(2.0, calls))
    for gamma in VIRTUAL_TYPE_GAMMAS:
        econ.virtual_type(1, gamma)
        econ.virtual_type(2, gamma)
    assert calls == [0.2, 0.7]


def test_virtual_type_range_check(golden_economy):
    for gamma in (1.5, -0.1, -1e-9, np.array(-0.1)):
        with pytest.raises(am.ModelError, match=r"gamma_at must lie in \[0, 1\]"):
            golden_economy.virtual_type(1, gamma)
    assert golden_economy.virtual_type(1, 1.0 + 1e-13) == pytest.approx(0.6)
    assert math.isnan(golden_economy.virtual_type(1, math.nan))
    with pytest.raises(am.ModelError):
        golden_economy.virtual_type(am.AGENDA_SETTER, 0.5)


def test_virtual_type_of_derived_economies_uses_their_own_agents(log_tech):
    dists = (am.uniform(0.0, 1.0), am.truncated_exponential(1.3, 0.0, 1.0),
             am.truncated_normal(0.4, 0.5, 0.0, 1.0), scalar_only_truncexp(2.0))
    econ = economy_over(log_tech, (0.3, 0.6, 0.45, 0.9), dists)
    parent = {(i, g): econ.virtual_type(i, g) for i in econ.agents for g in VIRTUAL_TYPE_GAMMAS}
    sub = econ.restricted_to([3, 1])
    derived = [(econ.with_outside_g(1.2), {i: i for i in econ.agents}),
               (econ.with_quota(2), {i: i for i in econ.agents}),
               (sub, {1: 1, 2: 3})]
    for child, source in derived:
        for i, j in source.items():
            for g in VIRTUAL_TYPE_GAMMAS:
                want = am.virtual_value_gamma(child.dist_of(i), child.type_of(i), g)
                assert child.virtual_type(i, g) == want == parent[j, g]
    assert sub.virtual_type(2, 0.5) != econ.virtual_type(2, 0.5)


def counting_uniform(calls: list):
    """Uniform on [0, 1] whose cdf and pdf append (name, argument) to
    ``calls`` on every call made at a single type."""
    base = am.uniform(0.0, 1.0)

    def counted(name, fn):
        def read(x):
            if np.ndim(x) == 0:
                calls.append((name, float(x)))
            return fn(x)
        return read

    return am.TypeDistribution(0.0, 1.0, counted("F", base.cdf), counted("f", base.pdf),
                               name="counting-uniform")


def test_economy_copies_share_one_reading(log_tech):
    def economy(calls):
        return am.Economy(0.6, (0.3, 0.5, 0.8), counting_uniform(calls), log_tech,
                          am.quadratic_share_reservation(log_tech, 0.3, 0.5), 4, 1.0)

    # a convex unanimity ladder probes ~70 outside levels on copies of the
    # economy and builds no schedules, so it reads F and f at the realized
    # types once and nothing else
    table = []
    econ = economy(table)
    am.threshold_table(econ)
    assert table == [(name, t) for t in (0.3, 0.5, 0.8) for name in ("F", "f")]

    table.clear()
    children = (econ.with_outside_g(2.0), econ.with_quota(2),
                econ.with_outside_g(0.4).with_quota(3))
    for child in children:
        assert [child.virtual_type(i, 0.5) for i in child.agents] == \
            [econ.virtual_type(i, 0.5) for i in econ.agents]
        for gamma in (1.5, -0.1):
            with pytest.raises(am.ModelError, match=r"gamma_at must lie in \[0, 1\]"):
                child.virtual_type(1, gamma)
        with pytest.raises(am.ModelError):
            child.virtual_type(am.AGENDA_SETTER, 0.5)
    assert table == []
    sub = econ.restricted_to([1, 3])
    assert sub.virtual_type(2, 0.5) == econ.virtual_type(3, 0.5)
    assert table == [("F", 0.3), ("f", 0.3), ("F", 0.8), ("f", 0.8)]


def _raised(make):
    with pytest.raises(am.InvalidEconomy) as info:
        make()
    return str(info.value)


def test_economy_copies_match_the_constructor(log_tech):
    """`with_outside_g` and `with_quota` skip the constructor, yet give the
    economy `dataclasses.replace` builds and share its realized-type reading;
    an invalid level or quota raises the constructor's message."""
    econ = am.Economy(0.6, (0.3, 0.5, 0.8), am.uniform(0.0, 1.0), log_tech,
                      am.quadratic_share_reservation(log_tech, 0.3, 0.5), 4, 1.0)
    copies = [(econ.with_outside_g(g), dataclasses.replace(econ, outside_g=g))
              for g in (0.0, 1.2, 7)]
    copies += [(econ.with_quota(q), dataclasses.replace(econ, quota=q)) for q in (1, 3, 4)]
    for copy, built in copies:
        assert copy == built and repr(copy) == repr(built)
        assert copy._cdf_pdf is econ._cdf_pdf
    for g in (-0.5, math.nan, math.inf):
        assert _raised(lambda: econ.with_outside_g(g)) == \
            _raised(lambda: dataclasses.replace(econ, outside_g=g))
    for q in (0, 2.5, 5, True):
        assert _raised(lambda: econ.with_quota(q)) == \
            _raised(lambda: dataclasses.replace(econ, quota=q))


def test_economy_agents_read_once_and_shared_by_copies(log_tech):
    """`agents` is built once per economy: outside-level and quota copies
    share it, and a restricted economy builds its own for its size."""
    econ = am.Economy(0.6, (0.3, 0.5, 0.8), am.uniform(0.0, 1.0), log_tech,
                      am.quadratic_share_reservation(log_tech, 0.3, 0.5), 4, 1.0)
    assert econ.agents == (1, 2, 3) and econ.agents is econ.agents
    assert econ.with_outside_g(1.0).agents is econ.agents
    assert econ.with_quota(2).agents is econ.agents
    sub = econ.restricted_to([1, 3])
    assert sub.agents == (1, 2) == tuple(range(1, sub.n))


def test_truncated_normal_erf_kernel_matches_math_erf():
    mu, sigma = 0.4, 0.5
    d = am.truncated_normal(mu, sigma, 0.0, 1.0)
    std_cdf = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    at_lo = std_cdf((0.0 - mu) / sigma)
    mass = std_cdf((1.0 - mu) / sigma) - at_lo
    for xs in (0.3, np.array([0.3]), np.linspace(0.0, 1.0, 1025)):
        flat = np.atleast_1d(xs)
        want_cdf = [(std_cdf((x - mu) / sigma) - at_lo) / mass for x in flat.tolist()]
        want_pdf = np.exp(-0.5 * ((flat - mu) / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi) * mass)
        assert np.atleast_1d(d.F(xs)).tolist() == want_cdf
        assert np.atleast_1d(d.f(xs)).tolist() == want_pdf.tolist()
    assert d.cdf(np.array([])).shape == (0,)


# ---------------------------------------------------------------------------
# technologies and reservation profiles
# ---------------------------------------------------------------------------


def test_log_technology_shape():
    tech = am.log_technology()
    assert float(tech.phi(0.0)) == 0.0
    assert float(tech.phi(math.e - 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(tech.weighted_argmax(2.1)) == pytest.approx(1.1, abs=1e-12)
    assert float(tech.weighted_argmax(0.9)) == 0.0


def test_power_technology_shape():
    tech = am.power_technology(0.5)
    assert float(tech.phi(0.0)) == 0.0
    assert float(tech.phi(4.0)) == pytest.approx(2.0, abs=1e-12)
    # W * 0.5 g^{-1/2} = 1  ->  g = (W/2)^2
    assert float(tech.weighted_argmax(1.0)) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(am.ModelError):
        am.power_technology(1.2)


def test_linear_outside_option_induced_value(log_tech):
    # head-tax status quo: theta * phi(g_circ) - g_circ / n
    res = am.linear_reservation(log_tech, 3)
    for theta in (0.0, 0.4, 1.0):
        assert float(res.value(theta, 0.6)) == pytest.approx(
            theta * math.log(1.6) - 0.2, abs=1e-12)
    # slope is the benefit at the outside level, independent of the type
    assert float(res.slope(0.1, 0.6)) == pytest.approx(float(log_tech.phi(0.6)))
    assert float(res.slope(0.9, 0.6)) == pytest.approx(float(log_tech.phi(0.6)))


def test_reservation_profiles_vanish_at_zero_level(log_tech):
    profiles = [
        am.linear_reservation(log_tech, 4),
        am.quadratic_share_reservation(log_tech, 1.4, -0.5),
        am.quadratic_share_reservation(log_tech, 0.3, 0.5),
        am.negative_slope_reservation(log_tech, 1.0, 0.5),
        am.zero_reservation(),
    ]
    for res in profiles:
        for theta in (0.0, 0.3, 1.0):
            assert float(res.value(theta, 0.0)) == pytest.approx(0.0, abs=1e-12)


PROFILES = {
    "share": lambda tech: am.quadratic_share_reservation(tech, 0.3, 0.5),
    "linear": lambda tech: am.linear_reservation(tech, 3),
}
PHI_LEVELS = (0.7, 1.9, 0.7, 0.0, -0.0, 0.7)  # a, b, a, 0, -0, a
THETAS = (0.0, 0.45, np.linspace(0.0, 1.0, 9))


def _readings(profile, g_circ) -> list:
    """The bits of each value and slope at THETAS and the outside level."""
    return [np.asarray(read(theta, g_circ), float).tobytes()
            for read in (profile.value, profile.slope) for theta in THETAS]


@pytest.mark.parametrize("family", sorted(PROFILES))
def test_reservation_phi_reading_is_pure(family):
    """A share and a linear profile read phi(g_circ) once per outside level
    in a row, and return the bits fresh profiles do at every level of
    a, b, a, 0.0, -0.0, a: 0.0 and -0.0 are told apart (log1p keeps the sign
    of zero), and a repeated level reads phi again after another."""
    calls = []
    tech = am.log_technology()
    counted = dataclasses.replace(tech, phi=lambda g: calls.append(g) or tech.phi(g))
    profile = PROFILES[family](counted)
    for g_circ in PHI_LEVELS:
        assert _readings(profile, g_circ) == _readings(PROFILES[family](tech), g_circ)
        assert _readings(profile, g_circ) == _readings(PROFILES[family](tech), g_circ)
    assert [float(g).hex() for g in calls] == [g.hex() for g in PHI_LEVELS]


@pytest.mark.parametrize("family", sorted(PROFILES))
def test_reservation_phi_reading_is_safe_across_threads(family):
    """Four threads (more than the two cores this was written on) cycling
    through outside levels on one profile each read the bits fresh profiles
    give. The profile's phi sleeps at every call, which hands another thread
    the interpreter, and the cycles' lengths differ, so one thread often
    reads the level another is storing: a pair stored in two steps failed
    this in each of six runs."""
    tech = am.log_technology()
    profile = PROFILES[family](dataclasses.replace(
        tech, phi=lambda g: time.sleep(1e-6) or tech.phi(g)))
    want = {g.hex(): _readings(PROFILES[family](tech), g) for g in (0.7, 1.9, 0.0, -0.0)}
    cycles = ((0.7, 1.9, 0.0, -0.0), (0.7, 0.7, 1.9, 0.0, 0.0, -0.0), (-0.0, 1.9), (0.0, 0.7, -0.0))
    bad, done, start = [], [], threading.Barrier(len(cycles))

    def run(levels):
        start.wait(timeout=30)
        for _ in range(150):
            for g_circ in levels:
                if _readings(profile, g_circ) != want[g_circ.hex()]:
                    bad.append(g_circ)
        done.append(levels)

    threads = [threading.Thread(target=run, args=(levels,)) for levels in cycles]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(done) == len(cycles)
    assert bad == []


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_golden_economy_passes(golden_economy):
    report = am.validate_economy(golden_economy)
    assert report.passed, report.summary()


def test_validation_catches_non_log_concave_density(golden_economy):
    # density proportional to exp(theta^2): (log f)'' = 2 > 0 everywhere
    z = simpson(lambda x: math.exp(x * x), 0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 4001)
    pdf_grid = np.exp(grid**2) / z
    cdf_grid = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pdf_grid[1:] + pdf_grid[:-1]) * np.diff(grid))])
    cdf_grid /= cdf_grid[-1]
    bumpy = am.TypeDistribution(
        theta_lo=0.0, theta_hi=1.0,
        cdf=lambda x: np.interp(x, grid, cdf_grid),
        pdf=lambda x: np.interp(x, grid, pdf_grid),
        name="exp-square")
    assert second_difference(lambda x: math.log(math.exp(x * x) / z), 0.5, 1e-4) > 0

    econ = am.Economy(
        agenda_setter_type=0.5, agent_types=(0.5,), distributions=bumpy,
        tech=golden_economy.tech, reservation=golden_economy.reservation,
        quota=2, outside_g=0.0)
    report = am.validate_economy(econ)
    failing = [c for c in report.failures() if "log-concave" in c.name]
    assert failing and failing[0].first_violation is not None


def test_validation_catches_curvature_mismatch(log_tech):
    # concave share values declared as convex
    res = am.ReservationProfile(
        v_bar=lambda t, gc: float(log_tech.phi(gc)) * (1.4 * t - 0.5 * t * t),
        v_bar_dtheta=lambda t, gc: float(log_tech.phi(gc)) * (1.4 - t),
        curvature=am.Curvature.CONVEX,
        name="mislabelled")
    econ = am.Economy(0.5, (0.5,), am.uniform(0.0, 1.0), log_tech, res, 2, 1.0)
    report = am.validate_economy(econ)
    assert any("declared curvature" in c.name for c in report.failures())


def test_validation_summary_locates_each_failure(log_tech):
    # v_bar = phi * (1.4 theta - theta^2) falls above theta = 0.7 and is
    # concave, yet declared convex
    res = am.ReservationProfile(
        v_bar=lambda t, gc: float(log_tech.phi(gc)) * (1.4 * t - t * t),
        v_bar_dtheta=lambda t, gc: float(log_tech.phi(gc)) * (1.4 - 2.0 * t),
        curvature=am.Curvature.CONVEX,
        name="falling")
    econ = am.Economy(0.5, (0.5,), am.uniform(0.0, 1.0), log_tech, res, 2, 1.0)
    lines = am.validate_economy(econ).summary().splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] v_bar nondecreasing in type at theta=0.705",
        "[FAIL] declared curvature matches (convex) at theta=0.005",
    ]
    assert len(lines) == 11 and lines[0] == "[pass] positive density (uniform[0.0,1.0])"


def test_validation_allows_head_tax_profile(log_tech):
    # the canonical profile falls with the outside level for low types, but
    # never faster than the full marginal cost
    econ = am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech,
                      am.linear_reservation(log_tech, 2), 2, 1.7)
    assert am.validate_economy(econ).passed


def test_economy_guards(log_tech):
    res = am.linear_reservation(log_tech, 2)
    with pytest.raises(am.InvalidEconomy):
        am.Economy(0.5, (), am.uniform(0.0, 1.0), log_tech, res, 1, 0.0)
    with pytest.raises(am.InvalidEconomy):
        am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech, res, 3, 0.0)
    with pytest.raises(am.ModelError):
        am.Economy(0.5, (1.8,), am.uniform(0.0, 1.0), log_tech, res, 2, 0.0)
    with pytest.raises(am.InvalidEconomy):
        am.Economy(0.5, (0.8,), am.uniform(0.0, 1.0), log_tech, res, 2, -0.5)


@pytest.mark.parametrize("field", ["agenda_setter_type", "outside_g"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_economy_rejects_non_finite_levels(log_tech, field, value):
    spec = dict(agenda_setter_type=0.5, agent_types=(0.8,), distributions=am.uniform(0.0, 1.0),
                tech=log_tech, reservation=am.linear_reservation(log_tech, 2), quota=2,
                outside_g=0.0)
    with pytest.raises(am.InvalidEconomy, match=f"{field} must be finite"):
        am.Economy(**{**spec, field: value})


@pytest.mark.parametrize("quota", [True, 2.0, 2.5])
def test_economy_rejects_non_integer_quota(golden_economy, quota):
    with pytest.raises(am.InvalidEconomy, match="quota must be an integer"):
        dataclasses.replace(golden_economy, quota=quota)


def test_economy_is_immutable(golden_economy):
    with pytest.raises(AttributeError):
        golden_economy.outside_g = 1.0
    assert golden_economy.with_outside_g(1.0).outside_g == 1.0
    assert golden_economy.outside_g == 0.0


def _nan(t, gc):
    return np.full_like(np.asarray(t, float), np.nan)


def test_nan_reservation_fails_its_named_checks(golden_economy, monkeypatch, capsys):
    # every mask reads "not within bound", so a NaN fails the check it reaches
    econ = dataclasses.replace(golden_economy,
                               reservation=am.ReservationProfile(_nan, _nan, am.Curvature.LINEAR))
    failed = [c.name for c in am.validate_economy(econ).failures()]
    assert failed == ["v_bar(theta, 0) = 0", "v_bar responds to outside level (net of cost share)",
                      "v_bar nondecreasing in type", "declared curvature matches (linear)"]
    from agendamech import cli
    monkeypatch.setattr(cli, "load_model", lambda path: (econ, {}))
    assert cli.main(["solve", "--model", "unused.json"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation failed: {', '.join(failed)}\n"


def test_nan_density_and_technology_fail_their_checks(log_tech):
    flat = am.uniform(0.0, 1.0)
    dist = dataclasses.replace(flat, pdf=lambda x: np.full_like(np.asarray(x, float), np.nan))
    tech = dataclasses.replace(log_tech, phi_prime=lambda g: np.full_like(np.asarray(g, float),
                                                                          np.nan))
    econ = am.Economy(0.5, (0.8,), dist, tech, am.zero_reservation(), 2, 0.0)
    failures = {c.name: c.first_violation for c in am.validate_economy(econ).failures()}
    assert failures == {f"positive density ({flat.name})": 0.0,
                        f"log-concave density ({flat.name})": 0.005,
                        "phi concave (phi' nonincreasing)": pytest.approx(0.04)}


@pytest.mark.parametrize("make, message", [
    (lambda: am.uniform(-0.5, 1.0), "type support must be nonnegative"),
    (lambda: am.truncated_normal(0.5, 0.0), "sigma must be positive"),
], ids=["negative-support", "zero-sigma"])
def test_distribution_refuses_bad_parameters(make, message):
    with pytest.raises(am.ModelError, match=message):
        make()


def test_marginal_is_infinite_where_a_scalar_phi_prime_divides_by_zero():
    root = am.Technology(phi=math.sqrt, phi_prime=lambda g: 0.5 / math.sqrt(g))
    assert root.marginal(0.0) == math.inf
    assert root.marginal(0.25) == 1.0


def test_quadratic_share_without_curve_is_linear(log_tech):
    assert am.quadratic_share_reservation(log_tech, 1.0, 0.0).curvature is am.Curvature.LINEAR
