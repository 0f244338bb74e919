import math

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
    assert am.hazard_low(d, 0.8) == pytest.approx(0.6, abs=1e-12)
    assert am.hazard_low(d, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert am.hazard_low(am.uniform(0.0, 2.0), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_hazard_high_uniform_examples():
    d = am.uniform(0.0, 1.0)
    assert am.hazard_high(d, 0.8) == pytest.approx(1.6, abs=1e-12)
    assert am.hazard_high(d, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert am.hazard_high(am.uniform(0.0, 2.0), 1.0) == pytest.approx(2.0, abs=1e-12)


def test_virtual_value_gamma_reduces_to_hazards():
    d = am.uniform(0.0, 1.0)
    assert am.virtual_value_gamma(d, 0.8, 1.0) == pytest.approx(0.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 0.8, 0.0) == pytest.approx(1.6, abs=1e-12)
    assert am.virtual_value_gamma(d, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_hazard_domain_error():
    d = am.uniform(0.0, 1.0)
    with pytest.raises(am.ModelError):
        am.hazard_low(d, 1.5)
    with pytest.raises(am.ModelError):
        am.hazard_high(d, -0.1)
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
    assert am.hazard_low(d, theta) <= theta + 1e-12
    assert am.hazard_high(d, theta) >= theta - 1e-12


@given(name=st.sampled_from(sorted(DISTS)))
@settings(max_examples=30, deadline=None)
def test_hazards_monotone_under_log_concavity(name):
    d = DISTS[name]()
    grid = np.linspace(0.0, 1.0, 101)
    low = np.array([am.hazard_low(d, t) for t in grid])
    high = np.array([am.hazard_high(d, t) for t in grid])
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


def reference_hazard_low(dist, theta):
    """The separate downward-distortion formula the shadow weight replaced."""
    if np.isscalar(theta) or np.ndim(theta) == 0:
        dist.check_support(float(theta))
        return float(theta) - (1.0 - dist.F(theta)) / dist.f(theta)
    return np.asarray(theta, float) - (1.0 - dist.F(theta)) / dist.f(theta)


def reference_hazard_high(dist, theta):
    """The separate upward-distortion formula the shadow weight replaced."""
    if np.isscalar(theta) or np.ndim(theta) == 0:
        dist.check_support(float(theta))
        return float(theta) + dist.F(theta) / dist.f(theta)
    return np.asarray(theta, float) + dist.F(theta) / dist.f(theta)


@pytest.mark.parametrize("name", sorted(DISTS))
def test_virtual_value_gamma_equals_hazard_formulas_exactly(name):
    d = DISTS[name]()
    grid = np.linspace(0.0, 1.0, 97)
    for gamma, reference, public in ((1.0, reference_hazard_low, am.hazard_low),
                                     (0.0, reference_hazard_high, am.hazard_high)):
        want = reference(d, grid)
        for got in (am.virtual_value_gamma(d, grid, gamma), public(d, grid)):
            assert got.tolist() == want.tolist()
        for theta in grid:
            want_t = reference(d, float(theta))
            assert am.virtual_value_gamma(d, float(theta), gamma) == want_t
            assert public(d, float(theta)) == want_t
            assert type(public(d, float(theta))) is float


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
    opt = am.LinearOutsideOption(g_circ=0.6, n=3)
    assert opt.per_capita_tax == pytest.approx(0.2)
    res = am.linear_reservation(log_tech, 3)
    for theta in (0.0, 0.4, 1.0):
        assert float(res.value(theta, 0.6)) == pytest.approx(
            opt.induced_value(theta, log_tech), abs=1e-12)
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


def test_economy_is_immutable(golden_economy):
    with pytest.raises(AttributeError):
        golden_economy.outside_g = 1.0
    assert golden_economy.with_outside_g(1.0).outside_g == 1.0
    assert golden_economy.outside_g == 0.0
