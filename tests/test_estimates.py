import numpy as np
import pytest

from ym2d.algebra import su
from ym2d.estimates import (
    ANGLE_THRESHOLD,
    ESTIMATE_IDS,
    FK_CASES,
    FK_THRESHOLD,
    GAMMA1_THRESHOLD,
    HLR_THRESHOLD,
    SampleConfig,
    check_angle_estimate,
    check_fk_symbol_bounds,
    check_gamma1_symbol,
    check_hyperbolic_leibniz,
    delta_integral_ellipse,
    delta_integral_hyperbola,
    elliptic_i,
    elliptic_i_sweep,
    empirical_bilinear_constant,
    evaluate_point,
    run_symbol_suite,
)

CFG = SampleConfig(count=20000, rng_seed=0)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(count=0)
    with pytest.raises(ValueError):
        SampleConfig(radius_range=(1.0, 0.1))


def test_gamma1_symbol_bound():
    rep = check_gamma1_symbol(CFG)
    assert rep.passed and rep.sup_ratio <= GAMMA1_THRESHOLD
    assert rep.samples == CFG.count


@pytest.mark.parametrize("case", FK_CASES)
def test_fk_symbol_bounds(case):
    rep = check_fk_symbol_bounds(case, CFG)
    assert rep.passed and rep.sup_ratio <= FK_THRESHOLD


def test_fk_rejects_unknown_case():
    with pytest.raises(ValueError):
        check_fk_symbol_bounds("parabolic", CFG)


def test_angle_estimate():
    rep = check_angle_estimate(CFG, 0.5, 0.5, 0.5)
    assert rep.passed and rep.sup_ratio <= ANGLE_THRESHOLD


def test_hyperbolic_leibniz():
    rep = check_hyperbolic_leibniz(CFG)
    assert rep.passed and rep.sup_ratio <= HLR_THRESHOLD


def test_argmax_points_audit():
    """Every reported sup must be reproducible from its argmax point alone."""
    for rep in run_symbol_suite(CFG):
        again = evaluate_point(rep.name, rep.argmax_point)
        assert again == pytest.approx(rep.sup_ratio, rel=1e-10)


def test_report_serialization():
    rep = check_gamma1_symbol(CFG)
    d = rep.to_dict()
    assert {"name", "samples", "supRatio", "argmaxPoint", "threshold", "pass"} <= set(d)
    import json

    json.dumps(d)  # must be JSON-serializable as-is


# --- delta integrals ------------------------------------------------------

def test_ellipse_circle_closed_form():
    # xi = 0 degenerates the ellipse to the circle |eta| = tau/2 with
    # integrand weight (tau/2)^(-a-b); unweighted circumference-style value pi
    assert delta_integral_ellipse(2.0, (0.0, 0.0), 0.0, 0.0) == pytest.approx(np.pi)
    a, b = 0.7, 0.4
    tau = 3.0
    expect = np.pi * (tau / 2.0) ** (1.0 - a - b)
    assert delta_integral_ellipse(tau, (0.0, 0.0), a, b) == pytest.approx(expect)


def test_ellipse_scaling_homogeneity():
    # eta -> mu eta: d eta gives mu^2, the delta mu^-1, the weights mu^-a-b
    a, b, mu = 0.9, 0.55, 3.7
    v1 = delta_integral_ellipse(2.0, (0.8, 0.3), a, b)
    v2 = delta_integral_ellipse(2.0 * mu, (0.8 * mu, 0.3 * mu), a, b)
    assert v2 == pytest.approx(mu ** (1.0 - a - b) * v1, rel=1e-7)


def test_ellipse_monte_carlo_cross_check():
    """Smoothed-delta Monte Carlo oracle, fixed seed, loose tolerance."""
    tau, xi, a, b = 2.5, (0.9, -0.4), 0.6, 0.3
    exact = delta_integral_ellipse(tau, xi, a, b)
    rng = np.random.default_rng(42)
    R = tau + 1.0
    n = 400_000
    eta = rng.uniform(-R, R, size=(n, 2))
    r1 = np.hypot(eta[:, 0], eta[:, 1])
    r2 = np.hypot(eta[:, 0] - xi[0], eta[:, 1] - xi[1])
    eps = 2e-2
    w = np.exp(-0.5 * ((tau - r1 - r2) / eps) ** 2) / (eps * np.sqrt(2 * np.pi))
    good = (r1 > 1e-9) & (r2 > 1e-9)
    mc = np.mean(np.where(good, w * r1**-a * r2**-b, 0.0)) * (2 * R) ** 2
    assert mc == pytest.approx(exact, rel=0.05)


def test_hyperbola_requires_integrable_weights():
    with pytest.raises(ValueError):
        delta_integral_hyperbola(0.5, (1.0, 0.0), 0.5, 0.5)  # a + b <= 2
    with pytest.raises(ValueError):
        delta_integral_hyperbola(2.0, (1.0, 0.0), 1.5, 1.5)  # |tau| >= |xi|


def test_hyperbola_monte_carlo_cross_check():
    tau, xi, a, b = 0.6, (1.4, 0.2), 1.6, 1.1
    exact = delta_integral_hyperbola(tau, xi, a, b)
    rng = np.random.default_rng(7)
    R = 12.0
    n = 600_000
    eta = rng.uniform(-R, R, size=(n, 2))
    r1 = np.hypot(eta[:, 0], eta[:, 1])
    r2 = np.hypot(eta[:, 0] - xi[0], eta[:, 1] - xi[1])
    eps = 1e-2
    w = np.exp(-0.5 * ((tau - r1 + r2) / eps) ** 2) / (eps * np.sqrt(2 * np.pi))
    good = (r1 > 1e-3) & (r2 > 1e-3)
    mc = np.mean(np.where(good, w * r1**-a * r2**-b, 0.0)) * (2 * R) ** 2
    assert mc == pytest.approx(exact, rel=0.25)


def test_elliptic_i_scale_invariant():
    v1 = elliptic_i(2.0, (1.0, 0.0), 1.1)
    v2 = elliptic_i(20.0, (10.0, 0.0), 1.1)
    assert v2 == pytest.approx(v1, rel=1e-8)


def test_elliptic_i_moderate_ratios_bounded():
    # away from the tau -> |xi| endpoint the quantity is comfortably small
    assert elliptic_i(2.0, (1.0, 0.0), 1.1) < 4.0
    assert elliptic_i(10.0, (1.0, 0.0), 1.1) < 4.0


def test_elliptic_i_endpoint_blowup():
    """The near-characteristic endpoint exceeds any O(1) constant at r near 1:
    the weight |eta|^{-1-r/2} is borderline-integrable on the shrinking
    ellipse, and the compensating factor ||tau|-|xi||^{1/2} dies too slowly."""
    vals = [elliptic_i(1.0 + d, (1.0, 0.0), 1.1) for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 4.0


def test_elliptic_i_still_rising_near_endpoint():
    # the values the README quotes: no plateau down to tau/|xi| = 1 + 1e-12,
    # with increments shrinking by about 0.8 per two decades
    vals = [elliptic_i(1.0 + e, (1.0, 0.0), 1.1) for e in (1e-6, 1e-8, 1e-10, 1e-12)]
    assert vals == pytest.approx([13.2, 15.3, 16.9, 18.1], abs=0.05)
    steps = np.diff(vals)
    ratios = steps[1:] / steps[:-1]
    assert np.all((0.7 < ratios) & (ratios < 0.85))


@pytest.mark.parametrize("tau, xi", [
    (1.0 * (1 + 1e-13), (1.0, 0.0)),
    (3.0 * (1 + 1e-12), (3.0, 0.0)),
    (0.1 * (1 + 1e-11), (0.1, 0.0)),
])
def test_elliptic_i_finite_at_endpoint_layer(tau, xi):
    # points where unsplit quadrature returned a negative integral
    val = elliptic_i(tau, xi, 1.1)
    assert np.isfinite(val) and val > 0.0


def test_elliptic_i_scale_invariant_at_endpoint_layer():
    one, three = (elliptic_i(n * (1 + 1e-12), (n, 0.0), 1.1) for n in (1.0, 3.0))
    assert three == pytest.approx(one, rel=1e-6)


def test_elliptic_i_sweep_reproducible():
    s1 = elliptic_i_sweep(100, 1.1, rng_seed=3)
    s2 = elliptic_i_sweep(100, 1.1, rng_seed=3)
    assert s1[0] == s2[0]


# --- empirical bilinear layer ---------------------------------------------

def test_empirical_constant_runs_all_ids():
    cfg = SampleConfig(count=1, rng_seed=0)
    for i in ESTIMATE_IDS:
        rep = empirical_bilinear_constant(i, 16, cfg, trials=1)
        assert np.isfinite(rep.sup_ratio) and rep.sup_ratio >= 0.0
        assert rep.growth is not None and np.isfinite(rep.growth)


def test_empirical_constant_rejects_unknown_id():
    with pytest.raises(ValueError):
        empirical_bilinear_constant(99, 16, SampleConfig(count=1), trials=1)


def test_empirical_constant_deterministic():
    cfg = SampleConfig(count=1, rng_seed=5)
    r1 = empirical_bilinear_constant(24, 16, cfg, trials=2)
    r2 = empirical_bilinear_constant(24, 16, cfg, trials=2)
    assert r1.sup_ratio == r2.sup_ratio and r1.growth == r2.growth
