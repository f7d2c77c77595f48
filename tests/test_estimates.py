import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from ym2d import estimates
from ym2d.algebra import su
from ym2d.estimates import (
    ANGLE_THRESHOLD,
    AUDITS,
    ESTIMATE_IDS,
    ESTIMATES,
    FK_CASES,
    FK_THRESHOLD,
    GAMMA1_THRESHOLD,
    HLR_THRESHOLD,
    SAMPLE_BLOCK,
    SampleConfig,
    _angle_ratio,
    _expression_norms,
    _fk_ratio,
    _fk_vectors,
    _free_wave_pair,
    _gamma1_ratio,
    _hlr_ratio,
    _random_times,
    _vector_draws,
    check_angle_estimate,
    check_fk_symbol_bounds,
    check_gamma1_symbol,
    check_hyperbolic_leibniz,
    delta_integral_ellipse,
    elliptic_i,
    elliptic_i_limit,
    elliptic_i_sweep,
    empirical_bilinear_constant,
    evaluate_point,
    run_symbol_suite,
)
from ym2d.nullforms import SpacetimePair, gamma1
from ym2d.spectral import GridField, TorusGrid, weighted_hat_norm

CFG = SampleConfig(count=20000, rng_seed=0)
# run_symbol_suite draws its two vector sets once for all eight checks (16
# draws when each check drew its own)
SUITE_VECTOR_DRAWS = 2


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
    reports = run_symbol_suite(CFG)
    assert [rep.name for rep in reports] == list(AUDITS)
    for rep in reports:
        again = evaluate_point(rep.name, rep.argmax_point)
        assert again == pytest.approx(rep.sup_ratio, rel=1e-10)


@pytest.mark.parametrize("name", ["gamma2Symbol", "fk_parabolic"])
def test_evaluate_point_rejects_unknown_report(name):
    with pytest.raises(ValueError):
        evaluate_point(name, {"eta1": 1.0, "eta2": 0.5, "zeta1": -0.5, "zeta2": 2.0})


def test_symbol_suite_draws_vectors_once(monkeypatch):
    calls = []
    draw = estimates._random_vectors

    def counted(*args):
        calls.append(1)
        return draw(*args)

    monkeypatch.setattr(estimates, "_random_vectors", counted)
    run_symbol_suite(SampleConfig(count=100, rng_seed=1))
    assert len(calls) == SUITE_VECTOR_DRAWS


@pytest.mark.parametrize("seed", [0, 5])
def test_symbol_suite_reports_equal_standalone_checks(seed):
    cfg = SampleConfig(count=20000, rng_seed=seed)
    alone = [check_gamma1_symbol(cfg)]
    alone += [check_fk_symbol_bounds(case, cfg) for case in FK_CASES]
    alone += [check_angle_estimate(cfg, 0.5, 0.5, 0.5), check_hyperbolic_leibniz(cfg)]
    suite = run_symbol_suite(cfg)
    assert [r.name for r in suite] == [r.name for r in alone]
    for got, want in zip(suite, alone):
        assert got.sup_ratio == want.sup_ratio, got.name
        assert got.argmax_point == want.argmax_point, got.name
        assert (got.skipped, got.samples) == (want.skipped, want.samples), got.name


@pytest.mark.parametrize("count", [1000, 3 * SAMPLE_BLOCK + 5])
def test_blocked_ratios_equal_whole_array(count):
    """The ratios, sliced into SAMPLE_BLOCK blocks, equal one evaluation on
    the whole (strided) sample arrays bit for bit, nan included."""
    cfg = SampleConfig(count=count, rng_seed=2)
    xi, eta, rng = _vector_draws(cfg)
    nx, ne = np.hypot(xi[:, 0], xi[:, 1]), np.hypot(eta[:, 0], eta[:, 1])
    tau, lam = _random_times(rng, count, nx, ne)
    calls = [(_gamma1_ratio, (xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam)),
             (_hlr_ratio, (tau, lam, xi[:, 0], xi[:, 1], eta[:, 0], eta[:, 1]))]
    calls += [(_angle_ratio, (xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam,
                              0.5, 0.3, 0.1, s1, s2))
              for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    fk_eta, z = _fk_vectors(cfg)
    calls += [(_fk_ratio, (case, fk_eta[:, 0], fk_eta[:, 1], z[:, 0], z[:, 1]))
              for case in FK_CASES]
    nan_seen = False
    for ratio, args in calls:
        got = ratio(*args)
        assert got.shape == (count,)
        assert np.array_equal(got, ratio.__wrapped__(*args), equal_nan=True), ratio
        nan_seen |= bool(np.isnan(got).any())
    assert nan_seen  # the degenerate branch of _fk_ratio ran


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


def test_elliptic_i_limit_closed_form():
    assert elliptic_i_limit(2.0) == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-15)
    assert elliptic_i_limit(1.1) == pytest.approx(22.862, abs=5e-4)
    # the threshold 4 of criterion 6 holds at the endpoint for r >= r* only
    r_star = brentq(lambda r: elliptic_i_limit(r) - 4.0, 1.2, 2.0)
    assert r_star == pytest.approx(1.5383, abs=1e-4)


@pytest.mark.parametrize("r", [1.1, 1.25, 1.5, 2.0])
def test_elliptic_i_approaches_limit_at_rate(r):
    """I_inf - I(1 + eps) = c eps^{(r-1)/2} with c settled between eps = 1e-8
    and 1e-12 (c = 19.07/18.93 at r = 1.1, 5.188/5.160 at 1.25, 1.548/1.547
    at 1.5); at r = 2 the approach is faster and c -> 0."""
    c = [(elliptic_i_limit(r) - elliptic_i(1.0 + e, (1.0, 0.0), r)) / e ** ((r - 1.0) / 2.0)
         for e in (1e-8, 1e-12)]
    assert c[0] > 0.0
    assert c[1] == pytest.approx(c[0], rel=0.02, abs=1e-4)


def _elliptic_i_mp(eps, r=1.1):
    """I(1 + eps, (1, 0)) at r in 60-digit mpmath: the confocal phi integrand
    of delta_integral_ellipse, with breakpoints at +-(pi/2 - k (2 eps)^{1/2})
    for k = 10^j while k (2 eps)^{1/2} < 0.5, where double precision cannot
    go (eps far below 1e-16)."""
    with mpmath.workdps(60):
        eps, r = mpmath.mpf(eps), mpmath.mpf(r)
        a, b = 1 + r / 2, r / 2

        def integrand(phi):
            r1 = eps / 2 + mpmath.sin(mpmath.pi / 4 + phi / 2) ** 2
            r2 = eps / 2 + mpmath.sin(mpmath.pi / 4 - phi / 2) ** 2
            return 4 * r1 ** (1 - a) * r2 ** (1 - b)

        edge, w = mpmath.pi / 2, mpmath.sqrt(2 * eps)
        ks = [mpmath.mpf(10) ** j for j in range(60) if 10 ** j * w < 0.5]
        pts = ([-edge] + [k * w - edge for k in ks]
               + [edge - k * w for k in reversed(ks)] + [edge])
        integral = mpmath.quad(integrand, pts) / (2 * mpmath.sqrt((1 + eps) ** 2 - 1))
        return eps ** mpmath.mpf(0.5) * integral ** (1 / r)


def test_elliptic_i_limit_confirmed_in_mpmath():
    """c(eps) = (I_inf - I(1 + eps)) / eps^{0.05} at r = 1.1 keeps falling
    slowly toward its limit far below double precision: 18.800, 18.745,
    18.728 at eps = 1e-20, 1e-30, 1e-40 (I(1 + 1e-40) = 22.675), so
    I_inf(1.1) = elliptic_i_limit(1.1) = 22.86 is the endpoint limit."""
    c = []
    for e in ("1e-20", "1e-30", "1e-40"):
        with mpmath.workdps(60):
            gap = elliptic_i_limit(1.1) - _elliptic_i_mp(e)
            c.append(float(gap / mpmath.mpf(e) ** mpmath.mpf(0.05)))
    assert c[0] > c[1] > c[2]
    assert all(18.6 < x < 18.9 for x in c)


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


def test_estimate_ids_are_the_table_keys():
    assert ESTIMATE_IDS == tuple(ESTIMATES) == tuple(range(21, 38))


def test_empirical_constant_rejects_unknown_id():
    with pytest.raises(ValueError):
        empirical_bilinear_constant(99, 16, SampleConfig(count=1), trials=1)


def test_empirical_constant_deterministic():
    cfg = SampleConfig(count=1, rng_seed=5)
    r1 = empirical_bilinear_constant(24, 16, cfg, trials=2)
    r2 = empirical_bilinear_constant(24, 16, cfg, trials=2)
    assert r1.sup_ratio == r2.sup_ratio and r1.growth == r2.growth


def test_time_derivative_channels_are_true_time_derivatives():
    # the d_t channel of estimate 26 must carry d_t^2 A_2, read here off the
    # free flow d_t uhat = m uhat of the input itself, and that of estimate 34
    # d_t[A_3, A_4] by the product rule
    spec, grid, s, l, r = su(2), TorusGrid(16), 0.8, -0.2, 2.0
    rng = np.random.default_rng(0)
    pairs = {
        "A": [_free_wave_pair(spec, grid, rng, s, r, 4.0) for _ in range(4)],
        "F": [_free_wave_pair(spec, grid, rng, l, r, 4.0) for _ in range(2)],
    }
    A1, A2, A3, A4 = pairs["A"]

    def out(field):
        return weighted_hat_norm(grid, field.rhat, s - 1.0, r)

    u, ut = A2.value.rhat, A2.time_deriv.rhat
    m = np.divide(ut, u, out=np.zeros_like(u), where=np.abs(u) > 1e-14)
    dtt = GridField.from_rhat(spec, grid, m * ut)
    expect26 = [out(gamma1(A1, SpacetimePair(A2.time_deriv, dtt))),
                out(gamma1(A1, A2.dx(1)))]
    got26 = _expression_norms(26, grid, pairs, s, l, r)
    assert got26 == pytest.approx(expect26, rel=1e-12)

    aa = A1.value.bracket(A2.value).lambda_pow(-1.0)
    bb = A3.value.bracket(A4.value)
    bb_t = A3.time_deriv.bracket(A4.value) + A3.value.bracket(A4.time_deriv)
    expect34 = [out(aa.bracket(d.lambda_pow(-1.0))) for d in (bb_t, bb.dx(1))]
    got34 = _expression_norms(34, grid, pairs, s, l, r)
    assert got34 == pytest.approx(expect34, rel=1e-12)
