"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line for its criterion, then asserts.
The expensive N = 64 half-second evolution is shared between the constraint
propagation and the half-wave oracle criteria via a session fixture.

Criterion 6 (the elliptic delta-integral sweep) is expected to FAIL: the
swept quantity genuinely exceeds its stated threshold near the characteristic
endpoint tau -> |xi|.  The test reports the measured supremum honestly
instead of restricting the sweep to make it pass.

Every criterion is marked slow: `pytest -m "not slow"` runs the unit suite
alone.
"""

import time

import numpy as np
import pytest

from ym2d.algebra import so, su
from ym2d.estimates import (
    ANGLE_THRESHOLD,
    FK_CASES,
    FK_THRESHOLD,
    GAMMA1_THRESHOLD,
    GROWTH_THRESHOLD,
    HLR_THRESHOLD,
    SampleConfig,
    check_angle_estimate,
    check_fk_symbol_bounds,
    check_gamma1_symbol,
    check_hyperbolic_leibniz,
    delta_integral_ellipse,
    elliptic_i,
    elliptic_i_sweep,
    empirical_bilinear_constant,
)
from ym2d.evolve import (
    EvolveConfig,
    analytic_potential,
    array_from_state,
    evolve_and_monitor,
    from_half_wave,
    picard_iterate,
    spatial_errors,
    step_half_wave,
    temporal_order,
    to_half_wave,
)
from ym2d.identities import run_identity_suite
from ym2d.spectral import TorusGrid
from ym2d.ym import project_gauss_data, state_from_potential

pytestmark = pytest.mark.slow

SPEC = su(2)
N_BIG = 64
DT = 1e-3
T_END = 0.5
SCALE = 1e-2
SEED = 0


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="session")
def big_run():
    """Projected N=64 data evolved to t=0.5 by RK4 with the YM4 twin.

    Returns (records, monitor_states, elapsed); monitor_states maps the step
    index to the full state, for reuse by the half-wave oracle.
    """
    grid = TorusGrid(N_BIG)
    a, a_dot = analytic_potential(SPEC, grid, SEED, SCALE)
    state = project_gauss_data(a, a_dot, tol=1e-10)
    states = {}

    t0 = time.perf_counter()
    records = evolve_and_monitor(
        state,
        EvolveConfig(dt=DT, t_end=T_END, monitor_every=50),
        on_record=lambda step, st: states.__setitem__(step, st),
    )
    elapsed = time.perf_counter() - t0
    return records, states, elapsed


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in (su(2), so(3)):
        results = run_identity_suite(spec, seeds=range(20))
        worst = max(worst, max(results.values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    _verdict(1, ok, f"max residual {worst:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_2_curvature_gauge_layer():
    from scipy.linalg import expm

    from ym2d.spectral import GridField
    from ym2d.ym import curvature, energy, gauge_transform

    t0 = time.perf_counter()
    grid = TorusGrid(N_BIG)
    rng = np.random.default_rng(1)
    x1, x2 = grid.points
    mats = np.zeros((grid.N, grid.N, SPEC.n, SPEC.n), dtype=complex)
    for a in range(SPEC.dim):
        p = rng.uniform(0, 2 * np.pi, size=2)
        phi = 0.2 * np.cos(x1 + p[0]) * np.cos(x2 + p[1])
        mats += phi[..., None, None] * SPEC.basis[a]
    U = np.zeros_like(mats)
    for i in range(grid.N):
        for j in range(grid.N):
            U[i, j] = expm(mats[i, j])

    zeros = tuple(GridField.zero(SPEC, grid) for _ in range(3))
    pure = gauge_transform(state_from_potential(zeros, zeros), U)
    pure_gauge = max(f.sup_norm() for f in curvature(pure.A))

    a, a_dot = analytic_potential(SPEC, grid, 2, SCALE)
    st = state_from_potential(a, a_dot)
    st2 = gauge_transform(st, U)
    fc2 = curvature(st2.A)
    equivariance = max((fc2[k] - st2.F[k].value).sup_norm() for k in range(3))
    e1, e2 = energy(st), energy(st2)
    energy_rel = abs(e1 - e2) / max(e1, 1e-300)
    elapsed = time.perf_counter() - t0

    ok = pure_gauge <= 1e-8 and equivariance <= 1e-8 and energy_rel <= 1e-8
    ok = ok and elapsed <= 60.0
    _verdict(
        2,
        ok,
        f"pure-gauge {pure_gauge:.2e}, equivariance {equivariance:.2e}, "
        f"energy {energy_rel:.2e}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_constraint_propagation(big_run):
    records, _, elapsed = big_run
    lorenz = max(r.lorenz for r in records)
    gauss = max(r.gauss for r in records)
    compat = max(r.compat for r in records)
    e0 = records[0].energy
    drift = max(abs(r.energy - e0) for r in records) / e0
    twin = max(r.twin_diff for r in records)
    ok = (
        lorenz <= 1e-6
        and gauss <= 1e-6
        and compat <= 1e-6
        and drift <= 1e-6
        and twin <= 1e-5
        and elapsed <= 600.0
    )
    _verdict(
        3,
        ok,
        f"lorenz {lorenz:.2e}, gauss {gauss:.2e}, compat {compat:.2e}, "
        f"energy drift {drift:.2e}, twin {twin:.2e}, {elapsed:.0f} s",
    )
    assert ok


def test_criterion_4_convergence():
    t0 = time.perf_counter()
    grid = TorusGrid(N_BIG)
    a, a_dot = analytic_potential(SPEC, grid, SEED, SCALE)
    st = state_from_potential(a, a_dot)
    order = temporal_order(SPEC, grid, st, 4e-3, 0.04)
    errs = spatial_errors(SPEC, SEED, SCALE, (32, 64, 128), 4e-3, 0.04)
    ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
    elapsed = time.perf_counter() - t0
    ok = order >= 3.5 and ratio >= 10.0 and elapsed <= 600.0
    _verdict(
        4,
        ok,
        f"temporal order {order:.2f}, spatial ratio {ratio:.1f}, {elapsed:.0f} s",
    )
    assert ok


def test_criterion_5_symbol_bounds():
    t0 = time.perf_counter()
    cfg = SampleConfig(count=10**6, rng_seed=0)
    reports = [check_gamma1_symbol(cfg)]
    reports += [check_fk_symbol_bounds(c, cfg) for c in FK_CASES]
    reports.append(check_angle_estimate(cfg, 0.5, 0.5, 0.5))
    reports.append(check_hyperbolic_leibniz(cfg))
    elapsed = time.perf_counter() - t0
    thresholds = (
        [GAMMA1_THRESHOLD] + [FK_THRESHOLD] * 5 + [ANGLE_THRESHOLD, HLR_THRESHOLD]
    )
    ok = all(r.passed and r.sup_ratio <= t for r, t in zip(reports, thresholds))
    ok = ok and elapsed <= 300.0
    sups = ", ".join(f"{r.name} {r.sup_ratio:.2f}" for r in reports)
    _verdict(5, ok, f"{sups}, {elapsed:.0f} s")
    assert ok


def test_criterion_6_delta_integral_sweeps():
    t0 = time.perf_counter()
    circle = delta_integral_ellipse(2.0, (0.0, 0.0), 0.0, 0.0)
    circle_err = abs(circle - np.pi)
    sup, argmax, _ = elliptic_i_sweep(10**4, 1.1, rng_seed=0)
    # diagnostic: away from the characteristic endpoint the bound does hold
    restricted = max(
        elliptic_i(ratio, (1.0, 0.0), 1.1) for ratio in (2.0, 3.0, 5.0, 10.0)
    )
    elapsed = time.perf_counter() - t0
    ok = circle_err <= 1e-8 and sup <= 4.0 and elapsed <= 300.0
    _verdict(
        6,
        ok,
        f"circle error {circle_err:.1e}, sweep sup {sup:.2f} at "
        f"tau/|xi| = {float(argmax['tau']) / float(argmax['xiAbs']):.2e}"
        f" (threshold 4; sup over tau >= 2|xi| is {restricted:.2f}), "
        f"{elapsed:.0f} s",
    )
    # The sweep supremum exceeds 4 whenever the sweep samples tau near |xi|:
    # I(tau, xi) depends only on tau/|xi| and is still rising as tau -> |xi|
    # (13.2, 15.3, 16.9 at tau/|xi| = 1 + 1e-6, 1e-8, 1e-10; see
    # test_elliptic_i_still_rising_near_endpoint): the weight
    # |eta|^{-1-r/2} is borderline at r near 1.
    # This assertion is expected to fail; see the verdict line for the
    # measured values.
    assert ok


def test_criterion_7_picard_contraction():
    t0 = time.perf_counter()
    grid = TorusGrid(N_BIG)
    a, a_dot = analytic_potential(SPEC, grid, SEED, SCALE)
    st = project_gauss_data(a, a_dot, tol=1e-10)
    diffs, ratios = picard_iterate(st, 4, 0.25, 2.5e-3)
    elapsed = time.perf_counter() - t0
    monotone = all(b <= a for a, b in zip(diffs, diffs[1:]))
    ok = monotone and all(r <= 0.5 for r in ratios) and elapsed <= 600.0
    _verdict(
        7,
        ok,
        f"ratios {[round(r, 3) for r in ratios]}, monotone {monotone}, "
        f"{elapsed:.0f} s",
    )
    assert ok


def test_criterion_8_half_wave_oracle(big_run):
    _, states, _ = big_run
    t0 = time.perf_counter()
    grid = TorusGrid(N_BIG)
    hw = to_half_wave(states[0])
    steps = int(round(T_END / DT))
    worst = 0.0
    for j in range(steps):
        hw = step_half_wave(SPEC, grid, hw, DT, "ExpRK2")
        if (j + 1) in states:
            d = np.max(
                np.abs(
                    array_from_state(from_half_wave(SPEC, grid, hw))
                    - array_from_state(states[j + 1])
                )
            )
            worst = max(worst, d)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 600.0
    _verdict(8, ok, f"max twin difference {worst:.2e}, {elapsed:.0f} s")
    assert ok


def test_criterion_9_empirical_bilinear_sweeps():
    t0 = time.perf_counter()
    settings = [
        (2.0, 0.8, -0.2),
        (1.1, 3.0 / (2.0 * 1.1) + 0.01, 3.0 / (2.0 * 1.1) + 0.01 - 1.0),
    ]
    worst = 0.0
    details = []
    for r, s, l in settings:
        cfg = SampleConfig(count=1, rng_seed=0, r_exponent=r)
        for i in (21, 24, 25, 35):
            rep = empirical_bilinear_constant(i, 32, cfg, s=s, l=l, trials=6)
            worst = max(worst, rep.growth)
            details.append(f"{i}@r={r}: {rep.growth:.2f}")
    elapsed = time.perf_counter() - t0
    ok = worst <= GROWTH_THRESHOLD and elapsed <= 900.0
    _verdict(9, ok, f"growth {'; '.join(details)}, {elapsed:.0f} s")
    assert ok
