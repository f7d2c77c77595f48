import gc

import numpy as np
import pytest

from ym2d import spectral
from ym2d.algebra import su
from ym2d.evolve import (
    EvolveConfig,
    _hw_norm,
    _second_order_rhs,
    analytic_potential,
    array_from_state,
    evolve_and_monitor,
    from_half_wave,
    picard_iterate,
    records_to_csv,
    state_from_array,
    step_half_wave,
    step_second_order,
    temporal_order,
    to_half_wave,
)
from ym2d.spectral import TorusGrid, discrete_norm
from ym2d.ym import assemble_rhs, project_gauss_data, state_from_potential

SPEC = su(2)


def _state(seed=0, N=32, scale=1e-2, project=False):
    grid = TorusGrid(N)
    a, a_dot = analytic_potential(SPEC, grid, seed, scale)
    if project:
        return project_gauss_data(a, a_dot, tol=1e-10)
    return state_from_potential(a, a_dot)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=1e-3, t_end=1.0, stepper="Euler")


def test_array_state_roundtrip():
    st = _state()
    y = array_from_state(st)
    assert y.shape == (6, 2, SPEC.dim, 32, 32)
    st2 = state_from_array(SPEC, TorusGrid(32), y)
    assert np.array_equal(array_from_state(st2), y)


def test_half_wave_roundtrip():
    st = _state(seed=1)
    hw = to_half_wave(st)
    st2 = from_half_wave(SPEC, TorusGrid(32), hw)
    d = np.max(np.abs(array_from_state(st2) - array_from_state(st)))
    assert d < 1e-12


def test_zero_data_stays_zero():
    st = _state(scale=0.0)
    cfg = EvolveConfig(dt=1e-2, t_end=0.05, monitor_every=1)
    records = evolve_and_monitor(st, cfg)
    for rec in records:
        assert rec.energy == 0.0
        assert rec.lorenz == 0.0 and rec.gauss == 0.0 and rec.compat == 0.0
        assert rec.twin_diff == 0.0


def test_constraints_propagate_on_projected_data():
    st = _state(seed=2, project=True)
    cfg = EvolveConfig(dt=2e-3, t_end=0.05, monitor_every=5)
    records = evolve_and_monitor(st, cfg)
    e0 = records[0].energy
    for rec in records:
        assert rec.lorenz < 1e-7
        assert rec.gauss < 1e-7
        assert rec.compat < 1e-7
        assert abs(rec.energy - e0) < 1e-8 * e0
        assert rec.twin_diff < 1e-9


def test_half_wave_matches_second_order():
    st = _state(seed=3, project=True)
    grid = TorusGrid(32)
    dt, steps = 1e-3, 40
    hw = to_half_wave(st)
    ref = st
    for _ in range(steps):
        hw = step_half_wave(SPEC, grid, hw, dt, "ExpRK2")
        ref = step_second_order(ref, dt)
    d = np.max(
        np.abs(array_from_state(from_half_wave(SPEC, grid, hw)) - array_from_state(ref))
    )
    assert d < 1e-7


def test_exp_euler_less_accurate_than_exp_rk2():
    st = _state(seed=3, project=True)
    grid = TorusGrid(32)
    dt, steps = 2e-3, 20
    ref = st
    for _ in range(steps):
        ref = step_second_order(ref, dt)
    yref = array_from_state(ref)
    errs = {}
    for stepper in ("ExpEuler", "ExpRK2"):
        hw = to_half_wave(st)
        for _ in range(steps):
            hw = step_half_wave(SPEC, grid, hw, dt, stepper)
        errs[stepper] = np.max(
            np.abs(array_from_state(from_half_wave(SPEC, grid, hw)) - yref)
        )
    assert errs["ExpRK2"] < errs["ExpEuler"]


def test_temporal_order_is_fourth():
    grid = TorusGrid(16)
    a, a_dot = analytic_potential(SPEC, grid, 5, 1e-2)
    st = state_from_potential(a, a_dot)
    order = temporal_order(SPEC, grid, st, 4e-3, 0.04)
    assert order >= 3.5


def test_rk4_nan_guard():
    st = _state(seed=6, scale=10.0, N=16)
    with pytest.raises(FloatingPointError):
        s = st
        for _ in range(200):
            s = step_second_order(s, 0.5)


def test_picard_contracts():
    st = _state(seed=7, project=True)
    diffs, ratios = picard_iterate(st, 3, 0.1, 5e-3)
    assert len(diffs) == 3 and len(ratios) == 2
    assert all(r <= 0.5 for r in ratios)
    assert diffs[0] > diffs[1] > diffs[2]


def test_records_to_csv_schema(tmp_path):
    st = _state(scale=0.0, N=16)
    cfg = EvolveConfig(dt=1e-2, t_end=0.02, monitor_every=1)
    records = evolve_and_monitor(st, cfg)
    out = tmp_path / "diag.csv"
    records_to_csv(records, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,energy,lorenz,gauss,compat,twinDiff"
    assert len(lines) == 1 + len(records)
    assert all(len(row.split(",")) == 6 for row in lines[1:])


def test_half_wave_path_uses_only_the_rfft2_layout(monkeypatch):
    st = _state(seed=1, N=16)
    grid = TorusGrid(16)

    def full_plane(*args, **kwargs):
        raise AssertionError("full-plane transform called")

    monkeypatch.setattr(np.fft, "fft2", full_plane)
    monkeypatch.setattr(np.fft, "ifft2", full_plane)
    hw = step_half_wave(SPEC, grid, to_half_wave(st), 1e-3, "ExpRK2")
    assert hw.shape == (6, 2, SPEC.dim, 16, 16 // 2 + 1)
    diffs, _ = picard_iterate(st, 1, 1e-3, 1e-3, r=1.5)
    assert len(diffs) == 1 and diffs[0] > 0.0
    assert discrete_norm(st.A[1].value, 0.8, 1.5) > 0.0


@pytest.mark.parametrize("r", [1.5, 2.0])
def test_hw_norm_matches_full_plane(r):
    spec, grid, s = su(3), TorusGrid(32), 0.8
    a, a_dot = analytic_potential(spec, grid, 6, 1e-2)
    st = state_from_potential(a, a_dot)
    # the full-plane formula: sum over components and signs of the fft2
    # half-wave lattices' weighted l^{r'} norms
    k1, k2 = grid.freqs
    lam = np.sqrt(1.0 + k1**2 + k2**2)
    rp = r / (r - 1.0)
    full = 0.0
    for p in list(st.A) + list(st.F):
        uh = np.fft.fft2(p.value.values) / grid.N**2
        vh = np.fft.fft2(p.time_deriv.values) / grid.N**2
        for hw in (0.5 * (uh - 1j * vh / lam), 0.5 * (uh + 1j * vh / lam)):
            mag = np.sqrt(np.sum(np.abs(hw * grid.L**2 / (2 * np.pi)) ** 2, axis=0))
            dxi = (2 * np.pi / grid.L) ** 2
            full += (np.sum((lam**s * mag) ** rp) * dxi) ** (1.0 / rp)
    half = _hw_norm(grid, to_half_wave(st), s, r)
    assert abs(half - full) <= 1e-12 * full


def test_every_stepper_runs_through_the_monitored_driver():
    st = _state(seed=2, project=True)
    last_twin = {}
    for stepper in ("ExpEuler", "ExpRK2"):
        cfg = EvolveConfig(dt=2e-3, t_end=4e-3, stepper=stepper, monitor_every=1)
        seen = []
        records = evolve_and_monitor(st, cfg, on_record=lambda j, s: seen.append(j))
        assert seen == [0, 1, 2]
        assert records[0].twin_diff == 0.0
        assert all(0.0 < rec.twin_diff <= 1e-5 for rec in records[1:])
        assert all(rec.gauss < 1e-6 for rec in records)
        last_twin[stepper] = records[-1].twin_diff
    # the twin is RK4, so the second-order stepper sits closer to it
    assert last_twin["ExpRK2"] < last_twin["ExpEuler"]


# one assemble_rhs at su(2), N = 16 from values-only fields (the RK4 path):
# 38 rfft2 (one per sum of products whose spectrum is needed, one per state
# field with a multiplier), 135 irfft2 (one per distinct product factor), and
# 214 dealiased products
RHS_TRANSFORMS = {"rfft2": 38, "irfft2": 135}
RHS_PRODUCTS = 214


def _count_rhs_calls(monkeypatch, owner, names):
    """Calls of owner.<name> made by one assemble_rhs (su(2), N = 16)."""
    st = state_from_array(SPEC, TorusGrid(16), array_from_state(_state(seed=3, N=16)))
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    assemble_rhs(st)
    return calls


def test_assemble_rhs_transform_count(monkeypatch):
    calls = _count_rhs_calls(monkeypatch, np.fft, RHS_TRANSFORMS)
    for name, bound in RHS_TRANSFORMS.items():
        assert 0 < calls[name] <= bound, name


def test_assemble_rhs_product_count(monkeypatch):
    # GridField.bracket looks the module-level function up at call time
    calls = _count_rhs_calls(monkeypatch, spectral, ["dealiased_product"])
    assert 0 < calls["dealiased_product"] <= RHS_PRODUCTS


def test_assemble_rhs_brackets_no_field_with_itself(monkeypatch):
    pairs = []
    product = spectral.dealiased_product

    def recorded(u, v):
        pairs.append((u, v))
        return product(u, v)

    monkeypatch.setattr(spectral, "dealiased_product", recorded)
    assemble_rhs(state_from_array(SPEC, TorusGrid(16),
                                  array_from_state(_state(seed=3, N=16))))
    assert pairs and not any(u is v for u, v in pairs)


def test_rhs_makes_no_reference_cycles():
    y = array_from_state(_state(seed=4, N=16))
    grid = TorusGrid(16)
    gc.collect()
    gc.disable()
    try:
        _second_order_rhs(SPEC, grid, y)
        assert gc.collect() == 0
    finally:
        gc.enable()
