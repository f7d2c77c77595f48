import gc

import numpy as np
import pytest

from ym2d import evolve, planewave, spectral
from ym2d.algebra import su
from ym2d.evolve import (
    EvolveConfig,
    _hw_norm,
    _pack,
    _rk4,
    _second_order_rhs,
    _step_second_order,
    _unpack,
    _ym4_rhs_array,
    analytic_potential,
    array_from_state,
    evolve_and_monitor,
    from_half_wave,
    picard_iterate,
    records_to_csv,
    state_from_array,
    step_half_wave,
    temporal_order,
    to_half_wave,
)
from ym2d.identities import _lorenz_state
from ym2d.spectral import GridField, TorusGrid, weighted_hat_norm
from ym2d.ym import assemble_rhs, project_gauss_data, state_from_potential, ym4_rhs

SPEC = su(2)


def _state(seed=0, N=32, scale=1e-2, project=False):
    grid = TorusGrid(N)
    a, a_dot = analytic_potential(SPEC, grid, seed, scale)
    if project:
        return project_gauss_data(a, a_dot, tol=1e-10)
    return state_from_potential(a, a_dot)


def _rk4_step(state, dt):
    """One RK4 step of the full system, on the packed spectra."""
    spec, grid = state.A[0].value.spec, state.A[0].value.grid
    return _unpack(spec, grid, _step_second_order(spec, grid, _pack(state), dt))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=1e-3, t_end=1.0, stepper="Euler")
    # non-finite values, and a step count t_end/dt that overflows
    for dt, t_end in [(np.nan, 1.0), (np.inf, 1.0), (1e-3, np.inf),
                      (1e-3, np.nan), (1e-300, 1e300)]:
        with pytest.raises(ValueError):
            EvolveConfig(dt=dt, t_end=t_end)


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
        ref = _rk4_step(ref, dt)
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
        ref = _rk4_step(ref, dt)
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
            s = _rk4_step(s, 0.5)


def test_half_wave_nan_guard():
    hw = to_half_wave(_state(seed=6, scale=10.0, N=16))
    with pytest.raises(FloatingPointError):
        for _ in range(200):
            hw = step_half_wave(SPEC, TorusGrid(16), hw, 0.5)


def test_state_from_array_does_not_follow_later_writes():
    grid = TorusGrid(16)
    y = array_from_state(_state(seed=5, N=16))
    st = state_from_array(SPEC, grid, y)
    y[1, 0, 0, 0, 0] = np.nan  # the fields were built on views of y
    assert np.all(np.isfinite(st.A[1].value.values))
    assert np.all(np.isfinite(st.A[1].value.dx(1).values))


def test_picard_contracts():
    st = _state(seed=7, project=True)
    diffs, ratios = picard_iterate(st, 3, 0.1, 5e-3)
    assert len(diffs) == 3 and len(ratios) == 2
    assert all(r <= 0.5 for r in ratios)
    assert diffs[0] > diffs[1] > diffs[2]


def test_picard_source_count(monkeypatch):
    # the source at t = 0 is the same for every iterate (all start at the
    # data), so a call makes 1 + k * steps sources, not k * (steps + 1)
    st = _state(seed=2, N=16)
    k, steps = 2, 2
    calls = []
    source = evolve._half_wave_source

    def counted(*args):
        calls.append(1)
        return source(*args)

    monkeypatch.setattr(evolve, "_half_wave_source", counted)
    picard_iterate(st, k, steps * 1e-3, 1e-3)
    assert len(calls) == 1 + k * steps


def test_ym4_rhs_array_rejects_a_full_state():
    # the twin answers the three potentials only; given all six components
    # it would leave the F slots of its output unset
    y = _pack(_state(seed=3, N=16))
    with pytest.raises(ValueError):
        _ym4_rhs_array(SPEC, TorusGrid(16), y)
    assert _ym4_rhs_array(SPEC, TorusGrid(16), y[:3]).shape == y[:3].shape


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
    assert weighted_hat_norm(grid, st.A[1].value.rhat, 0.8, 1.5) > 0.0


@pytest.mark.parametrize("r", [1.5, 2.0])
def test_hw_norm_matches_full_plane(r):
    spec, grid, s = su(3), TorusGrid(32), 0.8
    a, a_dot = analytic_potential(spec, grid, 6, 1e-2)
    st = state_from_potential(a, a_dot)
    # the full-plane formula: sum over components and signs of the fft2
    # half-wave lattices' weighted l^{r'} norms
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N) * (2.0 * np.pi / grid.L)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
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


# one assemble_rhs at su(2), N = 16 from spectrum-only fields (the RK4 path):
# 13 rfft2 (one per sum of products whose spectrum is needed), 103 irfft2 (one
# per distinct product factor; a swapped bracket [A_b, A_a] or a swapped
# curvature slot F_{ab} is the factor with its sign carried to the product, so
# it is not transformed again, and the factors K_alpha(U), U in {A, d_1 A,
# d_2 A}, are made once and shared), 129 dealiased products (each null-form +
# smoother pair is the three brackets [K_alpha(U), d_alpha target]; in N_0g the
# form Q_0g[A_g, A_g] joins the self null forms as one bracket, so no unordered
# factor pair is bracketed twice), 129 finiteness checks, one per raw product
# (multiplier outputs, sums and scalar multiples of checked fields are not
# checked again), and 21 scalar multiples, none of them by +-1 (a sign goes to
# + or -, or to a factor's product).
# One ym4_rhs makes 27 brackets: each [A_a, A_b], a < b, once (3) and 8 per
# beta, the double bracket without its zero alpha = beta term.
# One RK4 stage (_second_order_rhs and the twin's _ym4_rhs_array) makes 143
# transforms: 25 rfft2 (one per sum of products whose spectrum is needed, 9
# of them for Laplace u - RHS) and 118 irfft2, all for product factors; 174
# when the stage carried point values.  A _second_order_rhs makes 152 spectrum
# multiplies, one per multiplier chain whose spectrum is needed (254 when each
# multiplier multiplied a spectrum).
RHS_TRANSFORMS = {"rfft2": 13, "irfft2": 103}
RHS_PRODUCTS = 129
RHS_REPEATED_PRODUCTS = 0
RHS_FINITENESS_CHECKS = 129
RHS_SCALAR_MULTIPLES = 21
YM4_PRODUCTS = 27
RK4_STAGE_TRANSFORMS = 143
RHS_SPECTRUM_MULTIPLIES = 152


def _rhs_state():
    return _unpack(SPEC, TorusGrid(16), _pack(_state(seed=3, N=16)))


def _count_rhs_calls(monkeypatch, owner, names, state, rhs=assemble_rhs):
    """Calls of owner.<name> made by one rhs(state)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rhs(state)
    return calls


def _rhs_products(monkeypatch):
    """The factor pairs of the dealiased products of one assemble_rhs; the
    list keeps the factors alive, so their ids stay distinct."""
    state = _rhs_state()
    pairs = []
    product = spectral.dealiased_product

    def recorded(u, v):
        pairs.append((u, v))
        return product(u, v)

    monkeypatch.setattr(spectral, "dealiased_product", recorded)
    assemble_rhs(state)
    return pairs


def test_assemble_rhs_transform_count(monkeypatch):
    calls = _count_rhs_calls(monkeypatch, np.fft, RHS_TRANSFORMS, _rhs_state())
    for name, bound in RHS_TRANSFORMS.items():
        assert 0 < calls[name] <= bound, name


def test_assemble_rhs_product_count(monkeypatch):
    # GridField.bracket looks the module-level function up at call time
    calls = _count_rhs_calls(monkeypatch, spectral, ["dealiased_product"], _rhs_state())
    assert 0 < calls["dealiased_product"] <= RHS_PRODUCTS


def test_ym4_rhs_product_count(monkeypatch):
    A = _rhs_state().A
    calls = _count_rhs_calls(monkeypatch, spectral, ["dealiased_product"], A, ym4_rhs)
    assert 0 < calls["dealiased_product"] <= YM4_PRODUCTS


def test_assemble_rhs_finiteness_check_count(monkeypatch):
    calls = _count_rhs_calls(monkeypatch, spectral, ["_check_lattice"], _rhs_state())
    assert 0 < calls["_check_lattice"] <= RHS_FINITENESS_CHECKS


def test_assemble_rhs_scalar_multiple_count(monkeypatch):
    calls = _count_rhs_calls(monkeypatch, GridField, ["__mul__", "__rmul__"], _rhs_state())
    assert 0 < sum(calls.values()) <= RHS_SCALAR_MULTIPLES


def test_rk4_stage_transform_count(monkeypatch):
    grid = TorusGrid(16)
    y = _pack(_state(seed=3, N=16))

    def stage(_):
        _second_order_rhs(SPEC, grid, y)
        _ym4_rhs_array(SPEC, grid, y[:3])

    calls = _count_rhs_calls(monkeypatch, np.fft, ["rfft2", "irfft2"], None, stage)
    assert 0 < sum(calls.values()) <= RK4_STAGE_TRANSFORMS


def test_second_order_rhs_spectrum_multiply_count(monkeypatch):
    # a field's spectrum is root * chain_array(chain), made once on first use,
    # so each chain_array call is one spectrum multiply
    grid, y = TorusGrid(16), _pack(_state(seed=3, N=16))
    calls = _count_rhs_calls(monkeypatch, TorusGrid, ["chain_array"], None,
                             lambda _: _second_order_rhs(SPEC, grid, y))
    assert 0 < calls["chain_array"] <= RHS_SPECTRUM_MULTIPLIES


def _values_rk4_rhs(spec, grid, y):
    """The RK4 right-hand side on point values, as the values-carrying RK4
    path made it: the reference for the path on spectra."""
    st = state_from_array(spec, grid, y)
    dy = np.empty_like(y)
    for c, (p, r) in enumerate(zip(st.A + st.F, assemble_rhs(st), strict=True)):
        dy[c, 0] = y[c, 1]
        dy[c, 1] = (p.value.laplacian() - r).values
    return dy


def test_rk4_on_spectra_matches_the_values_path():
    grid, dt = TorusGrid(16), 1e-2
    st = _state(seed=2, N=16, scale=1e-1)
    y = array_from_state(st)
    for _ in range(10):
        st = _rk4_step(st, dt)
        y = _rk4(lambda z: _values_rk4_rhs(SPEC, grid, z), y, dt)
    got = array_from_state(st)
    assert np.max(np.abs(got - y)) <= 1e-14 * np.max(np.abs(y))


def test_assemble_rhs_brackets_no_field_with_itself(monkeypatch):
    pairs = _rhs_products(monkeypatch)
    assert pairs and not any(u is v for u, v in pairs)


def test_assemble_rhs_repeats_few_products(monkeypatch):
    pairs = _rhs_products(monkeypatch)
    distinct = {frozenset((id(u), id(v))) for u, v in pairs}
    assert len(pairs) - len(distinct) <= RHS_REPEATED_PRODUCTS


def test_plane_wave_and_grid_rhs_make_the_same_products(monkeypatch):
    # both field types run the one assemble_rhs, so they bracket alike; the
    # plane-wave state is built first, since building it brackets too
    pw_state = _lorenz_state(SPEC, 0, 0.3, 4)
    pw = _count_rhs_calls(monkeypatch, planewave, ["pw_product"], pw_state)
    grid = _count_rhs_calls(monkeypatch, spectral, ["dealiased_product"], _rhs_state())
    assert pw["pw_product"] == grid["dealiased_product"] > 0


def test_rhs_makes_no_reference_cycles():
    y = _pack(_state(seed=4, N=16))
    grid = TorusGrid(16)
    gc.collect()
    gc.disable()
    try:
        _second_order_rhs(SPEC, grid, y)
        _ym4_rhs_array(SPEC, grid, y[:3])
        # a composed chain keeps the root spectrum, not the field it came from
        u = _unpack(SPEC, grid, y).A[1].value
        chain = u.riesz(1).dx(2).lambda_pow(-2.0).dealias()
        assert chain._root is u.rhat
        chain.values
        del u, chain
        assert gc.collect() == 0
    finally:
        gc.enable()
