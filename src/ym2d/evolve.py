"""Time evolution of the reformulated system.

Three integration paths share the assembled right-hand sides:
  * second-order method of lines (RK4 on (u, u_t) for all six unknowns),
  * half-wave first-order reduction with exponential integrators,
  * Picard/Duhamel iteration on the half-wave form (contraction witness).
A reference evolution of the potential alone (direct wave-equation expansion)
runs as a cross-validation twin beside every stepper; evolve_and_monitor is
the one driver for all of them.

Sign convention: the assembled nonlinearities (M, N) reproduce the displayed
wave equations, whose derivation from D^alpha F_{alpha beta} = 0 under the
metric diag(-1,1,1) uses the operator d^alpha d_alpha = Delta - d_t^2.  In the
(d_t^2 - Delta) convention the sign flips, so the second-order evolution is

    d_t^2 u = Delta u - RHS.

This is forced, not chosen: expanding the covariant equations gives
D^alpha F_{alpha beta} = (Delta - d_t^2) A_beta - M_beta - d_beta u + [u, A_beta]
(u the Lorenz residual), and only this sign propagates the Gauss/Lorenz
constraints and conserves energy, which the monitored runs witness.

Half-wave reduction with Lambda^2 = 1 - Delta: d_t^2 u + Lambda^2 u = u - RHS,
so the source is fixed algebraically by
d_t u_pm = +-i Lambda u_pm -+ i(2 Lambda)^{-1}(u - RHS),
which is the form consistent with the second-order system (the twin-run
agreement contract binds the implementation to it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import AlgebraSpec
from .nullforms import SpacetimePair
from .spectral import GridField, TorusGrid, weighted_hat_norm
from .ym import (
    FieldState,
    assemble_rhs,
    constraint_residuals,
    energy,
    state_from_potential,
    ym4_rhs,
)

N_COMPONENTS = 6  # A0, A1, A2, F01, F02, F12


@dataclass
class EvolveConfig:
    dt: float
    t_end: float
    stepper: str = "RK4"  # RK4 | ExpEuler | ExpRK2
    monitor_every: int = 10

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ValueError("dt must be positive and t_end nonnegative")
        if self.stepper not in ("RK4", "ExpEuler", "ExpRK2"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if self.monitor_every < 1:
            raise ValueError("monitor_every must be at least 1")


@dataclass
class DiagnosticsRecord:
    time: float
    energy: float
    lorenz: float
    gauss: float
    compat: float
    twin_diff: float = 0.0


# --- packing --------------------------------------------------------------

def array_from_state(state: FieldState) -> np.ndarray:
    comps = list(state.A) + list(state.F)
    return np.stack(
        [np.stack([p.value.values, p.time_deriv.values]) for p in comps]
    )


def _pairs_from_array(spec, grid, y) -> list:
    """One SpacetimePair per component y[c] = (value, time derivative)."""
    return [SpacetimePair(GridField(spec, grid, yc[0]), GridField(spec, grid, yc[1]))
            for yc in y]


def state_from_array(spec: AlgebraSpec, grid: TorusGrid, y: np.ndarray) -> FieldState:
    pairs = _pairs_from_array(spec, grid, y)
    return FieldState(tuple(pairs[:3]), tuple(pairs[3:]))


def _wave_dy(y, pairs, rhs) -> np.ndarray:
    """d/dt (u, u_t) = (u_t, Laplace u - RHS) per component."""
    dy = np.empty_like(y)
    for c, (p, r) in enumerate(zip(pairs, rhs)):
        dy[c, 0] = y[c, 1]
        dy[c, 1] = (p.value.laplacian() - r).values
    return dy


def _second_order_rhs(spec, grid, y) -> np.ndarray:
    st = state_from_array(spec, grid, y)
    return _wave_dy(y, st.A + st.F, assemble_rhs(st))


def _ym4_rhs_array(spec, grid, y) -> np.ndarray:
    """Reference evolution of A alone by the direct expansion."""
    A = tuple(_pairs_from_array(spec, grid, y))
    return _wave_dy(y, A, ym4_rhs(A))


def _rk4(f, y, dt):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite state after RK4 step")
    return out


def _step_second_order(spec, grid, y, dt):
    return _rk4(lambda z: _second_order_rhs(spec, grid, z), y, dt)


def step_second_order(state: FieldState, dt: float) -> FieldState:
    """One RK4 step of the full system."""
    a0 = state.A[0].value
    y = _step_second_order(a0.spec, a0.grid, array_from_state(state), dt)
    return state_from_array(a0.spec, a0.grid, y)


# --- half-wave reduction --------------------------------------------------

def to_half_wave(state: FieldState) -> np.ndarray:
    """Spectral half-wave split: hw[c, 0/1] = rhat(u_plus/minus).

    u_pm = (u +- (i Lambda)^{-1} u_t)/2, i.e. hat(u_pm) = (uhat -+ i vhat/L)/2.
    u_minus is the complex conjugate of u_plus, so the two half-planes
    (shape (6, 2, dim, N, N/2 + 1)) hold the whole spectrum of u_plus.
    """
    a0 = state.A[0].value
    lam = a0.grid.xi_bracket
    comps = list(state.A) + list(state.F)
    hw = np.empty((N_COMPONENTS, 2) + a0.rhat.shape, dtype=complex)
    for c, p in enumerate(comps):
        uh, vh = p.value.rhat, p.time_deriv.rhat
        hw[c, 0] = 0.5 * (uh - 1j * vh / lam)
        hw[c, 1] = 0.5 * (uh + 1j * vh / lam)
    return hw


def from_half_wave(spec, grid, hw: np.ndarray) -> FieldState:
    """Reconstruct (u, u_t) = (u_+ + u_-, i Lambda (u_+ - u_-))."""
    lam = grid.xi_bracket
    pairs = []
    for c in range(N_COMPONENTS):
        uh = hw[c, 0] + hw[c, 1]
        vh = 1j * lam * (hw[c, 0] - hw[c, 1])
        pairs.append(SpacetimePair(GridField.from_rhat(spec, grid, uh),
                                   GridField.from_rhat(spec, grid, vh)))
    return FieldState(tuple(pairs[:3]), tuple(pairs[3:]))


def _half_wave_source(spec, grid, hw: np.ndarray) -> np.ndarray:
    """g_pm = -+ i (2 Lambda)^{-1} (u - RHS) in spectral form."""
    lam = grid.xi_bracket
    st = from_half_wave(spec, grid, hw)
    rhs = assemble_rhs(st)
    comps = list(st.A) + list(st.F)
    g = np.empty_like(hw)
    for c in range(N_COMPONENTS):
        src = (comps[c].value.rhat - rhs[c].rhat) / (2.0 * lam)
        g[c, 0] = -1j * src
        g[c, 1] = 1j * src
    return g


def _phases(grid: TorusGrid, dt: float):
    lam = grid.xi_bracket
    ep = np.exp(1j * lam * dt)
    return ep, np.conj(ep)  # e^{+i L dt}, e^{-i L dt}


def _apply_phases(hw, ep, em):
    out = np.empty_like(hw)
    out[:, 0] = ep * hw[:, 0]
    out[:, 1] = em * hw[:, 1]
    return out


def step_half_wave(spec, grid, hw: np.ndarray, dt: float, stepper: str = "ExpRK2"):
    """One exponential-integrator step of the first-order system."""
    ep, em = _phases(grid, dt)
    g1 = _half_wave_source(spec, grid, hw)
    if stepper == "ExpEuler":
        out = _apply_phases(hw + dt * g1, ep, em)
    elif stepper == "ExpRK2":
        pred = _apply_phases(hw + dt * g1, ep, em)
        g2 = _half_wave_source(spec, grid, pred)
        out = _apply_phases(hw, ep, em) + 0.5 * dt * (
            _apply_phases(g1, ep, em) + g2
        )
    else:
        raise ValueError(f"unknown half-wave stepper {stepper!r}")
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite state after half-wave step")
    return out


# --- monitored evolution with reference twin ------------------------------

def _stepper(name: str):
    """(pack, step, view) of a stepper: pack maps a FieldState to the
    stepper's state y, step(spec, grid, y, dt) advances y by dt, and
    view(spec, grid, y) maps y back to a FieldState.  The table is built per
    call so that it sees the module's current bindings."""
    half_wave = (to_half_wave, partial(step_half_wave, stepper=name), from_half_wave)
    return {
        "RK4": (array_from_state, _step_second_order, state_from_array),
        "ExpEuler": half_wave,
        "ExpRK2": half_wave,
    }[name]


def evolve_and_monitor(state: FieldState, cfg: EvolveConfig, on_record=None):
    """Evolve the full system with cfg.stepper and the potential-only
    reference (RK4 on the direct expansion) in lock step.

    Returns a list of DiagnosticsRecord, one at step 0, every
    cfg.monitor_every steps and at the last step; twin_diff is the
    sup-norm difference of the potential components between the two runs.
    on_record, if given, is called as on_record(step_index, state) at every
    monitoring step.
    """
    a0 = state.A[0].value
    spec, grid = a0.spec, a0.grid
    pack, step, view = _stepper(cfg.stepper)
    y = pack(state)
    y_ref = array_from_state(state)[:3]
    steps = int(round(cfg.t_end / cfg.dt))
    records = []

    def record(j, st):
        lorenz, gauss, compat = constraint_residuals(st)
        twin = float(np.max(np.abs(array_from_state(st)[:3] - y_ref)))
        records.append(
            DiagnosticsRecord(j * cfg.dt, energy(st), lorenz, gauss, compat, twin)
        )
        if on_record is not None:
            on_record(j, st)

    record(0, state)
    for j in range(steps):
        y = step(spec, grid, y, cfg.dt)
        y_ref = _rk4(lambda z: _ym4_rhs_array(spec, grid, z), y_ref, cfg.dt)
        if (j + 1) % cfg.monitor_every == 0 or j == steps - 1:
            record(j + 1, view(spec, grid, y))
    return records


def records_to_csv(records, path):
    with open(path, "w") as fh:
        fh.write("t,energy,lorenz,gauss,compat,twinDiff\n")
        for rec in records:
            fh.write(
                f"{rec.time},{rec.energy},{rec.lorenz},{rec.gauss},"
                f"{rec.compat},{rec.twin_diff}\n"
            )


# --- Picard / Duhamel iteration ------------------------------------------

def _hw_norm(grid, hw, s: float, r: float) -> float:
    """Sum over components/signs of the weighted Fourier-Lebesgue norm.

    u_minus = conj(u_plus) has the norm of u_plus, so the sum is
    2 sum_c ||u_plus^c||.  The rhat lattices hw[c, 0] and hw[c, 1] each hold
    half of the spectrum of u_plus (the second mirrored), and the columns 0
    and N/2 twice, so ||u_plus||^{r'} is the mean of their column-weighted
    r'-th powers.
    """
    total = 0.0
    for c in range(hw.shape[0]):
        plus, minus = (weighted_hat_norm(grid, hw[c, pm], s, r) for pm in range(2))
        rp = r / (r - 1.0)
        total += 2.0 * (0.5 * (plus**rp + minus**rp)) ** (1.0 / rp)
    return total


def picard_iterate(
    state: FieldState,
    k: int,
    t_end: float,
    dt: float,
    s: float = 0.8,
    r: float = 2.0,
):
    """Duhamel fixed-point iteration on the half-wave form.

    u^{(0)} is the free flow of the data; u^{(m+1)}(t_j) = free(t_j) + I_j
    with I_j the trapezoid Duhamel integral of the source along u^{(m)},
    accumulated incrementally (I_j = e^{+-iL dt}(I_{j-1} + dt/2 g_{j-1})
    + dt/2 g_j).  Returns the contraction ratios
    ||u^{(m+1)} - u^{(m)}|| / ||u^{(m)} - u^{(m-1)}|| in sup_t of the
    component-summed discrete H^{s,r} norm.

    Divergence guard: three consecutive ratios above 1 raise RuntimeError.
    """
    a0 = state.A[0].value
    spec, grid = a0.spec, a0.grid
    steps = int(round(t_end / dt))
    hw0 = to_half_wave(state)
    ep, em = _phases(grid, dt)

    def free_traj():
        traj = np.empty((steps + 1,) + hw0.shape, dtype=complex)
        traj[0] = hw0
        for j in range(steps):
            traj[j + 1] = _apply_phases(traj[j], ep, em)
        return traj

    free = free_traj()
    prev = free.copy()  # u^{(0)}
    diffs = []
    ratios = []
    bad = 0
    for m in range(k):
        g_prev = _half_wave_source(spec, grid, prev[0])
        cur = np.empty_like(prev)
        cur[0] = hw0
        integral = np.zeros_like(hw0)
        for j in range(steps):
            g_next = _half_wave_source(spec, grid, prev[j + 1])
            integral = _apply_phases(integral + 0.5 * dt * g_prev, ep, em)
            integral += 0.5 * dt * g_next
            cur[j + 1] = free[j + 1] + integral
            g_prev = g_next
        d = max(
            _hw_norm(grid, cur[j] - prev[j], s, r) for j in range(steps + 1)
        )
        diffs.append(d)
        if len(diffs) >= 2:
            ratio = diffs[-1] / diffs[-2] if diffs[-2] > 0 else 0.0
            ratios.append(ratio)
            bad = bad + 1 if ratio > 1.0 else 0
            if bad >= 3:
                raise RuntimeError(f"Picard iteration diverging; ratios {ratios}")
        prev = cur
    return diffs, ratios


# --- convergence studies --------------------------------------------------

def analytic_potential(
    spec: AlgebraSpec, grid: TorusGrid, seed: int, scale: float, with_mean: bool = True
):
    """Analytic (non-band-limited) Lorenz-compatible initial data.

    Each basis coefficient is a product of exp(cos/sin) factors with random
    phases, so Fourier coefficients decay exponentially but never vanish.
    adot_0 := div(a) enforces the Lorenz constraint at t = 0.  with_mean adds
    a random constant to the spatial components; a nonzero algebra mean of
    A_i is what lets the Gauss projection absorb the torus zero mode.
    """
    rng = np.random.default_rng(seed)
    x1, x2 = grid.points
    kk = 2.0 * np.pi / grid.L

    def scalar():
        p = rng.uniform(0, 2 * np.pi, size=4)
        f = np.exp(np.cos(kk * x1 + p[0]) + np.sin(kk * x2 + p[1]))
        f *= np.cos(kk * x1 + 2 * kk * x2 + p[2] + np.sin(kk * x2 + p[3]))
        return f - np.mean(f)

    def field(mean=False):
        vals = scale * np.stack([scalar() for _ in range(spec.dim)])
        if mean:
            vals += scale * rng.uniform(-1, 1, size=spec.dim)[:, None, None]
        return GridField(spec, grid, vals)

    a = (field(), field(with_mean), field(with_mean))
    a_dot1, a_dot2 = field(), field()
    a_dot0 = a[1].dx(1) + a[2].dx(2)
    return a, (a_dot0, a_dot1, a_dot2)


def temporal_order(spec, grid, state: FieldState, dt: float, t_end: float) -> float:
    """Observed RK4 order from a Richardson triple (dt, dt/2, dt/4)."""
    sols = []
    for d in (dt, dt / 2.0, dt / 4.0):
        y = array_from_state(state)
        for _ in range(int(round(t_end / d))):
            y = _step_second_order(spec, grid, y, d)
        sols.append(y)
    e1 = float(np.max(np.abs(sols[0] - sols[1])))
    e2 = float(np.max(np.abs(sols[1] - sols[2])))
    if e2 == 0.0:
        return np.inf
    return float(np.log2(e1 / e2))


def spatial_errors(spec, seed: float, scale: float, grids, dt: float, t_end: float):
    """Evolve the same analytic data at several resolutions.

    Returns the max-norm error of each coarse run against the finest run,
    compared on the coarse grid points (grids must be nested powers of two).
    """
    sols = {}
    for N in grids:
        grid = TorusGrid(N)
        a, a_dot = analytic_potential(spec, grid, seed, scale)
        y = array_from_state(state_from_potential(a, a_dot))
        for _ in range(int(round(t_end / dt))):
            y = _step_second_order(spec, grid, y, dt)
        sols[N] = y
    finest = max(grids)
    errs = []
    for N in grids:
        if N == finest:
            continue
        stride = finest // N
        coarse_view = sols[finest][..., ::stride, ::stride]
        errs.append(float(np.max(np.abs(sols[N] - coarse_view))))
    return errs
