import numpy as np
import pytest

from ym2d import spectral
from ym2d.algebra import bracket_coeffs, su
from ym2d.evolve import analytic_potential
from ym2d.nullforms import SpacetimePair
from ym2d.planewave import lorenz_compatible
from ym2d.spectral import GridField, TorusGrid
from ym2d.ym import (
    FieldState,
    assemble_rhs,
    constraint_residuals,
    curvature,
    energy,
    gauge_transform,
    project_gauss_data,
    state_from_potential,
)

SPEC = su(2)


def _grid_state(seed=0, N=32, scale=1e-2):
    grid = TorusGrid(N)
    a, a_dot = analytic_potential(SPEC, grid, seed, scale)
    return state_from_potential(a, a_dot)


def _gauge_matrices(grid, seed=0, scale=0.5):
    """Pointwise SU(2) field U(x) = exp(sum_a phi_a(x) E_a), smooth in x."""
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    x1, x2 = grid.points
    mats = np.zeros((grid.N, grid.N, SPEC.n, SPEC.n), dtype=complex)
    for a in range(SPEC.dim):
        p = rng.uniform(0, 2 * np.pi, size=2)
        phi = scale * np.cos(x1 + p[0]) * np.cos(x2 + p[1])
        mats += phi[..., None, None] * SPEC.basis[a]
    U = np.zeros_like(mats)
    for i in range(grid.N):
        for j in range(grid.N):
            U[i, j] = expm(mats[i, j])
    return U


def test_curvature_antisymmetry_and_zero_diagonal():
    st = _grid_state()
    for b in range(3):
        for g in range(3):
            fb = st.f(b, g).value
            fg = st.f(g, b).value
            assert np.max(np.abs(fb.values + fg.values)) < 1e-14
    assert st.f(1, 1).value.sup_norm() == 0.0
    assert st.f(1, 1).time_deriv.sup_norm() == 0.0


def test_state_from_potential_is_curvature_compatible():
    st = _grid_state()
    assert constraint_residuals(st)[2] < 1e-13
    # and the Lorenz condition holds by construction of the analytic data
    assert constraint_residuals(st)[0] < 1e-12


def test_pure_gauge_has_zero_curvature():
    """A_i = -(d_i U) U^{-1}, A_0 = 0 is a gauge transform of zero."""
    grid = TorusGrid(64)
    U = _gauge_matrices(grid, seed=1, scale=0.2)
    zero = state_from_potential(
        tuple(GridField.zero(SPEC, grid) for _ in range(3)),
        tuple(GridField.zero(SPEC, grid) for _ in range(3)),
    )
    st = gauge_transform(zero, U)
    fc = curvature(st.A)
    assert max(f.sup_norm() for f in fc) < 1e-8


def test_gauge_equivariance_of_curvature_and_energy():
    grid = TorusGrid(64)
    a, a_dot = analytic_potential(SPEC, grid, 2, 1e-2)
    st = state_from_potential(a, a_dot)
    U = _gauge_matrices(grid, seed=3, scale=0.2)
    st2 = gauge_transform(st, U)
    # curvature of the transformed potential = conjugated curvature
    fc2 = curvature(st2.A)
    for k in range(3):
        diff = fc2[k] - st2.F[k].value
        assert diff.sup_norm() < 1e-8
    e1, e2 = energy(st), energy(st2)
    assert abs(e1 - e2) < 1e-8 * max(e1, 1.0)


def test_gauge_transform_rejects_non_unitary():
    grid = TorusGrid(16)
    st = _grid_state(N=16)
    U = np.zeros((16, 16, 2, 2), dtype=complex)
    U[..., 0, 0] = 2.0
    U[..., 1, 1] = 2.0
    with pytest.raises(ValueError):
        gauge_transform(st, U)


def test_constraint_residuals_on_planewave_lorenz_data():
    a = lorenz_compatible(SPEC, 4, rng_seed=5, scale=0.3)
    pairs = tuple(SpacetimePair.from_planewave(u) for u in a)
    f = curvature(pairs)
    fp = tuple(SpacetimePair.from_planewave(v) if hasattr(v, "dt") else v for v in f)
    st = FieldState(pairs, fp)
    lorenz, _, compat = constraint_residuals(st)
    assert lorenz < 1e-12
    assert compat < 1e-12


def test_project_gauss_data_reaches_tolerance():
    grid = TorusGrid(32)
    a, a_dot = analytic_potential(SPEC, grid, 6, 1e-2)
    st = project_gauss_data(a, a_dot, tol=1e-10)
    lorenz, gauss, compat = constraint_residuals(st)
    assert gauss <= 1e-10
    assert compat < 1e-12
    assert lorenz < 1e-12
    assert energy(st) > 0.0


def test_project_gauss_data_requires_grid_fields():
    a = lorenz_compatible(SPEC, 2, rng_seed=0)
    with pytest.raises(TypeError):
        project_gauss_data(a, tuple(u.dt() for u in a))


@pytest.mark.parametrize("n", [2, 3])
def test_assembled_rhs_matches_eager_transforms(n, monkeypatch):
    spec, grid = su(n), TorusGrid(16)
    # scale 0.1 at N = 16: strong brackets and content at the Nyquist frequencies
    a, a_dot = analytic_potential(spec, grid, 2, 1e-1)

    def fields():
        st = state_from_potential(a, a_dot)
        comps = list(st.A) + list(st.F)
        return [p.value for p in comps] + [p.time_deriv for p in comps] + list(
            assemble_rhs(st))

    lazy = [f.values for f in fields()]

    def eager(self, m, truncates=False):
        # a values-only result: the next link transforms forward again
        N = self.grid.N
        vals = np.fft.irfft2(self.rhat * m, s=(N, N), axes=(-2, -1)) * N**2
        return GridField(self.spec, self.grid, vals)

    def eager_product(u, v):
        # each product masked and transformed at once, as a spectrum-only field
        w = bracket_coeffs(u.spec, u.dealias().values, v.dealias().values)
        rhat = np.fft.rfft2(w, axes=(-2, -1), norm="forward") * u.grid.dealias_mask
        return GridField(u.spec, u.grid, rhat=rhat, truncated=True)

    monkeypatch.setattr(GridField, "_apply_symbol", eager)
    monkeypatch.setattr(spectral, "dealiased_product", eager_product)
    for got, f in zip(lazy, fields()):
        want = f.values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
