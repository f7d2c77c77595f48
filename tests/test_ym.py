import numpy as np
import pytest

from ym2d import spectral
from ym2d.algebra import bracket_coeffs, so, su
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


def _sup(f):
    """Max over points of the Frobenius norm of the coefficients."""
    return float(np.max(np.sqrt(np.sum(f.values**2, axis=0))))


def _zero_state(spec, grid):
    zeros = tuple(GridField(spec, grid, np.zeros((spec.dim, grid.N, grid.N)))
                  for _ in range(3))
    return state_from_potential(zeros, zeros)


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
    assert _sup(st.f(1, 1).value) == 0.0
    assert _sup(st.f(1, 1).time_deriv) == 0.0


def test_state_from_potential_is_curvature_compatible():
    st = _grid_state()
    assert constraint_residuals(st)[2] < 1e-13
    # and the Lorenz condition holds by construction of the analytic data
    assert constraint_residuals(st)[0] < 1e-12


def test_pure_gauge_has_zero_curvature():
    """A_i = -(d_i U) U^{-1}, A_0 = 0 is a gauge transform of zero."""
    grid = TorusGrid(64)
    U = _gauge_matrices(grid, seed=1, scale=0.2)
    st = gauge_transform(_zero_state(SPEC, grid), U)
    fc = curvature(st.A)
    assert max(_sup(f) for f in fc) < 1e-8


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
        assert _sup(diff) < 1e-8
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


def test_gauge_transform_rejects_unitary_u_outside_the_group():
    """A unitary U outside SU(n) / SO(n) is rejected: the projection onto the
    algebra basis would silently drop the part of -(dU) U^{-1} outside the
    algebra, and both transforms of zero below would read exactly zero."""
    grid = TorusGrid(16)
    x1, _ = grid.points
    # U = e^{i sin x1} I: unitary, |det U - 1| up to 1.68, -(dU) U^{-1} = -i cos x1 I
    U = np.exp(1j * np.sin(x1))[..., None, None] * np.eye(2)
    with pytest.raises(ValueError, match="det U - 1"):
        gauge_transform(_zero_state(SPEC, grid), U)
    # so(3) with the complex unitary U = diag(e^{i x1}, e^{-i x1}, 1), det U = 1
    U = np.zeros((16, 16, 3, 3), dtype=complex)
    U[..., 0, 0], U[..., 1, 1], U[..., 2, 2] = np.exp(1j * x1), np.exp(-1j * x1), 1.0
    with pytest.raises(ValueError, match="Im U"):
        gauge_transform(_zero_state(so(3), grid), U)


def test_gauge_transform_derivative_on_commuting_generators():
    """U = exp(phi E_1) commutes with its derivatives, so the transform of
    zero is A_0 = 0, A_i = -(d_i phi) E_1 (measured error at N = 64: 6.3e-14
    for i = 1, 2.3e-14 for i = 2, against |d phi| = 2.3)."""
    from scipy.linalg import expm

    grid = TorusGrid(64)
    x1, x2 = grid.points
    phi = 0.8 * np.sin(x1 + 2.0 * x2) + 0.5 * np.cos(3.0 * x1 - x2)
    dphi = (0.8 * np.cos(x1 + 2.0 * x2) - 1.5 * np.sin(3.0 * x1 - x2),
            1.6 * np.cos(x1 + 2.0 * x2) + 0.5 * np.sin(3.0 * x1 - x2))
    st = gauge_transform(_zero_state(SPEC, grid), expm(phi[..., None, None] * SPEC.basis[0]))
    assert _sup(st.A[0].value) == 0.0
    for i in (1, 2):
        want = np.zeros((SPEC.dim, 64, 64))
        want[0] = -dphi[i - 1]
        assert np.max(np.abs(st.A[i].value.values - want)) < 2e-13


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


@pytest.mark.parametrize("spec,N", [(su(2), 16), (su(2), 64), (su(3), 32)],
                         ids=["su2-N16", "su2-N64", "su3-N32"])
def test_project_gauss_data_reaches_tolerance_on_every_seed(spec, N):
    # at N = 16 the data has Nyquist content, where the derivative symbols
    # vanish: the preconditioner inverts the Laplacian they make.  The solve
    # reaches the torus zero mode through the brackets, so no seed stalls
    grid = TorusGrid(N)
    for seed in range(40):
        a, a_dot = analytic_potential(spec, grid, seed, 1e-2)
        assert constraint_residuals(project_gauss_data(a, a_dot))[1] <= 1e-10, seed


@pytest.mark.parametrize("spec,N", [(su(2), 32), (su(3), 32), (so(4), 16)],
                         ids=["su2-N32", "su3-N32", "so4-N16"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_gauss_data_zero_mean_data(spec, N, seed):
    # with zero algebra mean of A_i no constant shift absorbs the mean of g;
    # the solve reaches the zero mode through the brackets
    a, a_dot = analytic_potential(spec, TorusGrid(N), seed, 1e-2, with_mean=False)
    assert constraint_residuals(project_gauss_data(a, a_dot))[1] <= 1e-10


def test_project_gauss_data_moves_only_f_i0():
    a, a_dot = analytic_potential(su(3), TorusGrid(32), 1, 1e-2)
    st = project_gauss_data(a, a_dot)
    for i in range(3):
        assert np.array_equal(st.A[i].value.values, a[i].values)
    assert np.array_equal(st.A[0].time_deriv.values, a_dot[0].values)


def test_project_gauss_data_is_idempotent():
    a, a_dot = analytic_potential(SPEC, TorusGrid(32), 3, 1e-2)
    st = project_gauss_data(a, a_dot)
    again = project_gauss_data(tuple(p.value for p in st.A),
                               tuple(p.time_deriv for p in st.A))
    for i in (1, 2):
        f, g = (s.f(0, i).value.values for s in (st, again))
        assert np.max(np.abs(g - f)) <= 1e-15 * np.max(np.abs(f))


def test_project_gauss_data_requires_grid_fields():
    a = lorenz_compatible(SPEC, 2, rng_seed=0)
    with pytest.raises(TypeError):
        project_gauss_data(a, tuple(u.dt() for u in a))


@pytest.mark.parametrize("spec", [su(2), su(3), so(3), so(4)],
                         ids=["2", "3", "so3", "so4"])
def test_assembled_rhs_matches_eager_transforms(spec, monkeypatch):
    grid = TorusGrid(16)
    # scale 0.1 at N = 16: strong brackets and content at the Nyquist frequencies
    a, a_dot = analytic_potential(spec, grid, 2, 1e-1)

    def fields():
        st = state_from_potential(a, a_dot)
        comps = list(st.A) + list(st.F)
        return [p.value for p in comps] + [p.time_deriv for p in comps] + list(
            assemble_rhs(st))

    lazy = [f.values for f in fields()]

    def eager(self, kind, param=None):
        # a values-only result: the next link transforms forward again, so no
        # chain of multipliers is composed
        N = self.grid.N
        m = self.grid.chain_array(((kind, param),))
        vals = np.fft.irfft2(self.rhat * m, s=(N, N), axes=(-2, -1)) * N**2
        return GridField(self.spec, self.grid, vals)

    def eager_product(u, v):
        # each product masked and transformed at once, as a spectrum-only field
        w = bracket_coeffs(u.spec, u.dealias().values, v.dealias().values)
        rhat = np.fft.rfft2(w, axes=(-2, -1), norm="forward") * u.grid.dealias_mask
        return GridField(u.spec, u.grid, rhat=rhat)

    monkeypatch.setattr(GridField, "_apply_symbol", eager)
    monkeypatch.setattr(spectral, "dealiased_product", eager_product)
    for got, f in zip(lazy, fields()):
        want = f.values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
