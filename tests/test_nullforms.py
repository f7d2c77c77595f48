import numpy as np
import pytest

from ym2d.algebra import so, su
from ym2d.estimates import _angle_between
from ym2d.nullforms import (
    MULTIPLIER_SYMBOLS,
    Q_KINDS,
    SpacetimePair,
    angle_bracket,
    calligraphic_q,
    null_form,
)
from ym2d.planewave import KEY_DECIMALS, PlaneWaveField, random_field
from ym2d.spectral import GridField, TorusGrid


def _wave(tau, xi, seed=0, n=2):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SpacetimePair.from_planewave(PlaneWaveField.from_modes(n, [(tau, xi, c)]))


def _coeff(field):
    return field.coeffs[0]


def _symbol(kind, xi, tau, eta, lam):
    """Fourier symbol of Q0, Q0i or Q12 at ((tau, xi), (lam, eta)): the
    plane-wave coefficient factor tau lam - xi . eta for Q0, and for Q_{ab}
    the symbol with the i^2 = -1 of the two derivatives stripped."""
    if kind == "Q0":
        return tau * lam - float(np.dot(xi, eta))
    if kind == "Q12":
        return xi[0] * eta[1] - xi[1] * eta[0]
    i = {"Q01": 0, "Q02": 1}[kind]
    return tau * eta[i] - lam * xi[i]


@pytest.mark.parametrize("i", [0, 3])
def test_spatial_multipliers_reject_bad_index(i):
    """dx and riesz take the spatial index 1 or 2 on every field type (a grid
    field used to treat any other index as 2)."""
    values = np.random.default_rng(0).standard_normal((3, 16, 16))
    g = GridField(su(2), TorusGrid(16), values)
    pw = _wave(1.0, (1.0, 2.0))
    for f in (g, SpacetimePair(g, g), pw.value, pw):
        for multiplier in (f.dx, f.riesz):
            with pytest.raises(ValueError):
                multiplier(i)
    for kind in ("derivative", "riesz"):
        with pytest.raises(ValueError):
            g.grid.multiplier_array(kind, i)


# one parameter per shared symbol, several for the powers
SYMBOL_PARAMS = {"derivative": (1, 2), "riesz": (1, 2), "lambda_pow": (-2.0, -1.0, 0.5),
                 "d_pow": (-1.0, 0.0, 1.0), "laplacian": (None,)}


def test_plane_wave_and_grid_evaluate_one_symbol_table():
    """Every shared multiplier symbol, evaluated by PlaneWaveField at an
    integer frequency, equals the grid's lattice entry there (interior
    columns, where the lattice needs no real-to-real part)."""
    assert set(SYMBOL_PARAMS) == set(MULTIPLIER_SYMBOLS)
    N = 16
    grid = TorusGrid(N)
    rows = np.arange(-N // 2, N // 2)
    modes = [(0.0, (float(k1), float(k2)), np.eye(2)) for k1 in rows for k2 in range(1, N // 2)]
    u = PlaneWaveField.from_modes(2, modes)
    for kind, params in SYMBOL_PARAMS.items():
        for param in params:
            lattice = grid.multiplier_array(kind, param)
            v = u._apply_symbol(kind, param)  # drops the modes a symbol zeroes
            k1, k2 = v.freqs[:, 1].astype(int), v.freqs[:, 2].astype(int)
            assert np.array_equal(v.coeffs[:, 0, 0], lattice[k1 % N, k2]), (kind, param)
            assert v.mode_count == np.count_nonzero(lattice[:, 1:N // 2]), (kind, param)


@pytest.mark.parametrize("kind", ["Q0", "Q01", "Q02", "Q12"])
def test_null_form_symbol_on_single_modes(kind):
    """Q(u, v) on e^{i(tau t + xi x)}, e^{i(lam t + eta x)} is the product
    mode scaled by -symbol(kind) and bracketed."""
    tau, xi = 1.3, (2.0, -1.0)
    lam, eta = -0.7, (1.0, 3.0)
    u, v = _wave(tau, xi, seed=1), _wave(lam, eta, seed=2)
    w = null_form(kind, u, v)
    cu, cv = _coeff(u.value), _coeff(v.value)
    sym = _symbol(kind, xi, tau, eta, lam)
    # i^2 from the two derivatives: Q_{ab} picks up -sym, Q0 picks up +sym
    sign = 1.0 if kind == "Q0" else -1.0
    expect = sign * sym * (cu @ cv - cv @ cu)
    assert np.max(np.abs(_coeff(w) - expect)) < 1e-12


@pytest.mark.parametrize("spec", [su(2), su(3), so(4)], ids=["su2", "su3", "so4"])
@pytest.mark.parametrize("commutator", [True, False])
def test_calligraphic_q_is_the_named_null_form(spec, commutator):
    """The three regrouped products equal -Q12[R1 u2 - R2 u1, v]
    - sum_i Q0i[R_i u0, v] built from the named forms."""
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u0, u1, u2, v = (SpacetimePair.from_planewave(random_field(spec, 3, rng, scale=0.5))
                         for _ in range(4))
        want = -1.0 * null_form("Q12", u2.riesz(1) - u1.riesz(2), v, commutator)
        for i in (1, 2):
            want = want - null_form(f"Q0{i}", u0.riesz(i), v, commutator)
        assert want.norm() > 1e-3
        assert (calligraphic_q(u0, u1, u2, v, commutator) - want).norm() <= 1e-12


def test_commutator_null_form_swap_symmetry():
    """Symbol parity times bracket antisymmetry: Q0 flips sign under
    argument swap, Q12 is invariant."""
    u, v = _wave(1.0, (1.0, 2.0), seed=3), _wave(2.0, (0.0, 1.0), seed=4)
    assert (null_form("Q0", u, v) + null_form("Q0", v, u)).norm() < 1e-12
    assert (null_form("Q12", u, v) - null_form("Q12", v, u)).norm() < 1e-12


def test_symbol_vanishes_on_parallel_null_frequencies():
    # tau = |xi|, lam = |eta|, xi parallel to eta: all null symbols vanish
    xi = (3.0, 4.0)
    eta = (1.5, 2.0)
    tau, lam = 5.0, 2.5
    u, v = _wave(tau, xi, seed=5), _wave(lam, eta, seed=6)
    for kind in ("Q0", "Q12", "Q01", "Q02"):
        assert null_form(kind, u, v).norm() < 1e-12


def test_lowercase_kinds_pre_apply_homogeneous_smoothing():
    xi, eta = (2.0, 0.0), (0.0, 3.0)
    tau, lam = 1.0, -1.0
    u, v = _wave(tau, xi, seed=7), _wave(lam, eta, seed=8)
    big, small = null_form("Q12", u, v), null_form("q12", u, v)
    assert big.norm() > 1.0
    assert (small - big * (1.0 / (2.0 * 3.0))).norm() < 1e-13
    assert set(("q0", "q01", "q02", "q12")).issubset(Q_KINDS)


def test_q0_sec7_symbol_positive():
    # on the Klein-Gordon characteristic tau = <xi>, lam = <eta> the Q0
    # factor tau lam - xi.eta is <xi><eta> - xi.eta >= 1 (Cauchy-Schwarz),
    # up to the rounding of the stored frequencies to KEY_DECIMALS
    def factor(xi, eta, seed):
        tau, lam = float(angle_bracket(*xi)), float(angle_bracket(*eta))
        u, v = _wave(tau, xi, seed=seed), _wave(lam, eta, seed=seed + 1)
        cu, cv = _coeff(u.value), _coeff(v.value)
        comm = cu @ cv - cv @ cu
        w = _coeff(null_form("Q0", u, v))
        f = np.vdot(comm, w) / np.vdot(comm, comm)
        assert np.max(np.abs(w - f * comm)) < 1e-12
        (tu, *xu), (tv, *xv) = u.value.freqs[0], v.value.freqs[0]
        assert abs(f - (tu * tv - float(np.dot(xu, xv)))) < 1e-12 * abs(f)
        sizes = np.abs(np.concatenate(([tau, lam], xi, eta)))
        return float(np.real(f)), float(np.sum(sizes)) * 10.0 ** -KEY_DECIMALS

    f, tol = factor((1.0, 0.0), (0.0, 1.0), 9)
    assert abs(f - 2.0) <= tol
    rng = np.random.default_rng(0)
    for k in range(20):
        xi, eta = rng.standard_normal(2) * 5.0, rng.standard_normal(2) * 5.0
        f, tol = factor(tuple(xi), tuple(eta), 10 + 2 * k)
        assert f >= 1.0 - tol


def test_sin_angle_range_and_known_values():
    """The angle of the angle estimate lies in [0, pi] and its sine is the
    |xi1 eta2 - xi2 eta1| / (|xi| |eta|) of the Gamma^1 angle term."""
    assert _angle_between(1.0, 0.0, 0.0, 2.0) == pytest.approx(np.pi / 2)
    assert _angle_between(-1.0, 0.0, 2.0, 0.0) == pytest.approx(np.pi)
    # arccos near 1: a rounding of the cosine moves the angle by ~ sqrt(eps)
    assert _angle_between(1.0, 1.0, 2.0, 2.0) == pytest.approx(0.0, abs=1e-7)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 2, 50))
    angle = _angle_between(a[0], a[1], b[0], b[1])
    assert np.all((angle >= 0.0) & (angle <= np.pi))
    sin = np.abs(a[0] * b[1] - a[1] * b[0]) / (np.hypot(*a) * np.hypot(*b))
    assert np.max(np.abs(np.sin(angle) - sin)) < 1e-12
