import numpy as np
import pytest

from ym2d.algebra import so, su
from ym2d.nullforms import (
    MULTIPLIER_SYMBOLS,
    Q_KINDS,
    SpacetimePair,
    calligraphic_q,
    null_form,
    sin_angle,
    symbol_eval,
)
from ym2d.planewave import PlaneWaveField, random_field
from ym2d.spectral import GridField, TorusGrid


def _wave(tau, xi, seed=0, n=2):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SpacetimePair.from_planewave(PlaneWaveField.from_modes(n, [(tau, xi, c)]))


def _coeff(field):
    return field.coeffs[0]


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
    sym = symbol_eval(kind, xi, tau=tau, eta=eta, lam=lam)
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
    for kind in ("Q0", "Q12", "Q01", "Q02"):
        assert abs(symbol_eval(kind, xi, tau=tau, eta=eta, lam=lam)) < 1e-12


def test_lowercase_kinds_pre_apply_homogeneous_smoothing():
    xi, eta = (2.0, 0.0), (0.0, 3.0)
    tau, lam = 1.0, -1.0
    big = symbol_eval("Q12", xi, tau=tau, eta=eta, lam=lam)
    small = symbol_eval("q12", xi, tau=tau, eta=eta, lam=lam)
    assert abs(small - big / (2.0 * 3.0)) < 1e-13
    assert set(("q0", "q01", "q02", "q12")).issubset(Q_KINDS)


def test_q0_sec7_symbol_positive():
    # <xi><eta> - xi.eta >= 1 for nonparallel lattice modes
    v = symbol_eval("q0_sec7", (1.0, 0.0), eta=(0.0, 1.0))
    assert v == pytest.approx(np.sqrt(2.0) * np.sqrt(2.0), rel=1e-12)


def test_sin_angle_range_and_known_values():
    assert sin_angle((1.0, 0.0), (0.0, 2.0)) == pytest.approx(1.0)
    assert sin_angle((1.0, 1.0), (2.0, 2.0)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        s = sin_angle(tuple(a), tuple(b))
        assert -1e-12 <= s <= 1.0 + 1e-12
