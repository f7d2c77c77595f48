import numpy as np
import pytest

from ym2d.algebra import su
from ym2d.nullforms import (
    Q_KINDS,
    SpacetimePair,
    null_form,
    sin_angle,
    symbol_eval,
)
from ym2d.planewave import PlaneWaveField


def _wave(tau, xi, seed=0, n=2):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SpacetimePair.from_planewave(PlaneWaveField.from_modes(n, [(tau, xi, c)]))


def _coeff(field):
    return next(iter(field.modes.values()))


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
