import numpy as np
import pytest

from ym2d.planewave import (
    PlaneWaveField,
    lorenz_compatible,
    pw_product,
    random_field,
)


def _mode(n=2, tau=1.5, xi=(1.0, -2.0), seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return PlaneWaveField.from_modes(n, [(tau, xi, c)])


def test_canonicalization_merges_and_drops():
    c = np.ones((2, 2), dtype=complex)
    u = PlaneWaveField.from_modes(
        2, [(1.0, (1.0, 0.0), c), (1.0, (1.0, 0.0), -c), (2.0, (0.0, 1.0), c)]
    )
    assert u.mode_count == 1
    assert (u - PlaneWaveField.from_modes(2, [(2.0, (0.0, 1.0), c)])).norm() == 0


def test_linear_structure():
    u, v = _mode(seed=1), _mode(tau=-0.5, xi=(0.0, 3.0), seed=2)
    w = 2.0 * u + v - u
    assert (w - (u + v)).norm() < 1e-14
    assert (u - u).is_zero()


def test_calculus_exact_on_single_mode():
    tau, xi = 1.25, (2.0, -1.0)
    u = _mode(tau=tau, xi=xi, seed=3)
    c = next(iter(u.modes.values()))
    for deriv, factor in (
        (u.dt(), 1j * tau),
        (u.dx(1), 1j * xi[0]),
        (u.dx(2), 1j * xi[1]),
        (u.lambda_pow(-1.0), (1.0 + xi[0] ** 2 + xi[1] ** 2) ** -0.5),
        (u.d_pow(1.0), np.hypot(*xi)),
    ):
        got = next(iter(deriv.modes.values()))
        assert np.max(np.abs(got - factor * c)) < 1e-13


def test_d_pow_negative_annihilates_zero_mode():
    c = np.ones((2, 2), dtype=complex)
    u = PlaneWaveField.from_modes(2, [(1.0, (0.0, 0.0), c)])
    assert u.d_pow(-1.0).is_zero()


def test_sample_consistent_with_derivative():
    u = _mode(seed=4)
    x1 = np.array([0.3, 1.1])
    x2 = np.array([-0.2, 0.7])
    h = 1e-6
    fd = (u.sample(h, x1, x2) - u.sample(-h, x1, x2)) / (2 * h)
    assert np.max(np.abs(fd - u.dt().sample(0.0, x1, x2))) < 1e-7


def test_pw_product_is_exact_convolution():
    u = _mode(tau=1.0, xi=(1.0, 0.0), seed=5)
    v = _mode(tau=0.5, xi=(0.0, 2.0), seed=6)
    w = pw_product(u, v, "bracket")
    assert w.mode_count == 1
    (tau, x1, x2), c = next(iter(w.modes.items()))
    assert (tau, x1, x2) == (1.5, 1.0, 2.0)
    cu = next(iter(u.modes.values()))
    cv = next(iter(v.modes.values()))
    assert np.max(np.abs(c - (cu @ cv - cv @ cu))) < 1e-13


def test_random_field_reproducible():
    from ym2d.algebra import su

    a = random_field(su(2), 4, np.random.default_rng(11))
    b = random_field(su(2), 4, np.random.default_rng(11))
    assert (a - b).norm() == 0.0
    assert a.mode_count > 0


def test_lorenz_compatible_data():
    from ym2d.algebra import su

    a0, a1, a2 = lorenz_compatible(su(2), 4, rng_seed=7)
    # d^alpha A_alpha = -dt A0 + d1 A1 + d2 A2
    assert (-1.0 * a0.dt() + a1.dx(1) + a2.dx(2)).norm() < 1e-10


def test_coefficient_shape_validated():
    with pytest.raises(ValueError):
        PlaneWaveField.from_modes(2, [(1.0, (0.0, 0.0), np.ones((3, 3)))])
