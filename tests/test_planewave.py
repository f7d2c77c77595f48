import numpy as np
import pytest

from ym2d import planewave
from ym2d.algebra import random_element, so, su
from ym2d.planewave import (
    COEFF_TOL,
    KEY_DECIMALS,
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
    c = u.coeffs[0]
    for deriv, factor in (
        (u.dt(), 1j * tau),
        (u.dx(1), 1j * xi[0]),
        (u.dx(2), 1j * xi[1]),
        (u.lambda_pow(-1.0), (1.0 + xi[0] ** 2 + xi[1] ** 2) ** -0.5),
        (u.d_pow(1.0), np.hypot(*xi)),
    ):
        got = deriv.coeffs[0]
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
    assert w.freqs.tolist() == [[1.5, 1.0, 2.0]]
    cu, cv = u.coeffs[0], v.coeffs[0]
    assert np.max(np.abs(w.coeffs[0] - (cu @ cv - cv @ cu))) < 1e-13


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


# --- reference: the mode sums as dicts keyed by rounded frequency -----------
# The dict algorithm the arrays replaced; terms are summed in the same order,
# so keys and coefficients must agree exactly.

def _dict_sum(terms):
    acc = {}
    for k, c in terms:
        k = tuple(round(float(x), KEY_DECIMALS) for x in k)
        acc[k] = acc.get(k, 0) + np.asarray(c, dtype=complex)
    return {k: acc[k] for k in sorted(acc) if np.max(np.abs(acc[k])) > COEFF_TOL}


def _dict_from_modes(mode_list):
    return _dict_sum(((tau, *xi), c) for tau, xi, c in mode_list)


def _dict_product(du, dv, kind):
    return _dict_sum(
        (tuple(a + b for a, b in zip(k1, k2)),
         c1 @ c2 - c2 @ c1 if kind == "bracket" else c1 @ c2)
        for k1, c1 in du.items() for k2, c2 in dv.items())


def _dict_rescale(du, lam):
    return _dict_sum((tuple(lam * x for x in k), c) for k, c in du.items())


def _assert_same(field, modes):
    assert [tuple(k) for k in field.freqs.tolist()] == list(modes)
    assert not np.any(np.signbit(field.freqs) & (field.freqs == 0.0))
    for c, want in zip(field.coeffs, modes.values()):
        assert np.array_equal(c, want)


def _coarse_modes(spec, count, rng):
    """Modes on a coarse frequency lattice, so that products merge modes."""
    return [(1.1 * float(rng.choice([-1.0, -0.5, 0.5, 1.0])),
             tuple(float(x) for x in rng.integers(-1, 2, size=2)),
             spec.to_matrix(random_element(spec, int(rng.integers(0, 2**31)), 1.0)))
            for _ in range(count)]


@pytest.mark.parametrize("spec", [su(2), su(3), so(4)], ids=str)
def test_arrays_match_the_dict_algorithm(spec):
    rng = np.random.default_rng(0)
    for _ in range(10):
        mu, mv = (_coarse_modes(spec, int(rng.integers(1, 7)), rng) for _ in range(2))
        u, v = (PlaneWaveField.from_modes(spec.n, m) for m in (mu, mv))
        du, dv = _dict_from_modes(mu), _dict_from_modes(mv)
        _assert_same(u, du)
        _assert_same(u + v, _dict_sum([*du.items(), *dv.items()]))
        for kind in ("bracket", "matrix"):
            _assert_same(pw_product(u, v, kind), _dict_product(du, dv, kind))
        for lam in (2.0, 0.5):
            _assert_same(u.rescale(lam), _dict_rescale(du, lam))


def test_exact_cancellation_drops_the_mode():
    c1, c2 = (su(2).to_matrix(random_element(su(2), seed, 1.0)) for seed in (1, 2))
    modes = [(0.5, (1.0, 0.0), c1), (1.5, (0.0, 1.0), c2)]
    u = PlaneWaveField.from_modes(2, modes)
    # the pairs (1, 2) and (2, 1) meet at 2.0, (1.0, 1.0) and cancel exactly
    w = u.bracket(u)
    assert [2.0, 1.0, 1.0] not in w.freqs.tolist()
    du = _dict_from_modes(modes)
    _assert_same(w, _dict_product(du, du, "bracket"))
    assert (u - u).is_zero()


def test_frequency_sums_on_negative_zero_are_folded():
    # -4e-10 rounds to -0.0, so the dict keys sum to -0.0; the arrays keep
    # 0.0.  Rescaled by 1e-12 both modes of u land on (0, 0, 0), one of them
    # through -1e-12, which rounds to -0.0.
    c1, c2 = (su(2).to_matrix(random_element(su(2), seed, 1.0)) for seed in (3, 4))
    mu = [(-4e-10, (-0.0, 1.0), c1), (-1.0, (0.0, -2.0), c2)]
    mv = [(-0.0, (-4e-10, 2.0), c2)]
    du, dv = _dict_from_modes(mu), _dict_from_modes(mv)
    assert any(np.signbit(k).any() and 0.0 in k for k in _dict_product(du, dv, "matrix"))
    u, v = PlaneWaveField.from_modes(2, mu), PlaneWaveField.from_modes(2, mv)
    _assert_same(u @ v, _dict_product(du, dv, "matrix"))
    _assert_same(u.rescale(1e-12), _dict_rescale(du, 1e-12))


def test_blocked_product_matches_the_dict_algorithm(monkeypatch):
    merged = planewave._merged
    for seed in range(8):
        rng = np.random.default_rng(seed)
        mu, mv = _coarse_modes(so(4), 10, rng), _coarse_modes(so(4), 8, rng)
        u, v = PlaneWaveField.from_modes(4, mu), PlaneWaveField.from_modes(4, mv)
        merges = []
        # two of u's modes per block, so a block can add two terms to a
        # frequency that earlier blocks already summed
        monkeypatch.setattr(planewave, "PAIR_BLOCK", 2 * v.mode_count)
        monkeypatch.setattr(planewave, "_merged", lambda *a: merges.append(1) or merged(*a))
        w = u.bracket(v)
        assert len(merges) == (u.mode_count + 1) // 2 > 1
        _assert_same(w, _dict_product(_dict_from_modes(mu), _dict_from_modes(mv), "bracket"))


def test_mode_caps(monkeypatch):
    rng = np.random.default_rng(6)
    u = PlaneWaveField.from_modes(2, _coarse_modes(su(2), 3, rng), cap=2)

    def no_pairs(*args):
        raise AssertionError("pair array built")

    with monkeypatch.context() as m:
        m.setattr(planewave, "_merged", no_pairs)
        with pytest.raises(ValueError, match="exceeds cap"):
            pw_product(u, u, "matrix")  # 9 pairs > cap^2 = 4
    x = PlaneWaveField.from_modes(
        2, [(float(k), (0.0, 0.0), np.eye(2)) for k in range(3)], cap=3)
    with pytest.raises(ValueError, match="mode count 5 exceeds cap 3"):
        x @ x  # 9 pairs <= cap^2 = 9 land on 5 distinct frequencies
