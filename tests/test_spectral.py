import io

import numpy as np
import pytest

from ym2d.algebra import bracket_coeffs, su
from ym2d.spectral import (
    GridField,
    TorusGrid,
    read_snapshot,
    weighted_hat_norm,
    write_snapshot,
)

SPEC = su(2)


def _field(seed, N=16, scale=1.0):
    rng = np.random.default_rng(seed)
    return GridField(SPEC, TorusGrid(N), scale * rng.standard_normal((SPEC.dim, N, N)))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(6)
    with pytest.raises(ValueError):
        TorusGrid(9)


def dft_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(N^4) forward transform (mean-normalized), for small-N checks."""
    N = values.shape[-1]
    n = np.arange(N)
    w = np.exp(-2j * np.pi * np.outer(n, n) / N)
    return np.einsum("ka,...ab,lb->...kl", w, values, w) / N**2


def test_rhat_matches_dft_oracle():
    f = _field(0, N=8)
    assert np.max(np.abs(f.rhat - dft_oracle(f.values)[..., : 8 // 2 + 1])) < 1e-13


def test_from_rhat_roundtrip():
    f = _field(1)
    g = GridField.from_rhat(SPEC, f.grid, f.rhat)
    assert np.max(np.abs(g.values - f.values)) < 1e-13


def test_parseval():
    f = _field(2)
    # r=2, s=0 of the discrete Fourier-Lebesgue norm is exactly the grid L^2
    assert abs(weighted_hat_norm(f.grid, f.rhat, 0.0, 2.0) - f.norm()) < 1e-12 * f.norm()
    # the column weights count every frequency of the full plane once
    full = np.fft.fft2(f.values) / f.grid.N**2
    rhat = f.rhat
    w = f.grid.column_weight
    assert abs(np.sum(np.abs(full) ** 2) - np.sum(np.abs(rhat) ** 2 * w)) < 1e-12


@pytest.mark.parametrize("k2", [2, 0, 8])
def test_weighted_hat_norm_single_mode(k2):
    grid = TorusGrid(16)
    x1, x2 = grid.points
    vals = np.zeros((SPEC.dim, 16, 16))
    vals[0] = np.cos(3.0 * x1 + k2 * x2)
    f = GridField(SPEC, grid, vals)
    s = 0.8
    # two conjugate modes at |xi|^2 = 9 + k2^2, each of continuum coefficient
    # (1/2) L^2 / (2 pi); l^2 weight <xi>^s, times the lattice measure.  The
    # half plane holds one of them in an interior column (weight 2), or both
    # in column 0 or N/2 (weight 1 each).
    expect = (1.0 + 9.0 + k2**2) ** (s / 2) * (0.5 * grid.L**2 / (2 * np.pi)) * np.sqrt(2.0)
    expect *= 2.0 * np.pi / grid.L
    assert abs(weighted_hat_norm(grid, f.rhat, s, 2.0) - expect) < 1e-12
    with pytest.raises(ValueError):
        weighted_hat_norm(grid, f.rhat, s, 1.0)


def test_values_read_only():
    vals = np.ones((SPEC.dim, 16, 16))
    f = GridField(SPEC, TorusGrid(16), vals)
    assert f.values is vals  # no copy
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        vals += 1.0


def test_derivatives_exact_on_trig():
    grid = TorusGrid(32)
    x1, x2 = grid.points
    vals = np.zeros((SPEC.dim, 32, 32))
    vals[1] = np.sin(2.0 * x1) * np.cos(x2)
    f = GridField(SPEC, grid, vals)
    d1 = 2.0 * np.cos(2.0 * x1) * np.cos(x2)
    lap = -(4.0 + 1.0) * vals[1]
    assert np.max(np.abs(f.dx(1).values[1] - d1)) < 1e-12
    assert np.max(np.abs(f.laplacian().values[1] - lap)) < 1e-11
    assert np.max(np.abs(f.inv_laplacian().laplacian().values - f.values)) < 1e-12
    # lambda_pow(-2) then lambda_pow(2) is the identity
    assert np.max(np.abs(f.lambda_pow(-2).lambda_pow(2).values - f.values)) < 1e-11
    # riesz = Lambda^-1 d_i
    assert np.max(np.abs(f.riesz(1).values - f.dx(1).lambda_pow(-1).values)) < 1e-12


def test_inv_laplacian_inverts_the_derivatives():
    """d_1 d_1 + d_2 d_2 after inv_laplacian is the identity, Nyquist lines
    included, except where both derivative symbols vanish."""
    grid = TorusGrid(16)
    f = GridField(SPEC, grid, np.random.default_rng(0).standard_normal((SPEC.dim, 16, 16)))
    chi = f.inv_laplacian()
    back = chi.dx(1).dx(1) + chi.dx(2).dx(2)
    d1, d2 = (grid.multiplier_array("derivative", i) for i in (1, 2))
    kernel = d1 * d1 + d2 * d2 == 0
    assert np.max(np.abs(back.rhat - np.where(kernel, 0.0, f.rhat))) < 1e-14


def test_dealiased_product_exact_below_two_thirds():
    grid = TorusGrid(32)
    x1, x2 = grid.points
    # every frequency of the product stays below N/3
    u = np.stack([np.cos(3.0 * x1 + a * x2) for a in range(SPEC.dim)])
    v = np.stack([np.sin(4.0 * x1 - a * x2) for a in range(SPEC.dim)])
    w = GridField(SPEC, grid, u).bracket(GridField(SPEC, grid, v))
    assert np.max(np.abs(w.values - bracket_coeffs(SPEC, u, v))) < 1e-13


def test_bracket_product_antisymmetric():
    f, g = _field(3), _field(4)
    fg, gf = f.bracket(g), g.bracket(f)
    assert np.max(np.abs(fg.values + gf.values)) < 1e-12


def test_snapshot_roundtrip_and_determinism():
    fields = [_field(7), _field(8)]
    buf = io.BytesIO()
    write_snapshot(buf, fields)
    buf2 = io.BytesIO()
    write_snapshot(buf2, fields)
    assert buf.getvalue() == buf2.getvalue()
    buf.seek(0)
    back = read_snapshot(buf, SPEC)
    assert len(back) == 2
    for f, g in zip(fields, back):
        assert np.array_equal(f.values, g.values)


def test_snapshot_rejects_bad_magic():
    buf = io.BytesIO(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        read_snapshot(buf, SPEC)


@pytest.mark.parametrize("chain", ["dx2.dx2", "riesz1.dx1"])
def test_odd_multiplier_chain_matches_eager_transforms(chain):
    # white noise has content at the Nyquist frequencies, where a lazy chain
    # of odd symbols would keep what an inverse real transform drops
    f = _field(5)
    grid, N = f.grid, f.grid.N
    k1, k2 = grid.rfreqs
    if chain == "dx2.dx2":
        lazy, symbols = f.dx(2).dx(2), (1j * k2, 1j * k2)
    else:
        lazy, symbols = f.riesz(1).dx(1), (1j * k1 / grid.xi_bracket, 1j * k1)
    vals = f.values
    for m in symbols:
        vals = np.fft.irfft2(np.fft.rfft2(vals) / N**2 * m, s=(N, N)) * N**2
    assert np.max(np.abs(lazy.values - vals)) <= 1e-13 * np.max(np.abs(vals))


def test_spectra_read_only():
    # finiteness is checked once, so a field must not change after its check
    f = _field(10)
    for g in (f, f.dx(1)):
        with pytest.raises(ValueError):
            g.rhat[0, 0, 0] = np.nan
    rhat = np.array(f.rhat)
    GridField.from_rhat(SPEC, f.grid, rhat)
    with pytest.raises(ValueError):
        rhat[0, 0, 0] = np.nan  # no copy: the caller's array is frozen too
    with pytest.raises(ValueError):
        f.bracket(_field(11))._raw[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        f.grid.multiplier_array("derivative", 1)[0, 1] = np.nan


def test_field_built_on_a_view_cannot_change():
    # freezing a view leaves its base writable, so the constructor copies it
    f = _field(12)
    base = np.stack([np.array(f.values), np.array(f.values)])
    rbase = np.stack([np.array(f.rhat), np.array(f.rhat)])
    fields = (GridField(SPEC, f.grid, base[1]), GridField.from_rhat(SPEC, f.grid, rbase[1]))
    base[1, 0, 0, 0] = rbase[1, 0, 0, 0] = np.nan
    for g in fields:
        assert np.all(np.isfinite(g.values)) and np.all(np.isfinite(g.dx(1).values))


def test_fields_store_values_or_spectrum():
    f = _field(6)
    g = f.dx(1)
    assert g._values is None  # a multiplier transforms nothing
    assert (g - f.laplacian())._values is None
    assert np.array_equal((2.0 * f).rhat, 2.0 * f.rhat)
    with pytest.raises(ValueError):
        g.values[0, 0, 0] = 1.0
    with pytest.raises(FloatingPointError):
        GridField.from_rhat(SPEC, f.grid, f.rhat * np.nan)
    for given in ((), (f.values, f.rhat)):  # values or rhat, exactly one
        with pytest.raises(ValueError):
            GridField(SPEC, f.grid, *given)


def test_sums_of_products_transform_once(monkeypatch):
    f, g, h = _field(7), _field(8), _field(9)
    fg, gh = f.bracket(g), g.bracket(h)
    calls = []
    rfft2 = np.fft.rfft2

    def counted(*args, **kwargs):
        calls.append(args)
        return rfft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counted)
    s = 2.0 * fg - gh + fg
    assert s._rhat is None and s._values is None  # products and sums stay raw
    w = 3.0 * bracket_coeffs(SPEC, f.dealias().values, g.dealias().values) - bracket_coeffs(
        SPEC, g.dealias().values, h.dealias().values)
    want = rfft2(w, axes=(-2, -1), norm="forward") * s.grid.dealias_mask
    assert np.max(np.abs(s.rhat - want)) <= 1e-14 * np.max(np.abs(want))
    assert s.dealias() is s
    s.values  # made from the kept spectrum by an inverse transform
    assert len(calls) == 1  # one masked transform for the whole sum
    # a bracket whose product overflows is rejected where it is made
    big = 1e200 * f
    with pytest.raises(FloatingPointError):
        big.bracket(1e200 * g)


def test_sums_and_multiples_act_on_spectra():
    # values are never an operand: a sum, difference or scalar multiple of
    # values-built fields is spectrum-only, its rhat the same op on the rhats
    f, g = _field(13), _field(14)
    for out, want in ((f + g, f.rhat + g.rhat), (f - g, f.rhat - g.rhat),
                      (2.5 * f, 2.5 * f.rhat), (f * -1.0, -1.0 * f.rhat)):
        assert out._values is None and out._raw is None
        assert np.array_equal(out.rhat, want)


def test_only_raw_fields_are_truncated():
    f, g = _field(15), _field(16)
    fg = f.bracket(g)
    raw_sum = 2.0 * fg - fg
    assert fg.dealias() is fg and raw_sum.dealias() is raw_sum
    for h in (f, fg.dx(1), fg + f):
        d = h.dealias()
        assert d is not h
        assert np.array_equal(d.rhat, h.rhat * f.grid.dealias_mask)
