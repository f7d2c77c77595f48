"""Exact calculus on finite sums of spacetime plane waves.

A field is sum_k c_k exp(i(tau_k t + xi_k . x)) with matrix coefficients c_k
(complexified Lie algebra elements, or arbitrary matrices for group-valued
fields).  Derivatives, Fourier multipliers and pointwise products are exact,
which turns the algebraic identities of the reformulated system into
machine-precision checks.  The spatial multipliers evaluate the symbols of
nullforms.MULTIPLIER_SYMBOLS on the modes' frequencies, the same functions the
grid evaluates on its lattice, so the identities check the evolution's own
symbol formulas.

A field is two arrays: freqs, its K distinct frequencies (tau, xi1, xi2)
rounded to KEY_DECIMALS and sorted, and coeffs, the (K, n, n) coefficients.
A product is one batched matmul over all mode pairs.  Equal frequencies are
merged by sorting the keys and summing the coefficients of each key in input
order, so the terms of a product add in the order of its mode pairs, as a
loop over the pairs would add them; modes whose coefficients are all at most
COEFF_TOL are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, random_element
from .nullforms import MULTIPLIER_SYMBOLS

COEFF_TOL = 1e-14
KEY_DECIMALS = 9
DEFAULT_MODE_CAP = 4096
PAIR_BLOCK = 65_536  # mode pairs a product holds at once


def _merged(freqs: np.ndarray, coeffs: np.ndarray):
    """Round the frequencies (-0.0 to 0.0), sort them and sum the coefficients
    of equal ones in input order; returns (freqs, coeffs)."""
    keys = np.round(freqs, KEY_DECIMALS) + 0.0
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)  # first of its key
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    slot = np.empty(len(keys), dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    out = np.zeros((int(new.sum()),) + coeffs.shape[1:], dtype=complex)
    # one term at a time in input order (np.add.reduceat would add the tail
    # of a run pairwise, which changes the last bits of runs of three or more)
    np.add.at(out, slot, coeffs)
    return keys[new], out


def _field(n, freqs, coeffs, cap) -> "PlaneWaveField":
    """The field of distinct sorted freqs, without the negligible modes."""
    keep = np.abs(coeffs).max(axis=(1, 2)) > COEFF_TOL
    return PlaneWaveField(n, freqs[keep], coeffs[keep], cap)


@dataclass(frozen=True, eq=False)
class PlaneWaveField:
    """Canonical finite mode sum; immutable value semantics."""

    n: int  # matrix size of the coefficients
    freqs: np.ndarray  # (K, 3) distinct rounded (tau, xi1, xi2), sorted
    coeffs: np.ndarray  # (K, n, n) complex
    cap: int = DEFAULT_MODE_CAP

    @staticmethod
    def from_modes(n, mode_list, cap=DEFAULT_MODE_CAP):
        """Build from (tau, (xi1, xi2), coeff) triples, merging duplicates."""
        coeffs = [np.asarray(c, dtype=complex) for _, _, c in mode_list]
        for c in coeffs:
            if c.shape != (n, n):
                raise ValueError(f"coefficient shape {c.shape} != ({n},{n})")
        freqs = np.array([(tau, *xi) for tau, xi, _ in mode_list], dtype=float)
        return _field(n, *_merged(freqs.reshape(-1, 3),
                                  np.array(coeffs).reshape(-1, n, n)), cap)

    @property
    def mode_count(self) -> int:
        return len(self.freqs)

    def is_zero(self) -> bool:
        return self.mode_count == 0

    # --- linear structure -------------------------------------------------
    def __add__(self, other):
        return _field(self.n, *_merged(np.concatenate((self.freqs, other.freqs)),
                                       np.concatenate((self.coeffs, other.coeffs))),
                      self.cap)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, s):
        return _field(self.n, self.freqs, s * self.coeffs, self.cap)

    __rmul__ = __mul__

    # --- products and norm --------------------------------------------------
    def bracket(self, other):
        """Pointwise commutator [u, v] (exact)."""
        return pw_product(self, other, "bracket")

    def __matmul__(self, other):
        """Pointwise ordered matrix product u v (exact)."""
        return pw_product(self, other, "matrix")

    def norm(self) -> float:
        """Max over modes of the Frobenius norm of the coefficient."""
        if self.is_zero():
            return 0.0
        return float(np.max(np.linalg.norm(self.coeffs, axis=(1, 2))))

    # --- calculus ---------------------------------------------------------
    def dt(self):
        return self._scaled(1j * self.freqs[:, 0])

    def dx(self, i: int):
        return self._apply_symbol("derivative", i)

    def lambda_pow(self, s: float):
        """Multiplier <xi>^s (spatial frequency only)."""
        return self._apply_symbol("lambda_pow", s)

    def d_pow(self, a: float):
        """Multiplier |xi|^a; for a < 0 the xi = 0 modes are annihilated."""
        return self._apply_symbol("d_pow", a)

    def riesz(self, i: int):
        """Inhomogeneous Riesz transform, symbol i xi_i / <xi>."""
        return self._apply_symbol("riesz", i)

    def _apply_symbol(self, kind: str, param=None):
        """The spatial multiplier MULTIPLIER_SYMBOLS[kind], evaluated on the
        modes' frequencies (the formulas the grid evaluates on its lattice)."""
        return self._scaled(MULTIPLIER_SYMBOLS[kind](self.freqs[:, 1], self.freqs[:, 2], param))

    def _scaled(self, symbol: np.ndarray):
        """Multiply each mode's coefficient by its entry of symbol."""
        return _field(self.n, self.freqs, symbol[:, None, None] * self.coeffs, self.cap)

    def rescale(self, lam: float):
        """u(t,x) -> u(lam t, lam x): every mode frequency scales by lam."""
        return _field(self.n, *_merged(lam * self.freqs, self.coeffs), self.cap)

    # --- pointwise evaluation (for grid sampling) -------------------------
    def sample(self, t: float, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate on arrays of points; returns (..., n, n) complex."""
        tau, k1, k2 = self.freqs.T
        x1, x2 = np.asarray(x1)[..., None], np.asarray(x2)[..., None]
        phase = np.exp(1j * (tau * t + k1 * x1 + k2 * x2))
        return (phase @ self.coeffs.reshape(self.mode_count, -1)).reshape(
            x1.shape[:-1] + (self.n, self.n))


def pw_product(u: PlaneWaveField, v: PlaneWaveField, kind: str) -> PlaneWaveField:
    """Pointwise product of mode sums: 'matrix' (c1 c2) or 'bracket' ([c1, c2])."""
    if u.n != v.n:
        raise ValueError("matrix sizes differ")
    if kind not in ("matrix", "bracket"):
        raise ValueError(f"unknown product kind {kind!r}")
    pairs = u.mode_count * v.mode_count
    if pairs > u.cap * u.cap:
        raise ValueError(f"mode-count product {pairs} exceeds cap^2 = {u.cap**2}")
    # the pairs of a block of u's modes with all of v's, merged into the sum
    # of the blocks before it, which comes first, so terms add in pair order
    rows = max(1, PAIR_BLOCK // max(1, v.mode_count))
    freqs, coeffs = u.freqs[:0], u.coeffs[:0]
    for s in range(0, u.mode_count, rows):
        cu = u.coeffs[s:s + rows, None]
        c = cu @ v.coeffs
        if kind == "bracket":
            c = c - v.coeffs @ cu
        f = u.freqs[s:s + rows, None] + v.freqs
        freqs, coeffs = _merged(np.concatenate((freqs, f.reshape(-1, 3))),
                                np.concatenate((coeffs, c.reshape(-1, u.n, u.n))))
    out = _field(u.n, freqs, coeffs, u.cap)
    if out.mode_count > u.cap:
        raise ValueError(f"mode count {out.mode_count} exceeds cap {u.cap}")
    return out


def random_field(
    spec: AlgebraSpec,
    mode_count: int,
    rng: np.random.Generator,
    freq_range=(0.5, 2.5),
    xi_max: int = 3,
    scale: float = 1.0,
) -> PlaneWaveField:
    """Random algebra-valued field; tau drawn from +-[freq_range], xi integer."""
    mode_list = []
    for _ in range(mode_count):
        # draw tau a few digits coarser than the key resolution so that sums
        # and halvings of frequencies still canonicalize exactly
        tau = round(rng.uniform(*freq_range) * rng.choice([-1.0, 1.0]), KEY_DECIMALS - 3)
        xi = (
            float(rng.integers(-xi_max, xi_max + 1)),
            float(rng.integers(-xi_max, xi_max + 1)),
        )
        c = spec.to_matrix(random_element(spec, int(rng.integers(0, 2**31)), scale))
        mode_list.append((tau, xi, c))
    return PlaneWaveField.from_modes(spec.n, mode_list)


def lorenz_compatible(
    spec: AlgebraSpec, mode_count: int, rng_seed: int, scale: float = 1.0
):
    """Random (A0, A1, A2) satisfying the Lorenz gauge d^alpha A_alpha = 0 exactly.

    A1, A2 are sampled mode by mode with tau != 0, and per mode the time
    component solves -i tau a0 + i xi . a = 0 (metric diag(-1,1,1)).
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    m0, m1, m2 = [], [], []
    for _ in range(mode_count):
        tau = round(rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0]), KEY_DECIMALS - 3)
        xi = (
            float(rng.integers(-3, 4)),
            float(rng.integers(-3, 4)),
        )
        a1 = spec.to_matrix(random_element(spec, int(rng.integers(0, 2**31)), scale))
        a2 = spec.to_matrix(random_element(spec, int(rng.integers(0, 2**31)), scale))
        a0 = (xi[0] * a1 + xi[1] * a2) / tau
        m0.append((tau, xi, a0))
        m1.append((tau, xi, a1))
        m2.append((tau, xi, a2))
    n = spec.n
    return (
        PlaneWaveField.from_modes(n, m0),
        PlaneWaveField.from_modes(n, m1),
        PlaneWaveField.from_modes(n, m2),
    )
