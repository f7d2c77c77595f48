"""Exact calculus on finite sums of spacetime plane waves.

A field is sum_k c_k exp(i(tau_k t + xi_k . x)) with matrix coefficients c_k
(complexified Lie algebra elements, or arbitrary matrices for group-valued
fields).  Derivatives, Fourier multipliers and pointwise products are exact,
which turns the algebraic identities of the reformulated system into
machine-precision checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraSpec, random_element

COEFF_TOL = 1e-14
KEY_DECIMALS = 9
DEFAULT_MODE_CAP = 4096


def _key(tau: float, xi: tuple[float, float]) -> tuple[float, float, float]:
    return (
        round(float(tau), KEY_DECIMALS),
        round(float(xi[0]), KEY_DECIMALS),
        round(float(xi[1]), KEY_DECIMALS),
    )


def _angle_bracket(xi1: float, xi2: float) -> float:
    return np.sqrt(1.0 + xi1 * xi1 + xi2 * xi2)


@dataclass(frozen=True)
class PlaneWaveField:
    """Canonicalized finite mode sum; immutable value semantics."""

    n: int  # matrix size of the coefficients
    modes: dict = field(default_factory=dict)  # key -> (n, n) complex array
    cap: int = DEFAULT_MODE_CAP

    @staticmethod
    def from_modes(n, mode_list, cap=DEFAULT_MODE_CAP):
        """Build from (tau, (xi1, xi2), coeff) triples, merging duplicates."""
        acc = {}
        for tau, xi, c in mode_list:
            k = _key(tau, xi)
            c = np.asarray(c, dtype=complex)
            if c.shape != (n, n):
                raise ValueError(f"coefficient shape {c.shape} != ({n},{n})")
            acc[k] = acc.get(k, 0) + c
        return PlaneWaveField(n, _canonicalize(acc), cap)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def is_zero(self) -> bool:
        return not self.modes

    # --- linear structure -------------------------------------------------
    def __add__(self, other):
        acc = {k: v.copy() for k, v in self.modes.items()}
        for k, v in other.modes.items():
            acc[k] = acc.get(k, 0) + v
        return PlaneWaveField(self.n, _canonicalize(acc), self.cap)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, s):
        return PlaneWaveField(
            self.n,
            _canonicalize({k: s * v for k, v in self.modes.items()}),
            self.cap,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

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
        return max(float(np.linalg.norm(c)) for c in self.modes.values())

    # --- calculus ---------------------------------------------------------
    def dt(self):
        return self._scale_modes(lambda tau, x1, x2: 1j * tau)

    def dx(self, i: int):
        if i not in (1, 2):
            raise ValueError("spatial index must be 1 or 2")
        return self._scale_modes(lambda tau, x1, x2: 1j * (x1 if i == 1 else x2))

    def lambda_pow(self, s: float):
        """Multiplier <xi>^s (spatial frequency only)."""
        return self._scale_modes(lambda tau, x1, x2: _angle_bracket(x1, x2) ** s)

    def d_pow(self, a: float):
        """Multiplier |xi|^a; for a < 0 the xi = 0 modes are annihilated."""

        def sym(tau, x1, x2):
            r = np.hypot(x1, x2)
            if r == 0.0:
                return 0.0 if a < 0 else (0.0 if a > 0 else 1.0)
            return r**a

        return self._scale_modes(sym)

    def riesz(self, i: int):
        """Inhomogeneous Riesz transform, symbol i xi_i / <xi>."""
        if i not in (1, 2):
            raise ValueError("spatial index must be 1 or 2")
        return self._scale_modes(
            lambda tau, x1, x2: 1j * (x1 if i == 1 else x2) / _angle_bracket(x1, x2)
        )

    def _scale_modes(self, sym):
        acc = {}
        for (tau, x1, x2), c in self.modes.items():
            acc[(tau, x1, x2)] = sym(tau, x1, x2) * c
        return PlaneWaveField(self.n, _canonicalize(acc), self.cap)

    def rescale(self, lam: float):
        """u(t,x) -> u(lam t, lam x): every mode frequency scales by lam."""
        acc = {}
        for (tau, x1, x2), c in self.modes.items():
            k = _key(lam * tau, (lam * x1, lam * x2))
            acc[k] = acc.get(k, 0) + c
        return PlaneWaveField(self.n, _canonicalize(acc), self.cap)

    # --- pointwise evaluation (for grid sampling) -------------------------
    def sample(self, t: float, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate on arrays of points; returns (..., n, n) complex."""
        out = np.zeros(x1.shape + (self.n, self.n), dtype=complex)
        for (tau, k1, k2), c in self.modes.items():
            phase = np.exp(1j * (tau * t + k1 * x1 + k2 * x2))
            out += phase[..., None, None] * c
        return out


def _canonicalize(acc: dict) -> dict:
    out = {}
    for k in sorted(acc):
        c = np.asarray(acc[k], dtype=complex)
        if np.max(np.abs(c)) > COEFF_TOL:
            out[k] = c
    return out


def pw_product(u: PlaneWaveField, v: PlaneWaveField, kind: str) -> PlaneWaveField:
    """Pointwise product of mode sums: 'matrix' (c1 c2) or 'bracket' ([c1, c2])."""
    if u.n != v.n:
        raise ValueError("matrix sizes differ")
    if u.mode_count * v.mode_count > u.cap * u.cap:
        raise ValueError(
            f"mode-count product {u.mode_count * v.mode_count} exceeds cap^2 = {u.cap**2}"
        )
    acc = {}
    for (t1, a1, a2), c1 in u.modes.items():
        for (t2, b1, b2), c2 in v.modes.items():
            k = _key(t1 + t2, (a1 + b1, a2 + b2))
            if kind == "matrix":
                c = c1 @ c2
            elif kind == "bracket":
                c = c1 @ c2 - c2 @ c1
            else:
                raise ValueError(f"unknown product kind {kind!r}")
            acc[k] = acc.get(k, 0) + c
    f = PlaneWaveField(u.n, _canonicalize(acc), u.cap)
    if f.mode_count > u.cap:
        raise ValueError(f"mode count {f.mode_count} exceeds cap {u.cap}")
    return f


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
        c = random_element(spec, int(rng.integers(0, 2**31)), scale).matrix()
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
        a1 = random_element(spec, int(rng.integers(0, 2**31)), scale).matrix()
        a2 = random_element(spec, int(rng.integers(0, 2**31)), scale).matrix()
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
