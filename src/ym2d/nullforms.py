"""Bilinear null-form operators and the one table of linear multiplier
symbols.

All operators act on SpacetimePair states (value + first time derivative) and
work uniformly for exact plane-wave fields and pseudospectral grid fields.
Metric convention diag(-1, 1, 1): raised index d^0 = -d_t, d^i = d_i.

A field type provides the linear structure (+, -, scalar *), the spatial
multipliers dx, lambda_pow, d_pow and riesz, and bracket(other), the
pointwise commutator; the uncommuted forms (commutator=False) also need
@, the ordered pointwise product, which only plane-wave fields have.  Each
spatial multiplier's symbol is defined once, in MULTIPLIER_SYMBOLS, as a
function of the spatial frequencies; both field types evaluate that table
(this module imports neither of them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Q_KINDS = ("Q0", "Q01", "Q02", "Q12", "q0", "q01", "q02", "q12")


def _product(x, y, commutator: bool):
    return x.bracket(y) if commutator else x @ y


@dataclass(frozen=True)
class SpacetimePair:
    """A field together with its exact first time derivative.

    Time derivatives always come from the caller (evolution state or exact
    plane-wave calculus), never from finite differences.
    """

    value: object
    time_deriv: object

    @staticmethod
    def from_planewave(u) -> "SpacetimePair":
        """A plane-wave field with its exact time derivative."""
        return SpacetimePair(u, u.dt())

    def deriv(self, alpha: int):
        """Coordinate derivative d_alpha as a plain field (lower index)."""
        if alpha == 0:
            if self.time_deriv is None:
                raise ValueError("time derivative required but not supplied")
            return self.time_deriv
        if alpha in (1, 2):
            return self.value.dx(alpha)
        raise ValueError(f"bad spacetime index {alpha}")

    def _map(self, f):
        return SpacetimePair(f(self.value), f(self.time_deriv))

    def dx(self, i: int):
        return self._map(lambda u: u.dx(i))

    def lambda_pow(self, s: float):
        return self._map(lambda u: u.lambda_pow(s))

    def d_pow(self, a: float):
        return self._map(lambda u: u.d_pow(a))

    def riesz(self, i: int):
        return self._map(lambda u: u.riesz(i))

    def __add__(self, other):
        return SpacetimePair(self.value + other.value, self.time_deriv + other.time_deriv)

    def __sub__(self, other):
        return SpacetimePair(self.value - other.value, self.time_deriv - other.time_deriv)

    def __mul__(self, s):
        return SpacetimePair(s * self.value, s * self.time_deriv)

    __rmul__ = __mul__


def _q_alpha_beta(u: SpacetimePair, v: SpacetimePair, a: int, b: int, commutator: bool):
    """Q_{ab}(u,v) = d_a u d_b v - d_b u d_a v (bracketed if commutator)."""
    return _product(u.deriv(a), v.deriv(b), commutator) - _product(
        u.deriv(b), v.deriv(a), commutator
    )


def null_form(kind: str, u: SpacetimePair, v: SpacetimePair, commutator: bool = True):
    """Evaluate a named null form.

    Q0(u,v)  = -d_t u d_t v + d_i u d^i v,
    Q_{ab}(u,v) = d_a u d_b v - d_b u d_a v;
    lower-case kinds pre-apply D^{-1} = |nabla|^{-1} to both arguments.
    """
    if kind not in Q_KINDS:
        raise ValueError(f"unknown null form kind {kind!r}")
    if kind.startswith("q"):
        return null_form("Q" + kind[1:], u.d_pow(-1.0), v.d_pow(-1.0), commutator)
    if kind == "Q0":
        # made as (d_1 u d_1 v - d_t u d_t v) + d_2 u d_2 v, exactly the sum
        # above without the copy a scalar multiple makes
        p0, p1, p2 = (_product(u.deriv(a), v.deriv(a), commutator) for a in range(3))
        return p1 - p0 + p2
    pairs = {"Q01": (0, 1), "Q02": (0, 2), "Q12": (1, 2)}
    a, b = pairs[kind]
    return _q_alpha_beta(u, v, a, b, commutator)


def calligraphic_q_factors(u0: SpacetimePair, u1: SpacetimePair, u2: SpacetimePair):
    """(L0, L1, L2) with calligraphic_q(u0, u1, u2, v) = sum_alpha L_alpha d_alpha v
    by bilinearity alone: with w = R1 u2 - R2 u1 and r_i = R_i u0,
    L0 = d_1 r_1 + d_2 r_2, L1 = d_2 w - d_t r_1, L2 = -d_1 w - d_t r_2, the
    last made as d_1(-w) - d_t r_2, with -w = R2 u1 - R1 u2 exactly."""
    r1u2, r2u1 = u2.value.riesz(1), u1.value.riesz(2)
    r1, r2 = u0.riesz(1), u0.riesz(2)
    return (r1.deriv(1) + r2.deriv(2), (r1u2 - r2u1).dx(2) - r1.deriv(0),
            (r2u1 - r1u2).dx(1) - r2.deriv(0))


def calligraphic_q(u0: SpacetimePair, u1: SpacetimePair, u2: SpacetimePair,
                   v: SpacetimePair, commutator: bool = True):
    """Combined null form of the gauge-part decomposition.

    -Q12[R1 u2 - R2 u1, v] - sum_i Q_{0i}[R_i u0, v], with R_i = Lambda^{-1} d_i,
    made as the three products of calligraphic_q_factors (left-linear, so
    uncommuted too).  The sign of the Q12 term is fixed by requiring the
    exact Lorenz-gauge product identity
    [A^alpha, d_alpha phi] = calligraphic_q(Lambda^{-1}A, phi)
                              + [Lambda^{-2} A^alpha, d_alpha phi],
    which the identity suite verifies to machine precision.
    """
    l0, l1, l2 = calligraphic_q_factors(u0, u1, u2)
    return (_product(l0, v.deriv(0), commutator) + _product(l1, v.deriv(1), commutator)
            + _product(l2, v.deriv(2), commutator))


def gamma1(u: SpacetimePair, v: SpacetimePair, commutator: bool = True):
    """Gamma^1(u,v) = -uv + sum_j Lambda^{-1}R_j(d_t u) Lambda^{-1}R^j(d_t v)."""
    uv = _product(u.value, v.value, commutator)
    ut, vt = u.deriv(0), v.deriv(0)
    p1, p2 = (_product(ut.lambda_pow(-1.0).riesz(j), vt.lambda_pow(-1.0).riesz(j),
                       commutator) for j in (1, 2))
    # exactly -uv + p1 + p2, without the copy a scalar multiple makes
    return p1 - uv + p2


# --- multiplier symbols ---------------------------------------------------

def _spatial_index(i: int) -> int:
    if i not in (1, 2):
        raise ValueError("spatial index must be 1 or 2")
    return i


def angle_bracket(xi1, xi2):
    """<xi> = (1 + |xi|^2)^(1/2) on frequency arrays."""
    return np.sqrt(1.0 + np.hypot(xi1, xi2) ** 2)


def _d_pow(xi1, xi2, a):
    """|xi|^a; the xi = 0 entry is 0 unless a = 0, so a < 0 annihilates it."""
    r, a = np.hypot(xi1, xi2), float(a)
    return np.where(r > 0, np.where(r > 0, r, 1.0) ** a, float(a == 0))


# kind -> symbol(xi1, xi2, param) of each spatial Fourier multiplier, defined
# once: TorusGrid evaluates it on its lattice, PlaneWaveField on its modes'
# frequencies, so the identity suite checks the formulas the evolution runs
MULTIPLIER_SYMBOLS = {
    "derivative": lambda xi1, xi2, i: 1j * (xi1, xi2)[_spatial_index(i) - 1],
    "riesz": lambda xi1, xi2, i: (1j * (xi1, xi2)[_spatial_index(i) - 1]
                                  / angle_bracket(xi1, xi2)),
    "lambda_pow": lambda xi1, xi2, s: angle_bracket(xi1, xi2) ** float(s),
    "d_pow": _d_pow,
    "laplacian": lambda xi1, xi2, _: -(np.hypot(xi1, xi2) ** 2),
}

