"""Bilinear null-form operators and their Fourier symbols.

All operators act on SpacetimePair states (value + first time derivative) and
work uniformly for exact plane-wave fields and pseudospectral grid fields.
Metric convention diag(-1, 1, 1): raised index d^0 = -d_t, d^i = d_i.

A field type provides the linear structure (+, -, scalar *), the spatial
multipliers dx, lambda_pow, d_pow and riesz, and bracket(other), the
pointwise commutator; the uncommuted forms (commutator=False) also need
@, the ordered pointwise product, which only plane-wave fields have.
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
        out = -1.0 * _product(u.deriv(0), v.deriv(0), commutator)
        for i in (1, 2):
            out = out + _product(u.deriv(i), v.deriv(i), commutator)
        return out
    pairs = {"Q01": (0, 1), "Q02": (0, 2), "Q12": (1, 2)}
    a, b = pairs[kind]
    return _q_alpha_beta(u, v, a, b, commutator)


def calligraphic_q(u0: SpacetimePair, u1: SpacetimePair, u2: SpacetimePair,
                   v: SpacetimePair, commutator: bool = True):
    """Combined null form of the gauge-part decomposition.

    -Q12[R1 u2 - R2 u1, v] - sum_i Q_{0i}[R_i u0, v], with R_i the
    inhomogeneous Riesz transforms Lambda^{-1} d_i.  The sign of the Q12
    term is fixed by requiring the exact Lorenz-gauge product identity
    [A^alpha, d_alpha phi] = calligraphic_q(Lambda^{-1}A, phi)
                              + [Lambda^{-2} A^alpha, d_alpha phi],
    which the identity suite verifies to machine precision.
    """
    w = u2.riesz(1) - u1.riesz(2)
    out = -1.0 * null_form("Q12", w, v, commutator)
    for i in (1, 2):
        out = out - null_form(f"Q0{i}", u0.riesz(i), v, commutator)
    return out


def gamma1(u: SpacetimePair, v: SpacetimePair, commutator: bool = True):
    """Gamma^1(u,v) = -uv + sum_j Lambda^{-1}R_j(d_t u) Lambda^{-1}R^j(d_t v)."""
    out = -1.0 * _product(u.value, v.value, commutator)
    ut, vt = u.deriv(0), v.deriv(0)
    for j in (1, 2):
        out = out + _product(
            ut.lambda_pow(-1.0).riesz(j), vt.lambda_pow(-1.0).riesz(j), commutator
        )
    return out


# --- scalar symbols -------------------------------------------------------

def _bracket2(xi) -> float:
    return float(np.sqrt(1.0 + xi[0] ** 2 + xi[1] ** 2))


def symbol_eval(kind: str, xi, tau: float = 0.0, eta=(0.0, 0.0), lam: float = 0.0):
    """Scalar Fourier symbol of a named bilinear form at ((tau, xi), (lam, eta)).

    Homogeneous-normalized kinds divide by |xi| |eta| and require nonzero
    spatial frequencies; the *_sec7 kinds are polynomial in
    (<xi>, <eta>, xi, eta).  'gamma1' is the reduced symbol
    -1 + <xi, eta> tau lam / (<xi>^2 <eta>^2).

    Sign convention: Q0 returns the exact plane-wave coefficient factor
    tau lam - xi . eta; Q12 and Q0i return the symbol with the i^2 = -1 of
    the two derivatives stripped (the operator multiplies by minus these),
    so that q12((1,0),(0,1)) = 1.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if kind == "gamma1":
        return -1.0 + float(xi @ eta) * tau * lam / (_bracket2(xi) ** 2 * _bracket2(eta) ** 2)
    if kind == "q0_sec7":
        return _bracket2(xi) * _bracket2(eta) - float(xi @ eta)
    if kind in ("q01_sec7", "q02_sec7"):
        i = 0 if kind == "q01_sec7" else 1
        return -_bracket2(xi) * eta[i] + xi[i] * _bracket2(eta)
    if kind == "q12_sec7":
        return -xi[0] * eta[1] + xi[1] * eta[0]
    nx, ne = float(np.hypot(*xi)), float(np.hypot(*eta))
    if kind in ("q0", "q01", "q02", "q12"):
        if nx == 0.0 or ne == 0.0:
            raise ValueError(f"kind {kind!r} requires nonzero spatial frequencies")
        if kind == "q0":
            return (tau * lam - float(xi @ eta)) / (nx * ne)
        if kind == "q12":
            return (xi[0] * eta[1] - xi[1] * eta[0]) / (nx * ne)
        i = 0 if kind == "q01" else 1
        return (tau * eta[i] - lam * xi[i]) / (nx * ne)
    if kind == "Q0":
        return tau * lam - float(xi @ eta)
    if kind == "Q12":
        return xi[0] * eta[1] - xi[1] * eta[0]
    if kind in ("Q01", "Q02"):
        i = 0 if kind == "Q01" else 1
        return tau * eta[i] - lam * xi[i]
    raise ValueError(f"unknown symbol kind {kind!r}")


def sin_angle(xi, eta) -> float:
    """|sin of the angle between xi and eta| = |xi1 eta2 - xi2 eta1|/(|xi||eta|)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    nx, ne = float(np.hypot(*xi)), float(np.hypot(*eta))
    if nx == 0.0 or ne == 0.0:
        raise ValueError("angle undefined for zero vector")
    return abs(xi[0] * eta[1] - xi[1] * eta[0]) / (nx * ne)
