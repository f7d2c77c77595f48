"""Values for the conic checks computed apart from ym2d.estimates.

The program reduces the ellipse delta integral in confocal coordinates and
integrates with scipy's quad.  These references use the closed form for
a = b = 0, and polar coordinates about the focus 0 integrated with mpmath
in extended precision.
"""

from __future__ import annotations

import math

import mpmath


def conic_closed_form(tau: float, nxi: float) -> float:
    """int delta(tau - |eta| - |xi - eta|) d eta = pi (tau^2 - |xi|^2/2) /
    (2 sqrt(tau^2 - |xi|^2)): the ellipse integral with a = b = 0."""
    return math.pi * (tau**2 - nxi**2 / 2.0) / (2.0 * math.sqrt(tau**2 - nxi**2))


def elliptic_i_mpmath(tau: float, nxi: float, r: float, dps: int = 30) -> float:
    """I(tau, xi) with xi = (|xi|, 0), by mpmath quadrature in polar angle.

    On the ray eta = rho (cos t, sin t) the ellipse point is
    rho = (tau^2 - |xi|^2) / (2 (tau - |xi| cos t)), and the delta measure
    contributes rho d rho / |d(rho + |xi - eta|)/d rho|, which simplifies to
    rho^(1-a) r2^(1-b) / (tau - |xi| cos t) with r2 = tau - rho.
    """
    a, b = 1.0 + r / 2.0, r / 2.0
    with mpmath.workdps(dps):
        T, X = mpmath.mpf(tau), mpmath.mpf(nxi)
        K = T * T - X * X

        def f(t):
            den = T - X * mpmath.cos(t)
            rho = K / (2 * den)
            return rho ** (1 - a) * (T - rho) ** (1 - b) / den

        # symmetric about t = 0, where the integrand peaks
        integral = 2 * mpmath.quad(f, [0, mpmath.pi / 64, mpmath.pi / 8, mpmath.pi])
        val = mpmath.sqrt(X) * mpmath.sqrt(T - X) * integral ** (1 / mpmath.mpf(r))
        return float(val)
