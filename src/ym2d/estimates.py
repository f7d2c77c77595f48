"""Numerical witnesses for the inequality layer.

Three kinds of desk-scale evidence back the estimate machinery:

  * pointwise symbol bounds, checked by large vectorized random sampling
    (the Gamma^1 reduced symbol, the Foschi-Klainerman angle bounds for the
    homogeneous null-form symbols, the angle estimate, and the hyperbolic
    Leibniz rule);
  * delta-function surface integrals over the ellipses |eta| + |xi-eta| = tau
    and hyperbolas |eta| - |xi-eta| = tau, by adaptive quadrature along the
    parametrized conic, including the elliptic-case quantity I(tau, xi) whose
    uniform boundedness drives the bilinear null-form estimate;
  * empirical constants for the catalogued bilinear/multilinear estimates on
    grids, using free-wave inputs (delta-supported in the modulation
    variable) as discrete proxies for the X^r_{s,b} norms -- the proxy choice
    is recorded in every report.

Thresholds are artifact conventions (the underlying "<=" constants are
absolute but never stated); what is witnessed is a finite, stable sup over
large samples, plus resolution-stability for the grid sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from scipy.integrate import quad

from .algebra import AlgebraSpec, su
from .nullforms import SpacetimePair, gamma1, null_form
from .spectral import GridField, TorusGrid, weighted_hat_norm

GAMMA1_THRESHOLD = 4.0
FK_THRESHOLD = 4.0
ANGLE_THRESHOLD = 8.0
HLR_THRESHOLD = 2.0
GROWTH_THRESHOLD = 2.0

FK_CASES = (
    "ellipticQ12",
    "hyperbolicQ12",
    "ellipticQ0j",
    "ellipticQ0",
    "hyperbolicQ0",
)

ESTIMATE_IDS = tuple(range(21, 38))

DEGENERACY_EPS = 1e-12


@dataclass(frozen=True)
class SampleConfig:
    count: int = 10**6
    radius_range: tuple = (1e-2, 1e3)
    rng_seed: int = 0
    r_exponent: float = 2.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        rmin, rmax = self.radius_range
        if not (0 < rmin < rmax):
            raise ValueError("radius range must satisfy 0 < rMin < rMax")
        if not (1.0 < self.r_exponent <= 2.0):
            raise ValueError("r exponent must lie in (1, 2]")


@dataclass
class BoundReport:
    name: str
    samples: int
    sup_ratio: float
    argmax_point: dict = field(default_factory=dict)
    threshold: float = 0.0
    passed: bool = False
    skipped: int = 0
    growth: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.sup_ratio) or self.sup_ratio < 0:
            raise ValueError("supRatio must be finite and nonnegative")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "samples": self.samples,
            "supRatio": self.sup_ratio,
            "argmaxPoint": {k: float(v) for k, v in self.argmax_point.items()},
            "threshold": self.threshold,
            "pass": bool(self.passed),
            "skipped": self.skipped,
        }
        if self.growth is not None:
            out["growth"] = self.growth
        return out


# --- sampling helpers -----------------------------------------------------

def _bracket(x):
    return np.sqrt(1.0 + x * x)


def _random_vectors(rng, count, radius_range):
    """Log-uniform radii over the configured range, uniform directions."""
    rmin, rmax = radius_range
    radius = np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=-1)


def _random_times(rng, count, xi_abs, eta_abs):
    """Mix of uniform and characteristic-pinned time frequencies.

    Half of the samples sit exactly on tau = +-|xi| (resp. lambda = +-|eta|),
    where the modulation weights degenerate and the bounds are tightest.
    """
    spread = 2.0 * np.maximum(xi_abs, eta_abs) + 1.0
    tau = rng.uniform(-1.0, 1.0, size=count) * spread
    lam = rng.uniform(-1.0, 1.0, size=count) * spread
    pin = rng.random(count) < 0.5
    sgn_t = rng.choice([-1.0, 1.0], size=count)
    sgn_l = rng.choice([-1.0, 1.0], size=count)
    tau = np.where(pin, sgn_t * xi_abs, tau)
    lam = np.where(pin, sgn_l * eta_abs, lam)
    return tau, lam


def _report_from_ratios(name, ratios, points, threshold, skipped=0):
    idx = int(np.argmax(ratios))
    sup = float(ratios[idx])
    argmax = {k: float(v[idx]) for k, v in points.items()}
    return BoundReport(
        name=name,
        samples=int(ratios.size),
        sup_ratio=sup,
        argmax_point=argmax,
        threshold=threshold,
        passed=sup <= threshold,
        skipped=int(skipped),
    )


# --- Gamma^1 reduced symbol ----------------------------------------------

def _gamma1_ratio(xi1, xi2, tau, eta1, eta2, lam):
    """|p| over its dominating three-part expression (vectorized)."""
    bx = np.sqrt(1.0 + xi1**2 + xi2**2)
    be = np.sqrt(1.0 + eta1**2 + eta2**2)
    dot = xi1 * eta1 + xi2 * eta2
    p = -1.0 + dot * tau * lam / (bx**2 * be**2)
    nx = np.hypot(xi1, xi2)
    ne = np.hypot(eta1, eta2)
    cross = np.abs(xi1 * eta2 - xi2 * eta1)
    with np.errstate(divide="ignore", invalid="ignore"):
        angle_term = np.where(nx * ne > 0, cross / np.where(nx * ne > 0, nx * ne, 1.0), 0.0)
    dom = angle_term + np.abs(tau * lam - dot) / (bx * be) + bx**-2 + be**-2
    return np.abs(p) / dom


def check_gamma1_symbol(cfg: SampleConfig) -> BoundReport:
    """|p| <= threshold * (|q12|/(|xi||eta|) + |tau lam - xi.eta|/(<xi><eta>)
    + <xi>^-2 + <eta>^-2) with p = -1 + (xi.eta) tau lam / (<xi>^2 <eta>^2)."""
    rng = np.random.default_rng(cfg.rng_seed)
    xi = _random_vectors(rng, cfg.count, cfg.radius_range)
    eta = _random_vectors(rng, cfg.count, cfg.radius_range)
    xi_abs = np.hypot(xi[:, 0], xi[:, 1])
    eta_abs = np.hypot(eta[:, 0], eta[:, 1])
    # stress the characteristic surface: tau ~ +-<xi>, lam ~ +-<eta> half the time
    tau, lam = _random_times(rng, cfg.count, _bracket(xi_abs), _bracket(eta_abs))
    ratios = _gamma1_ratio(xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam)
    points = {
        "xi1": xi[:, 0], "xi2": xi[:, 1], "tau": tau,
        "eta1": eta[:, 0], "eta2": eta[:, 1], "lam": lam,
    }
    return _report_from_ratios("gamma1Symbol", ratios, points, GAMMA1_THRESHOLD)


# --- Foschi-Klainerman symbol bounds --------------------------------------

def _fk_ratio(case, eta1, eta2, z1, z2):
    """Ratio of the null-form symbol at (eta, xi - eta) to its FK bound.

    z = xi - eta.  Degenerate samples (any vanishing factor) return nan.
    """
    ne = np.hypot(eta1, eta2)
    nz = np.hypot(z1, z2)
    xi1, xi2 = eta1 + z1, eta2 + z2
    nx = np.hypot(xi1, xi2)
    cross = np.abs(eta1 * z2 - eta2 * z1)
    b_plus = np.maximum(ne + nz - nx, 0.0)
    b_minus = np.maximum(nx - np.abs(ne - nz), 0.0)
    bad = (ne < DEGENERACY_EPS) | (nz < DEGENERACY_EPS) | (nx < DEGENERACY_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        if case == "ellipticQ12":
            lhs = cross / (ne * nz)
            rhs = np.sqrt(nx * b_plus / (ne * nz))
        elif case == "hyperbolicQ12":
            lhs = cross / (ne * nz)
            rhs = np.sqrt(nx * b_minus / (ne * nz))
        elif case == "ellipticQ0j":
            # elliptic signs: tau = |eta|, lam = |xi - eta|
            q1 = np.abs(ne * z1 - nz * eta1) / (ne * nz)
            q2 = np.abs(ne * z2 - nz * eta2) / (ne * nz)
            lhs = np.maximum(q1, q2)
            rhs = np.sqrt(b_plus / np.minimum(ne, nz))
        elif case == "ellipticQ0":
            lhs = np.abs(ne * nz - (eta1 * z1 + eta2 * z2)) / (ne * nz)
            rhs = b_plus / np.minimum(ne, nz)
        elif case == "hyperbolicQ0":
            # hyperbolic signs: tau = |eta|, lam = -|xi - eta|
            lhs = np.abs(-ne * nz - (eta1 * z1 + eta2 * z2)) / (ne * nz)
            rhs = nx * b_minus / (ne * nz)
        else:
            raise ValueError(f"unknown FK case {case!r}")
        ratio = lhs / rhs
    # both sides vanish on the excluded set; count as degenerate
    bad |= ~np.isfinite(ratio) & (lhs < DEGENERACY_EPS)
    ratio = np.where(bad, np.nan, ratio)
    return ratio


def check_fk_symbol_bounds(case: str, cfg: SampleConfig) -> BoundReport:
    """One of the five angular symbol bounds behind the bilinear estimates."""
    if case not in FK_CASES:
        raise ValueError(f"unknown FK case {case!r}; choose from {FK_CASES}")
    rng = np.random.default_rng(cfg.rng_seed)
    eta = _random_vectors(rng, cfg.count, cfg.radius_range)
    z = _random_vectors(rng, cfg.count, cfg.radius_range)
    # include near-collinear pairs, where the bounds degenerate to 0/0
    snap = rng.random(cfg.count) < 0.1
    scale = np.exp(rng.uniform(-2, 2, size=cfg.count))
    z[snap] = eta[snap] * scale[snap, None]
    ratios = _fk_ratio(case, eta[:, 0], eta[:, 1], z[:, 0], z[:, 1])
    good = np.isfinite(ratios)
    skipped = int(np.sum(~good))
    points = {
        "eta1": eta[good, 0], "eta2": eta[good, 1],
        "zeta1": z[good, 0], "zeta2": z[good, 1],
    }
    return _report_from_ratios(
        f"fk_{case}", ratios[good], points, FK_THRESHOLD, skipped
    )


# --- angle estimate -------------------------------------------------------

def _angle_between(x1, x2, y1, y2):
    dot = x1 * y1 + x2 * y2
    nn = np.hypot(x1, x2) * np.hypot(y1, y2)
    return np.arccos(np.clip(dot / nn, -1.0, 1.0))


def _angle_ratio(xi1, xi2, tau, eta1, eta2, lam, alpha, beta, gamma, s1, s2):
    bx = np.sqrt(1.0 + xi1**2 + xi2**2)
    be = np.sqrt(1.0 + eta1**2 + eta2**2)
    m = np.minimum(bx, be)
    nx = np.hypot(xi1, xi2)
    ne = np.hypot(eta1, eta2)
    angle = _angle_between(s1 * xi1, s1 * xi2, s2 * eta1, s2 * eta2)
    t1 = (_bracket(np.abs(tau + lam) - np.hypot(xi1 + eta1, xi2 + eta2)) / m) ** alpha
    t2 = (_bracket(-tau + s1 * nx) / m) ** beta
    t3 = (_bracket(-lam + s2 * ne) / m) ** gamma
    return angle / (t1 + t2 + t3)


def check_angle_estimate(
    cfg: SampleConfig, alpha: float, beta: float, gamma: float
) -> BoundReport:
    """Angle(+-1 xi, +-2 eta) against the three-term modulation bound,
    sup over all four sign pairs."""
    for e in (alpha, beta, gamma):
        if not 0.0 <= e <= 0.5:
            raise ValueError("exponents must lie in [0, 1/2]")
    rng = np.random.default_rng(cfg.rng_seed)
    xi = _random_vectors(rng, cfg.count, cfg.radius_range)
    eta = _random_vectors(rng, cfg.count, cfg.radius_range)
    nx = np.hypot(xi[:, 0], xi[:, 1])
    ne = np.hypot(eta[:, 0], eta[:, 1])
    tau, lam = _random_times(rng, cfg.count, nx, ne)
    best = None
    best_signs = None
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            r = _angle_ratio(
                xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam,
                alpha, beta, gamma, s1, s2,
            )
            if best is None:
                best = r
                best_signs = (np.full(cfg.count, s1), np.full(cfg.count, s2))
            else:
                upd = r > best
                best = np.where(upd, r, best)
                best_signs[0][upd] = s1
                best_signs[1][upd] = s2
    points = {
        "xi1": xi[:, 0], "xi2": xi[:, 1], "tau": tau,
        "eta1": eta[:, 0], "eta2": eta[:, 1], "lam": lam,
        "sign1": best_signs[0], "sign2": best_signs[1],
        "alpha": np.full(cfg.count, alpha),
        "beta": np.full(cfg.count, beta),
        "gamma": np.full(cfg.count, gamma),
    }
    return _report_from_ratios("angleEstimate", best, points, ANGLE_THRESHOLD)


# --- hyperbolic Leibniz rule ----------------------------------------------

def _hlr_ratio(tau, rho, xi1, xi2, eta1, eta2):
    """||tau|-|xi|| over the three-term right side with the sign-matched b.

    b_+ applies when rho and tau - rho share a sign (the characteristic
    frequencies add), b_- when they differ.
    """
    nx = np.hypot(xi1, xi2)
    ne = np.hypot(eta1, eta2)
    nz = np.hypot(xi1 - eta1, xi2 - eta2)
    lhs = np.abs(np.abs(tau) - nx)
    t1 = np.abs(np.abs(rho) - ne)
    t2 = np.abs(np.abs(tau - rho) - nz)
    same = rho * (tau - rho) >= 0.0
    b_plus = np.maximum(ne + nz - nx, 0.0)
    b_minus = np.maximum(nx - np.abs(ne - nz), 0.0)
    b = np.where(same, b_plus, b_minus)
    return lhs / np.maximum(t1 + t2 + b, DEGENERACY_EPS)


def check_hyperbolic_leibniz(cfg: SampleConfig) -> BoundReport:
    rng = np.random.default_rng(cfg.rng_seed)
    xi = _random_vectors(rng, cfg.count, cfg.radius_range)
    eta = _random_vectors(rng, cfg.count, cfg.radius_range)
    nx = np.hypot(xi[:, 0], xi[:, 1])
    ne = np.hypot(eta[:, 0], eta[:, 1])
    nz = np.hypot(xi[:, 0] - eta[:, 0], xi[:, 1] - eta[:, 1])
    # rho pinned to +-|eta| and tau - rho to +-|xi - eta| half the time
    # (the equality branch of the rule)
    rho, dtau = _random_times(rng, cfg.count, ne, nz)
    tau = rho + dtau
    ratios = _hlr_ratio(tau, rho, xi[:, 0], xi[:, 1], eta[:, 0], eta[:, 1])
    points = {
        "tau": tau, "rho": rho,
        "xi1": xi[:, 0], "xi2": xi[:, 1],
        "eta1": eta[:, 0], "eta2": eta[:, 1],
    }
    return _report_from_ratios("hyperbolicLeibniz", ratios, points, HLR_THRESHOLD)


# --- delta-function conic integrals ---------------------------------------

def delta_integral_ellipse(tau: float, xi, a: float, b: float, tol: float = 1e-8):
    """integral of delta(tau - |eta| - |xi - eta|) |eta|^-a |xi-eta|^-b d eta.

    The level set is the ellipse with foci 0 and xi and distance sum tau.
    In confocal elliptic coordinates u = r1 + r2, v = r1 - r2 (r1 = |eta|,
    r2 = |xi - eta|) the area element is
        d eta = (u^2 - v^2) / (4 sqrt(u^2 - |xi|^2) sqrt(|xi|^2 - v^2)) du dv
    per half-plane, so the delta integral reduces to an exact 1D integral in
    v, which the substitution v = |xi| sin(phi) makes bounded (smooth for
    xi -> 0).

    As tau -> |xi| the integrand peaks in endpoint layers at phi = +-pi/2 of
    width w = (2 (tau - |xi|) / |xi|)^(1/2).  There r1, r2 are taken as
    (tau - |xi|)/2 + |xi| sin^2(pi/4 +- phi/2), which avoids the cancellation
    in (tau -+ |xi| sin(phi))/2, and quad gets breakpoints at
    +-(pi/2 - k w) for k = 1, 1e2, 1e4 while k w < 0.5, so that it resolves
    the layers (checked down to tau/|xi| - 1 = 1e-13).
    """
    xi = np.asarray(xi, dtype=float)
    nxi = float(np.hypot(*xi))
    if tau <= nxi:
        raise ValueError("ellipse case requires tau > |xi|")
    half_gap = (tau - nxi) / 2.0

    def integrand(phi):
        r1 = half_gap + nxi * math.sin(math.pi / 4.0 + phi / 2.0) ** 2
        r2 = half_gap + nxi * math.sin(math.pi / 4.0 - phi / 2.0) ** 2
        return 4.0 * r1 ** (1.0 - a) * r2 ** (1.0 - b)  # (tau^2 - v^2) r1^-a r2^-b

    edge = math.pi / 2.0
    breaks = []
    if nxi > 0.0:
        w = math.sqrt(2.0 * (tau - nxi) / nxi)
        breaks = [s * (edge - k * w) for k in (1.0, 1e2, 1e4) if k * w < 0.5
                  for s in (-1.0, 1.0)]
    val, _ = quad(integrand, -edge, edge, epsrel=tol, epsabs=0.0, limit=200,
                  points=breaks or None)
    return float(val / (2.0 * np.sqrt(tau**2 - nxi**2)))


def delta_integral_hyperbola(tau: float, xi, a: float, b: float, tol: float = 1e-8):
    """integral of delta(tau - |eta| + |xi - eta|) |eta|^-a |xi-eta|^-b d eta.

    The level set {|eta| - |xi - eta| = tau} with 0 < |tau| < |xi| is one
    branch of the confocal hyperbola; fixing v = r1 - r2 = tau and
    integrating the same area element over u = r1 + r2 = |xi| cosh(psi)
    gives an exact smooth 1D integral.  Requires a + b > 2 for convergence
    at infinity (the integrand decays like u^(2 - a - b)).
    """
    xi = np.asarray(xi, dtype=float)
    nxi = float(np.hypot(*xi))
    if not 0.0 < abs(tau) < nxi:
        raise ValueError("hyperbola case requires 0 < |tau| < |xi|")
    if a + b <= 2.0:
        raise ValueError("need a + b > 2 for a convergent hyperbola integral")
    # cap the cosh argument well inside overflow while far past any
    # tolerance: the tail beyond u = |xi| cosh(cap) is ~ u^(2-a-b)
    cap = min(700.0, max(60.0, 60.0 / (a + b - 2.0)))

    def integrand(psi):
        u = nxi * np.cosh(psi)
        r1 = (u + tau) / 2.0
        r2 = (u - tau) / 2.0
        return (u**2 - tau**2) * r1 ** (-a) * r2 ** (-b)

    val, _ = quad(integrand, 0.0, cap, epsrel=tol, epsabs=0.0, limit=400)
    return float(val / (2.0 * np.sqrt(nxi**2 - tau**2)))


def elliptic_i(tau: float, xi, r: float, tol: float = 1e-8) -> float:
    """The elliptic-case quantity
    I = |xi|^(1/2) ||tau|-|xi||^(1/2) (integral)^{1/r} with the weights
    |eta|^{-1-r/2} |xi-eta|^{-r/2} on the ellipse."""
    xi = np.asarray(xi, dtype=float)
    nxi = float(np.hypot(*xi))
    integral = delta_integral_ellipse(tau, xi, 1.0 + r / 2.0, r / 2.0, tol)
    return float(
        nxi**0.5 * abs(abs(tau) - nxi) ** 0.5 * integral ** (1.0 / r)
    )


def elliptic_i_sweep(
    count: int, r: float = 1.1, rng_seed: int = 0, radius_range=(1e-2, 1e2)
):
    """Sweep I(tau, xi) over random (tau, xi) with tau > |xi|.

    Returns (sup, argmax dict, values).  tau/|xi| is sampled log-uniformly in
    (1, 1e3] to cover both the near-degenerate and the far-elliptic regime.
    """
    rng = np.random.default_rng(rng_seed)
    sup, arg = -1.0, None
    values = np.empty(count)
    for k in range(count):
        nxi = np.exp(rng.uniform(np.log(radius_range[0]), np.log(radius_range[1])))
        tau = nxi * (1.0 + np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
        val = elliptic_i(tau, (nxi, 0.0), r)
        values[k] = val
        if val > sup:
            sup, arg = val, {"tau": tau, "xiAbs": nxi, "r": r}
    return sup, arg, values


# --- empirical multilinear constants on grids -----------------------------

def _half_space_sign(grid: TorusGrid) -> np.ndarray:
    """+1 on one half of frequency space, -1 on the mirror half, 0 at k=0."""
    k1, k2 = grid.rfreqs
    s = np.sign(k2)
    s = np.where(s == 0, np.sign(k1), s)
    return s


def _free_wave_pair(
    spec, grid, rng, s_weight: float, r: float, band: float
) -> SpacetimePair:
    """Random real free-wave data with unit weighted-norm proxy.

    hat(u) is Hermitian white noise band-limited to |k| <= band < N/2; the
    time derivative is the free half-wave flow d_t uhat = -i sgn |k| H(k) uhat
    with a random global sign and H the Hermitian-compatible half-space
    orientation.  The X^r_{s,b} proxy drops the modulation weight (free
    waves are delta-supported there) and normalizes the spatial weight.
    """
    noise = rng.standard_normal((spec.dim, grid.N, grid.N))
    hat = np.fft.rfft2(noise) / grid.N**2
    hat *= grid.xi_abs <= band
    sign = rng.choice([-1.0, 1.0])
    hat = hat / weighted_hat_norm(grid, hat, s_weight, r)
    dhat = -1j * sign * grid.xi_abs * _half_space_sign(grid) * hat
    return SpacetimePair(GridField.from_rhat(spec, grid, hat),
                         GridField.from_rhat(spec, grid, dhat))


def _deriv_variants(p: SpacetimePair):
    """The two first-derivative channels used for a generic 'partial u'."""
    return (SpacetimePair(p.time_deriv, p.time_deriv), p.dx(1))


def _pair_product(x: SpacetimePair, y: SpacetimePair):
    return x.value.bracket(y.value)


def _expression_norms(estimate_id, grid, pairs, s, l, r):
    """Output-norm candidates of the named multilinear expression.

    pairs: enough independent unit-norm free-wave inputs (A-type at weight s,
    F-type at weight l as needed).  Returns a list of output norms; the
    caller takes the max.
    """
    A1, A2, A3, A4 = pairs["A"]
    F1, F2 = pairs["F"]

    def out(field, weight):
        return weighted_hat_norm(grid, field.rhat, weight, r)

    qset = ("Q01", "Q12")
    res = []
    if estimate_id == 21:
        for q in qset:
            res.append(out(null_form(q, A1.lambda_pow(-1.0), A2), s - 1.0))
    elif estimate_id == 22:
        for d in _deriv_variants(A2):
            res.append(
                out(
                    null_form("Q12", A1.lambda_pow(-1.0), d.lambda_pow(-1.0)),
                    s - 1.0,
                )
            )
    elif estimate_id == 23:
        for q in qset:
            res.append(out(null_form(q, A1.lambda_pow(-1.0), F1), l - 1.0))
    elif estimate_id == 24:
        for q in qset:
            res.append(out(null_form(q, A1, A2), l - 1.0))
    elif estimate_id == 25:
        res.append(out(null_form("Q0", A1, A2), l - 1.0))
    elif estimate_id == 26:
        for d in _deriv_variants(A2):
            res.append(out(gamma1(A1, d), s - 1.0))
    elif estimate_id == 27:
        for d in _deriv_variants(A2):
            res.append(out(_pair_product(A1, d.lambda_pow(-2.0)), s - 1.0))
    elif estimate_id == 28:
        for d in _deriv_variants(A2):
            res.append(out(_pair_product(A1.lambda_pow(-2.0), d), s - 1.0))
    elif estimate_id == 29:
        for d in _deriv_variants(F2):
            res.append(
                out(
                    _pair_product(F1.lambda_pow(-1.0), d.lambda_pow(-1.0)),
                    s - 1.0,
                )
            )
    elif estimate_id == 30:
        for d in _deriv_variants(F1):
            res.append(out(_pair_product(A1.lambda_pow(-2.0), d), l - 1.0))
    elif estimate_id == 31:
        for d in _deriv_variants(A2):
            res.append(out(_pair_product(A1.lambda_pow(-1.0), d), l - 1.0))
    elif estimate_id in (32, 33, 34):
        aa = SpacetimePair(
            _pair_product(A1, A2),
            _pair_product(
                SpacetimePair(A1.time_deriv, A1.time_deriv), A2
            )
            + _pair_product(A1, SpacetimePair(A2.time_deriv, A2.time_deriv)),
        )
        if estimate_id == 32:
            for d in _deriv_variants(aa):
                res.append(
                    out(
                        _pair_product(F1.lambda_pow(-1.0), d.lambda_pow(-1.0)),
                        s - 1.0,
                    )
                )
        elif estimate_id == 33:
            for d in _deriv_variants(F1):
                res.append(
                    out(
                        _pair_product(d.lambda_pow(-1.0), aa.lambda_pow(-1.0)),
                        s - 1.0,
                    )
                )
        else:
            bb = SpacetimePair(_pair_product(A3, A4), _pair_product(A3, A4))
            for d in _deriv_variants(bb):
                res.append(
                    out(
                        _pair_product(aa.lambda_pow(-1.0), d.lambda_pow(-1.0)),
                        s - 1.0,
                    )
                )
    elif estimate_id == 35:
        inner = _pair_product(A2, A3)
        res.append(
            out(_pair_product(A1, SpacetimePair(inner, inner)), s - 1.0)
        )
    elif estimate_id == 36:
        inner = _pair_product(A2, F1)
        res.append(
            out(_pair_product(A1, SpacetimePair(inner, inner)), l - 1.0)
        )
    elif estimate_id == 37:
        left = _pair_product(A1, A2)
        right = _pair_product(A3, A4)
        res.append(
            out(
                _pair_product(
                    SpacetimePair(left, left), SpacetimePair(right, right)
                ),
                l - 1.0,
            )
        )
    else:
        raise ValueError(f"unknown estimate id {estimate_id}")
    return res


def _sup_constant(estimate_id, spec, grid, rng, trials, s, l, r):
    sup = 0.0
    arg = {}
    band = grid.N / 4.0
    for trial in range(trials):
        pairs = {
            "A": [_free_wave_pair(spec, grid, rng, s, r, band) for _ in range(4)],
            "F": [_free_wave_pair(spec, grid, rng, l, r, band) for _ in range(2)],
        }
        val = max(_expression_norms(estimate_id, grid, pairs, s, l, r))
        if val > sup:
            sup = val
            arg = {"trial": trial, "N": grid.N}
    return sup, arg


def empirical_bilinear_constant(
    estimate_id: int,
    n_grid: int = 32,
    cfg: SampleConfig | None = None,
    s: float = 0.8,
    l: float = -0.2,
    trials: int = 6,
    spec: AlgebraSpec | None = None,
) -> BoundReport:
    """Empirical constant of a catalogued multilinear estimate on grids.

    Inputs are unit-proxy-norm free waves band-limited to |k| <= N/4; the
    report's supRatio is the largest output norm observed over the trials at
    resolution N, and growth is the factor between N and 2N (the pass
    criterion: resolution-stable constants grow by at most 2 per doubling).
    """
    if estimate_id not in ESTIMATE_IDS:
        raise ValueError(
            f"unknown estimate id {estimate_id}; valid: {ESTIMATE_IDS}"
        )
    cfg = cfg or SampleConfig(count=1)
    spec = spec or su(2)
    r = cfg.r_exponent
    sup_small = 0.0
    arg = {}
    sups = {}
    for N in (n_grid, 2 * n_grid):
        rng = np.random.default_rng(cfg.rng_seed)
        grid = TorusGrid(N)
        sups[N], a = _sup_constant(estimate_id, spec, grid, rng, trials, s, l, r)
        if N == n_grid:
            sup_small, arg = sups[N], a
    growth = sups[2 * n_grid] / max(sup_small, 1e-300)
    arg = dict(arg)
    arg.update({"s": s, "l": l, "r": r, "seed": cfg.rng_seed, "trials": trials})
    return BoundReport(
        name=f"estimate{estimate_id}",
        samples=trials,
        sup_ratio=sup_small,
        argmax_point=arg,
        threshold=GROWTH_THRESHOLD,
        passed=growth <= GROWTH_THRESHOLD,
        growth=float(growth),
    )


# --- audit ----------------------------------------------------------------

def evaluate_point(name: str, point: dict) -> float:
    """Recompute the ratio of a sampled check at a recorded argmax point."""
    p = {k: float(v) for k, v in point.items()}
    if name == "gamma1Symbol":
        return float(
            _gamma1_ratio(
                np.array([p["xi1"]]), np.array([p["xi2"]]), np.array([p["tau"]]),
                np.array([p["eta1"]]), np.array([p["eta2"]]), np.array([p["lam"]]),
            )[0]
        )
    if name.startswith("fk_"):
        return float(
            _fk_ratio(
                name[3:],
                np.array([p["eta1"]]), np.array([p["eta2"]]),
                np.array([p["zeta1"]]), np.array([p["zeta2"]]),
            )[0]
        )
    if name == "angleEstimate":
        return float(
            _angle_ratio(
                np.array([p["xi1"]]), np.array([p["xi2"]]), np.array([p["tau"]]),
                np.array([p["eta1"]]), np.array([p["eta2"]]), np.array([p["lam"]]),
                p["alpha"], p["beta"], p["gamma"], p["sign1"], p["sign2"],
            )[0]
        )
    if name == "hyperbolicLeibniz":
        return float(
            _hlr_ratio(
                np.array([p["tau"]]), np.array([p["rho"]]),
                np.array([p["xi1"]]), np.array([p["xi2"]]),
                np.array([p["eta1"]]), np.array([p["eta2"]]),
            )[0]
        )
    raise ValueError(f"no point evaluator for report {name!r}")


def run_symbol_suite(cfg: SampleConfig) -> list:
    """The full sampled symbol layer: Gamma^1, five FK cases, the angle
    estimate at (1/2, 1/2, 1/2), and the hyperbolic Leibniz rule."""
    reports = [check_gamma1_symbol(cfg)]
    for case in FK_CASES:
        reports.append(check_fk_symbol_bounds(case, cfg))
    reports.append(check_angle_estimate(cfg, 0.5, 0.5, 0.5))
    reports.append(check_hyperbolic_leibniz(cfg))
    return reports
