"""Numerical witnesses for the inequality layer.

Three kinds of desk-scale evidence back the estimate machinery:

  * pointwise symbol bounds, checked by large vectorized random sampling
    (the Gamma^1 reduced symbol, the Foschi-Klainerman angle bounds for the
    homogeneous null-form symbols, the angle estimate, and the hyperbolic
    Leibniz rule);
  * delta-function surface integrals over the ellipses |eta| + |xi-eta| = tau,
    by adaptive quadrature along the parametrized conic, including the
    elliptic-case quantity I(tau, xi) whose uniform boundedness drives the
    bilinear null-form estimate;
  * empirical constants for the catalogued bilinear/multilinear estimates on
    grids, using free-wave inputs (delta-supported in the modulation
    variable) as discrete proxies for the X^r_{s,b} norms -- the proxy choice
    is recorded in every report.

Two tables declare the catalogue, each entry once: ESTIMATES maps an
estimate id to the weight of its output norm and its expression on the
inputs (ESTIMATE_IDS is its keys), and AUDITS maps a sampled report's name to
its ratio function and the keys of its argmax point, in argument order; each
check records its argmax point under those keys and evaluate_point recomputes
the ratio from them.

Thresholds are artifact conventions (the underlying "<=" constants are
absolute but never stated); what is witnessed is a finite, stable sup over
large samples, plus resolution-stability for the grid sweeps.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
import functools
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

DEGENERACY_EPS = 1e-12

# Samples per slice of a ratio evaluation: the temporaries of one slice
# (128 KB each) stay in L2, and the count is a multiple of the SIMD width, so
# every slice but the last has no tail loop.
SAMPLE_BLOCK = 16_384


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
        # beyond this float64 reads <xi> as |xi|, so the sampled symbols are
        # not the ones the reports name (r * r overflows to inf, not an error)
        if 1.0 + rmax * rmax == rmax * rmax:
            raise ValueError("rMax too large: 1 + rMax^2 must exceed rMax^2 in float64")
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


def _vector_draws(cfg, shared=None):
    """The two vector sets every sampled check starts from, and the generator
    in its state after them.

    shared is the result of a call without it; the arrays are reused as they
    are (the checks only read them) and the generator is copied, so each
    check draws what it would draw on its own."""
    if shared is None:
        rng = np.random.default_rng(cfg.rng_seed)
        first = _random_vectors(rng, cfg.count, cfg.radius_range)
        second = _random_vectors(rng, cfg.count, cfg.radius_range)
        return first, second, rng
    first, second, rng = shared
    return first, second, copy.deepcopy(rng)


def _blockwise(ratio):
    """Evaluate an elementwise ratio on SAMPLE_BLOCK slices of its array
    arguments (other arguments are passed as they are); equal bit for bit to
    one call on the whole arrays."""

    @functools.wraps(ratio)
    def blocked(*args):
        n = max(a.shape[0] for a in args if isinstance(a, np.ndarray))
        if n <= SAMPLE_BLOCK:
            return ratio(*args)
        out = np.empty(n)
        for lo in range(0, n, SAMPLE_BLOCK):
            part = slice(lo, lo + SAMPLE_BLOCK)
            out[part] = ratio(*(a[part] if isinstance(a, np.ndarray) else a
                                for a in args))
        return out

    return blocked


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


def _report_from_ratios(name, ratios, args, threshold, skipped=0):
    """The report of a sampled check; args are the sample arrays of its ratio
    arguments, recorded at the argmax under the keys AUDITS gives them."""
    idx = int(np.argmax(ratios))
    sup = float(ratios[idx])
    argmax = {k: float(v[idx]) for k, v in zip(AUDITS[name][1], args)}
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

@_blockwise
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


def check_gamma1_symbol(cfg: SampleConfig, shared=None) -> BoundReport:
    """|p| <= threshold * (|q12|/(|xi||eta|) + |tau lam - xi.eta|/(<xi><eta>)
    + <xi>^-2 + <eta>^-2) with p = -1 + (xi.eta) tau lam / (<xi>^2 <eta>^2).

    shared: the suite's `_vector_draws`; drawn here when not given."""
    xi, eta, rng = _vector_draws(cfg, shared)
    xi_abs = np.hypot(xi[:, 0], xi[:, 1])
    eta_abs = np.hypot(eta[:, 0], eta[:, 1])
    # stress the characteristic surface: tau ~ +-<xi>, lam ~ +-<eta> half the time
    tau, lam = _random_times(rng, cfg.count, _bracket(xi_abs), _bracket(eta_abs))
    args = (xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam)
    return _report_from_ratios("gamma1Symbol", _gamma1_ratio(*args), args,
                               GAMMA1_THRESHOLD)


# --- Foschi-Klainerman symbol bounds --------------------------------------

@_blockwise
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


def _fk_vectors(cfg, shared=None):
    """(eta, z = xi - eta) for the FK cases: the shared draws with a tenth of
    z snapped onto the line of eta."""
    eta, z, rng = _vector_draws(cfg, shared)
    # include near-collinear pairs, where the bounds degenerate to 0/0
    snap = rng.random(cfg.count) < 0.1
    scale = np.exp(rng.uniform(-2, 2, size=cfg.count))
    z = z.copy()  # the drawn z is another check's eta
    z[snap] = eta[snap] * scale[snap, None]
    return eta, z


def check_fk_symbol_bounds(case: str, cfg: SampleConfig, vectors=None) -> BoundReport:
    """One of the five angular symbol bounds behind the bilinear estimates.

    vectors: the suite's `_fk_vectors`, shared by the five cases; drawn here
    when not given."""
    if case not in FK_CASES:
        raise ValueError(f"unknown FK case {case!r}; choose from {FK_CASES}")
    eta, z = vectors if vectors is not None else _fk_vectors(cfg)
    args = (eta[:, 0], eta[:, 1], z[:, 0], z[:, 1])
    ratios = _fk_ratio(case, *args)
    good = np.isfinite(ratios)
    return _report_from_ratios(f"fk_{case}", ratios[good], [a[good] for a in args],
                               FK_THRESHOLD, np.sum(~good))


# --- angle estimate -------------------------------------------------------

def _angle_between(x1, x2, y1, y2):
    dot = x1 * y1 + x2 * y2
    nn = np.hypot(x1, x2) * np.hypot(y1, y2)
    return np.arccos(np.clip(dot / nn, -1.0, 1.0))


@_blockwise
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
    cfg: SampleConfig, alpha: float, beta: float, gamma: float, shared=None
) -> BoundReport:
    """Angle(+-1 xi, +-2 eta) against the three-term modulation bound,
    sup over all four sign pairs."""
    for e in (alpha, beta, gamma):
        if not 0.0 <= e <= 0.5:
            raise ValueError("exponents must lie in [0, 1/2]")
    xi, eta, rng = _vector_draws(cfg, shared)
    nx = np.hypot(xi[:, 0], xi[:, 1])
    ne = np.hypot(eta[:, 0], eta[:, 1])
    tau, lam = _random_times(rng, cfg.count, nx, ne)
    args = (xi[:, 0], xi[:, 1], tau, eta[:, 0], eta[:, 1], lam)
    best = None
    best_signs = None
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            r = _angle_ratio(*args, alpha, beta, gamma, s1, s2)
            if best is None:
                best = r
                best_signs = (np.full(cfg.count, s1), np.full(cfg.count, s2))
            else:
                upd = r > best
                best = np.where(upd, r, best)
                best_signs[0][upd] = s1
                best_signs[1][upd] = s2
    exponents = (np.full(cfg.count, e) for e in (alpha, beta, gamma))
    return _report_from_ratios("angleEstimate", best, (*args, *exponents, *best_signs),
                               ANGLE_THRESHOLD)


# --- hyperbolic Leibniz rule ----------------------------------------------

@_blockwise
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


def check_hyperbolic_leibniz(cfg: SampleConfig, shared=None) -> BoundReport:
    xi, eta, rng = _vector_draws(cfg, shared)
    nx = np.hypot(xi[:, 0], xi[:, 1])
    ne = np.hypot(eta[:, 0], eta[:, 1])
    nz = np.hypot(xi[:, 0] - eta[:, 0], xi[:, 1] - eta[:, 1])
    # rho pinned to +-|eta| and tau - rho to +-|xi - eta| half the time
    # (the equality branch of the rule)
    rho, dtau = _random_times(rng, cfg.count, ne, nz)
    args = (rho + dtau, rho, xi[:, 0], xi[:, 1], eta[:, 0], eta[:, 1])
    return _report_from_ratios("hyperbolicLeibniz", _hlr_ratio(*args), args,
                               HLR_THRESHOLD)


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


def elliptic_i_limit(r: float) -> float:
    """The limit of I(tau, xi) as tau -> |xi| from above, for r > 1:
    (2^{r/2} sqrt(pi) Gamma((r-1)/2) / Gamma(r/2))^{1/r}, approached as
    I_inf - I ~ c eps^{(r-1)/2} at tau/|xi| = 1 + eps.  The endpoint layer of
    width (2 eps)^{1/2} at the focus eta = 0 carries the integral
    ~ eps^{(1-r)/2}, which the prefactor of I cancels exactly."""
    return (2.0 ** (r / 2.0) * math.sqrt(math.pi) * math.gamma((r - 1.0) / 2.0)
            / math.gamma(r / 2.0)) ** (1.0 / r)


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
    """The two first-derivative channels (d_t u, d_1 u) used for a generic
    'partial u', as plain fields."""
    return (p.time_deriv, p.value.dx(1))


def _free_wave_deriv_variants(p: SpacetimePair):
    """The channels of _deriv_variants as SpacetimePairs, for a free wave u:
    d_t (d_t u) = d_t^2 u = Laplace u."""
    return (SpacetimePair(p.time_deriv, p.value.laplacian()), p.dx(1))


def _bracket_pair(u: SpacetimePair, v: SpacetimePair) -> SpacetimePair:
    """[u, v] with its time derivative [d_t u, v] + [u, d_t v]."""
    return SpacetimePair(u.value.bracket(v.value),
                         u.time_deriv.bracket(v.value) + u.value.bracket(v.time_deriv))


def _lowered_brackets(lefts, rights):
    """[Lambda^-1 x, Lambda^-1 y] for each x in lefts and y in rights."""
    return [x.lambda_pow(-1.0).bracket(y.lambda_pow(-1.0)) for x in lefts for y in rights]


_QSET = ("Q01", "Q12")

# estimate id -> (output weight "s" or "l": its norms are taken at s - 1 or
# l - 1; expression: the output fields made from the A-type inputs
# A = (A1, ..., A4) and the F-type inputs F = (F1, F2), A[0] being A1)
ESTIMATES = {
    21: ("s", lambda A, F: [null_form(q, A[0].lambda_pow(-1.0), A[1]) for q in _QSET]),
    22: ("s", lambda A, F: [null_form("Q12", A[0].lambda_pow(-1.0), d.lambda_pow(-1.0))
                            for d in _free_wave_deriv_variants(A[1])]),
    23: ("l", lambda A, F: [null_form(q, A[0].lambda_pow(-1.0), F[0]) for q in _QSET]),
    24: ("l", lambda A, F: [null_form(q, A[0], A[1]) for q in _QSET]),
    25: ("l", lambda A, F: [null_form("Q0", A[0], A[1])]),
    26: ("s", lambda A, F: [gamma1(A[0], d) for d in _free_wave_deriv_variants(A[1])]),
    27: ("s", lambda A, F: [A[0].value.bracket(d.lambda_pow(-2.0))
                            for d in _deriv_variants(A[1])]),
    28: ("s", lambda A, F: [A[0].value.lambda_pow(-2.0).bracket(d)
                            for d in _deriv_variants(A[1])]),
    29: ("s", lambda A, F: _lowered_brackets([F[0].value], _deriv_variants(F[1]))),
    30: ("l", lambda A, F: [A[0].value.lambda_pow(-2.0).bracket(d)
                            for d in _deriv_variants(F[0])]),
    31: ("l", lambda A, F: [A[0].value.lambda_pow(-1.0).bracket(d)
                            for d in _deriv_variants(A[1])]),
    32: ("s", lambda A, F: _lowered_brackets(
        [F[0].value], _deriv_variants(_bracket_pair(A[0], A[1])))),
    33: ("s", lambda A, F: _lowered_brackets(
        _deriv_variants(F[0]), [A[0].value.bracket(A[1].value)])),
    34: ("s", lambda A, F: _lowered_brackets(
        [A[0].value.bracket(A[1].value)], _deriv_variants(_bracket_pair(A[2], A[3])))),
    35: ("s", lambda A, F: [A[0].value.bracket(A[1].value.bracket(A[2].value))]),
    36: ("l", lambda A, F: [A[0].value.bracket(A[1].value.bracket(F[0].value))]),
    37: ("l", lambda A, F: [A[0].value.bracket(A[1].value).bracket(
        A[2].value.bracket(A[3].value))]),
}

ESTIMATE_IDS = tuple(ESTIMATES)


def _expression_norms(estimate_id, grid, pairs, s, l, r):
    """Output norms of an estimate's expression on the unit-norm free-wave
    inputs pairs = {"A": [A1, ..., A4], "F": [F1, F2]}; the caller takes the
    max."""
    weight, expression = ESTIMATES[estimate_id]
    w = {"s": s, "l": l}[weight] - 1.0
    return [weighted_hat_norm(grid, f.rhat, w, r)
            for f in expression(pairs["A"], pairs["F"])]


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

# report name -> (its ratio function, the keys of its argmax point in argument
# order); each sampled check records its argmax point under these keys
AUDITS = {
    "gamma1Symbol": (_gamma1_ratio, ("xi1", "xi2", "tau", "eta1", "eta2", "lam")),
    **{f"fk_{case}": (functools.partial(_fk_ratio, case),
                      ("eta1", "eta2", "zeta1", "zeta2")) for case in FK_CASES},
    "angleEstimate": (_angle_ratio, ("xi1", "xi2", "tau", "eta1", "eta2", "lam",
                                     "alpha", "beta", "gamma", "sign1", "sign2")),
    "hyperbolicLeibniz": (_hlr_ratio, ("tau", "rho", "xi1", "xi2", "eta1", "eta2")),
}

# the ratio arguments a check passes as Python floats (the others are sample
# arrays); the audit passes them the same way, since numpy's power by a float
# and by an array can differ in the last bit
_SCALAR_KEYS = frozenset(("alpha", "beta", "gamma", "sign1", "sign2"))


def evaluate_point(name: str, point: dict) -> float:
    """Recompute the ratio of a sampled check at a recorded argmax point."""
    if name not in AUDITS:
        raise ValueError(f"no point evaluator for report {name!r}")
    ratio, keys = AUDITS[name]
    args = (float(point[k]) if k in _SCALAR_KEYS else np.array([float(point[k])])
            for k in keys)
    return float(ratio(*args)[0])


def run_symbol_suite(cfg: SampleConfig) -> list:
    """The full sampled symbol layer: Gamma^1, five FK cases, the angle
    estimate at (1/2, 1/2, 1/2), and the hyperbolic Leibniz rule.

    The two vector sets are drawn once and read by every check; each report
    equals the one its check makes on its own."""
    shared = _vector_draws(cfg)
    reports = [check_gamma1_symbol(cfg, shared)]
    fk = _fk_vectors(cfg, shared)
    for case in FK_CASES:
        reports.append(check_fk_symbol_bounds(case, cfg, fk))
    reports.append(check_angle_estimate(cfg, 0.5, 0.5, 0.5, shared))
    reports.append(check_hyperbolic_leibniz(cfg, shared))
    return reports
