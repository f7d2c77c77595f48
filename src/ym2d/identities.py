"""Exact plane-wave witnesses for the algebraic identities behind the
reformulated system.

Every check reads the random Lorenz-compatible plane-wave fields of one seed
(`seed_inputs`), evaluates both sides of one identity with the exact mode
calculus, and returns the residual norm (max coefficient magnitude of the
difference).  All identities are exact, so residuals are at rounding level;
the suite treats <= 1e-10 as a pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import AlgebraSpec
from .nullforms import SpacetimePair, null_form
from .planewave import lorenz_compatible, random_field
from .ym import (
    FieldState,
    _k_factors,
    _raised_sum,
    _sum,
    assemble_rhs,
    curvature,
    data_from_potential,
    gamma_terms,
    ym4_rhs,
    ymf2_rhs,
)

DEFAULT_SCALE = 0.3
DEFAULT_MODES = 4


def _lorenz_state(spec: AlgebraSpec, seed: int, scale: float, modes: int) -> FieldState:
    a0, a1, a2 = lorenz_compatible(spec, modes, seed, scale)
    A = tuple(SpacetimePair.from_planewave(u) for u in (a0, a1, a2))
    F = tuple(SpacetimePair(f, f.dt()) for f in curvature(A))
    return FieldState(A, F)


def _phi(spec, seed, scale, modes):
    rng = np.random.default_rng(seed + 10_000)
    return random_field(spec, modes, rng, scale=scale)


class SeedInputs(NamedTuple):
    """The fields every check of one seed reads: a Lorenz-compatible state
    (its F slots are the curvature F[A] of its potential), an independent
    test field phi and the direct expansion ym4_rhs of the potential."""

    state: FieldState
    phi: SpacetimePair
    ym4: tuple


def seed_inputs(
    spec: AlgebraSpec, seed: int, scale: float = DEFAULT_SCALE, modes: int = DEFAULT_MODES
) -> SeedInputs:
    """Build the inputs of one seed; the checks only read them."""
    state = _lorenz_state(spec, seed, scale, modes)
    return SeedInputs(
        state,
        SpacetimePair.from_planewave(_phi(spec, seed, scale, modes)),
        ym4_rhs(state.A),
    )


def _raised_bracket_sum(A, phi_pair, deriv_of_A=False):
    """[A^alpha, d_alpha phi] (or [d_t A^alpha, d_alpha phi])."""
    left = [p.time_deriv if deriv_of_A else p.value for p in A]
    return _raised_sum([u.bracket(phi_pair.deriv(al)) for al, u in enumerate(left)])


def check_nullform_trick(inputs: SeedInputs) -> float:
    """[d_a u, d_b u] = (1/2) Q_{ab}[u, u] for all index pairs."""
    u = inputs.phi
    worst = 0.0
    for kind, (a, b) in (("Q01", (0, 1)), ("Q02", (0, 2)), ("Q12", (1, 2))):
        lhs = u.deriv(a).bracket(u.deriv(b))
        rhs = 0.5 * null_form(kind, u, u, commutator=True)
        worst = max(worst, (lhs - rhs).norm())
    return worst


def check_null0(inputs: SeedInputs) -> float:
    """[A^a, d_a phi] = calligraphic_q(Lambda^{-1}A, phi)
    + [Lambda^{-2}A^a, d_a phi] in Lorenz gauge, as sum_a [K_a(A), d_a phi]
    on the factors K_a(A) that assemble_rhs brackets."""
    st, phi = inputs.state, inputs.phi
    lhs = _raised_bracket_sum(st.A, phi)
    rhs = _sum([k.bracket(phi.deriv(al)) for al, k in enumerate(_k_factors(st.A))])
    return (lhs - rhs).norm()


def check_null1(inputs: SeedInputs) -> float:
    """[d_t A^a, d_a phi] = sum_i Q_{0i}[A_i, phi] in Lorenz gauge."""
    st, phi = inputs.state, inputs.phi
    lhs = _raised_bracket_sum(st.A, phi, deriv_of_A=True)
    rhs = null_form("Q01", st.A[1], phi) + null_form("Q02", st.A[2], phi)
    return (lhs - rhs).norm()


def _null23_pieces(st, phi):
    """Shared operands of the ordered-product decompositions."""
    a0, a1, a2 = (p.lambda_pow(-1.0) for p in st.A)
    w = a2.riesz(1) - a1.riesz(2)  # Lambda^{-1}(R^1 A_2 - R_2 A_1)
    r = (a0.riesz(1), a0.riesz(2))  # Lambda^{-1} R^i A_0
    smooth = tuple(p.lambda_pow(-2.0) for p in st.A)
    return w, r, smooth


def check_null2(inputs: SeedInputs) -> float:
    """Ordered product version:
    A^a d_a phi = -Q12(w, phi) + Q_{i0}(Lambda^{-1}R^i A_0, phi)
                  + Lambda^{-2}A^a d_a phi."""
    st, phi = inputs.state, inputs.phi

    def prod_sum(A):
        return _raised_sum([p.value @ phi.deriv(al) for al, p in enumerate(A)])

    lhs = prod_sum(st.A)
    w, r, smooth = _null23_pieces(st, phi)
    rhs = -1.0 * null_form("Q12", w, phi, commutator=False)
    for i in (1, 2):
        # Q_{i0}(u, v) = -Q_{0i}(u, v)
        rhs = rhs - null_form(f"Q0{i}", r[i - 1], phi, commutator=False)
    rhs = rhs + prod_sum(smooth)
    return (lhs - rhs).norm()


def check_null3(inputs: SeedInputs) -> float:
    """Mirror of check_null2 with phi on the left:
    d_a phi A^a = +Q12(phi, w) + Q_{0i}(phi, Lambda^{-1}R^i A_0)
                  + d_a phi Lambda^{-2} A^a.

    (Deriving the mirrored decomposition from scratch gives the opposite
    signs on both null-form terms compared to the ordered version with A on
    the left; only this sign choice makes the identity exact, and it is the
    one consistent with the combined commutator decomposition.)"""
    st, phi = inputs.state, inputs.phi

    def prod_sum(A):
        return _raised_sum([phi.deriv(al) @ p.value for al, p in enumerate(A)])

    lhs = prod_sum(st.A)
    w, r, smooth = _null23_pieces(st, phi)
    rhs = null_form("Q12", phi, w, commutator=False)
    for i in (1, 2):
        rhs = rhs + null_form(f"Q0{i}", phi, r[i - 1], commutator=False)
    rhs = rhs + prod_sum(smooth)
    return (lhs - rhs).norm()


def check_gamma_decomposition(inputs: SeedInputs) -> float:
    """[A^a, d_b A_a] = sum_{i=1..4} Gamma^i_b for b = 0, 1, 2."""
    st = inputs.state
    a12 = st.A[1].value.bracket(st.A[2].value)
    worst = 0.0
    for beta in range(3):
        lhs = _raised_sum([p.value.bracket(p.deriv(beta)) for p in st.A])
        rhs = _sum(gamma_terms(st, beta, a12))
        worst = max(worst, (lhs - rhs).norm())
    return worst


def check_af_equivalence(inputs: SeedInputs) -> float:
    """Assembled (M, N) equal the direct wave-equation right sides."""
    st = inputs.state
    m0, m1, m2, n01, n02, n12 = assemble_rhs(st)
    z = ymf2_rhs(st)
    worst = 0.0
    for lhs, rhs in zip((m0, m1, m2, n01, n02, n12), (*inputs.ym4, *z)):
        worst = max(worst, (lhs - rhs).norm())
    return worst


def check_scaling_covariance(inputs: SeedInputs) -> float:
    """The wave operator residual S(A) = Box A - rhs scales as
    S(A_lam) = lam^3 S(A)(lam t, lam x) for A_lam = lam A(lam t, lam x)."""

    def box(u):
        return u.dt().dt() - u.dx(1).dx(1) - u.dx(2).dx(2)

    st = inputs.state
    residual = [box(p.value) - r for p, r in zip(st.A, inputs.ym4)]
    worst = 0.0
    for lam in (2.0, 0.5):
        A_lam = tuple(
            SpacetimePair.from_planewave(lam * p.value.rescale(lam)) for p in st.A
        )
        rhs_lam = ym4_rhs(A_lam)
        for beta in range(3):
            s_lam = box(A_lam[beta].value) - rhs_lam[beta]
            diff = s_lam - (lam**3) * residual[beta].rescale(lam)
            worst = max(worst, diff.norm())
    return worst


def check_data_consistency(inputs: SeedInputs) -> float:
    """Curvature data construction agrees with F[A] at t = 0 (the state's F
    slots), and its fdot12 = d_1 adot_2 - d_2 adot_1 + [adot_1, a_2] +
    [a_1, adot_2] with the exact time derivative of the F12 slot.  The fdot0i
    terms use the field equations, which random Lorenz data does not solve,
    so they are not compared."""
    st = inputs.state
    a = tuple(p.value for p in st.A)
    a_dot = tuple(p.time_deriv for p in st.A)
    f01, f02, f12, _, _, fdot12 = data_from_potential(a, a_dot)
    fc = tuple(p.value for p in st.F)
    return max(
        (f01 - fc[0]).norm(),
        (f02 - fc[1]).norm(),
        (f12 - fc[2]).norm(),
        (fdot12 - st.F[2].time_deriv).norm(),
    )


IDENTITY_CHECKS = {
    "nullform_trick": check_nullform_trick,
    "null0": check_null0,
    "null1": check_null1,
    "null2": check_null2,
    "null3": check_null3,
    "gamma_decomposition": check_gamma_decomposition,
    "af_equivalence": check_af_equivalence,
    "scaling_covariance": check_scaling_covariance,
    "data_consistency": check_data_consistency,
}


def run_identity_suite(
    spec: AlgebraSpec,
    seeds=range(20),
    scale: float = DEFAULT_SCALE,
    modes: int = DEFAULT_MODES,
) -> dict:
    """Max residual of every named identity over the given seeds.

    The inputs of a seed are built once and read by all nine checks."""
    residuals = {name: [] for name in IDENTITY_CHECKS}
    for seed in seeds:
        inputs = seed_inputs(spec, seed, scale, modes)
        for name, fn in IDENTITY_CHECKS.items():
            residuals[name].append(fn(inputs))
    return {name: max(r) for name, r in residuals.items()}
