"""Yang-Mills physics layer in Lorenz gauge on the 2+1 dimensional torus.

Curvature, constraints, energy, gauge transforms, data construction, and the
assembly of the reformulated right-hand sides M_beta, N_{beta gamma} with
their full null-form structure.  Everything is generic over the exact
plane-wave calculus and the pseudospectral grid representation; the grid and
plane-wave paths share one code path through SpacetimePair.

A field type provides what nullforms needs of it (+, -, scalar *, dx,
lambda_pow, d_pow, riesz, bracket) and norm(): the max-coefficient norm for
plane waves, the discrete L^2 norm for grid fields, used for constraint
residuals and energy.  Time derivatives come from the SpacetimePair, never
from the field.  Only gauge_transform and project_gauss_data are grid-only;
like every grid operation they work on the rfft2 half-plane.

Metric diag(-1, 1, 1): raised index A^0 = -A_0, A^i = A_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .algebra import AlgebraKind
from .nullforms import SpacetimePair, calligraphic_q_factors, gamma1, null_form
from .spectral import GridField

METRIC_SIGN = (-1.0, 1.0, 1.0)  # eta^{alpha alpha}
# Krylov dimension of the one GMRES cycle of project_gauss_data; at scale
# 1e-2 su(2) needs 17-18 iterations, so(4) 25-26 and su(3) 32-34
_KRYLOV_CAP = 60


def _br(x, y):
    return x.bracket(y)


@dataclass(frozen=True)
class FieldState:
    """Evolution state: potential A and curvature F as independent unknowns.

    A = (A0, A1, A2), F = (F01, F02, F12); each a SpacetimePair carrying the
    first time derivative.  The missing curvature components follow from
    antisymmetry and are reconstructed on demand.
    """

    A: tuple  # three SpacetimePairs
    F: tuple  # SpacetimePairs (F01, F02, F12)

    def a(self, alpha: int) -> SpacetimePair:
        return self.A[alpha]

    def f(self, beta: int, gamma: int) -> SpacetimePair:
        """F_{beta gamma} with antisymmetry; F_{bb} = 0."""
        if beta == gamma:
            return 0.0 * self.A[0]
        sign, slot = self.f_slot(beta, gamma)
        return slot if sign > 0 else -1.0 * slot

    def f_slot(self, beta: int, gamma: int) -> tuple:
        """(sign, slot) with F_{beta gamma} = sign * slot for beta != gamma:
        slot is the entry of F holding F_{min max}, so that a caller can carry
        the sign of a swapped pair instead of negating a field."""
        lo, hi = sorted((beta, gamma))
        return (1.0 if beta < gamma else -1.0), self.F[lo + hi - 1]


# --- curvature, data, constraints, energy ---------------------------------

def curvature(A: tuple) -> tuple:
    """F[A] components (F01, F02, F12) as plain fields.

    F_{0i} = dt A_i - d_i A_0 + [A_0, A_i];
    F_{12} = d_1 A_2 - d_2 A_1 + [A_1, A_2].
    """
    a0, a1, a2 = A
    f01 = a1.time_deriv - a0.value.dx(1) + _br(a0.value, a1.value)
    f02 = a2.time_deriv - a0.value.dx(2) + _br(a0.value, a2.value)
    f12 = a2.value.dx(1) - a1.value.dx(2) + _br(a1.value, a2.value)
    return f01, f02, f12


def data_from_potential(a: tuple, a_dot: tuple) -> tuple:
    """Curvature initial data (f01, f02, f12, fdot01, fdot02, fdot12).

    f_{ij} = d_i a_j - d_j a_i + [a_i, a_j],
    f_{0i} = adot_i - d_i a_0 + [a_0, a_i],
    fdot_{ij} = d_i adot_j - d_j adot_i + [adot_i, a_j] + [a_i, adot_j],
    fdot_{0i} = d^j f_{ji} + [a^alpha, f_{alpha i}]   (a^0 = -a_0).
    """
    a0, a1, a2 = a
    d0, d1, d2 = a_dot
    f12 = a2.dx(1) - a1.dx(2) + _br(a1, a2)
    f01 = d1 - a0.dx(1) + _br(a0, a1)
    f02 = d2 - a0.dx(2) + _br(a0, a2)
    fdot12 = d2.dx(1) - d1.dx(2) + _br(d1, a2) + _br(a1, d2)
    # f_{j i} slots: f_{21} = -f12, f_{12} = f12; f_{0i} as above
    fdot01 = -1.0 * f12.dx(2) - _br(a0, f01) - _br(a2, f12)
    fdot02 = f12.dx(1) - _br(a0, f02) + _br(a1, f12)
    return f01, f02, f12, fdot01, fdot02, fdot12


def state_from_potential(a: tuple, a_dot: tuple) -> FieldState:
    """FieldState with F := curvature data built from (a, adot)."""
    f01, f02, f12, fd01, fd02, fd12 = data_from_potential(a, a_dot)
    A = tuple(SpacetimePair(a[i], a_dot[i]) for i in range(3))
    F = (SpacetimePair(f01, fd01), SpacetimePair(f02, fd02), SpacetimePair(f12, fd12))
    return FieldState(A, F)


def constraint_residuals(state: FieldState) -> tuple:
    """(lorenz, gauss, compat) residual norms.

    lorenz = ||dt A0 - d^i A_i||, gauss = ||d^i F_{i0} + [A^i, F_{i0}]||,
    compat = max_components ||F - F[A]||.
    """
    a0, a1, a2 = state.A
    lorenz = (a0.time_deriv - a1.value.dx(1) - a2.value.dx(2)).norm()
    gauss = _gauss_field(state).norm()
    fc = curvature(state.A)
    compat = max((state.F[k].value - fc[k]).norm() for k in range(3))
    return lorenz, gauss, compat


def _gauss_field(state: FieldState):
    """g = d^i F_{i0} + [A^i, F_{i0}]."""
    return _cov_div(tuple(state.A[i].value for i in (1, 2)),
                    tuple(-1.0 * state.f(0, i).value for i in (1, 2)))


def _cov_div(a: tuple, v: tuple):
    """Covariant divergence D^i v_i = d^i v_i + [a^i, v_i] of spatial fields
    v = (v_1, v_2), for a = (a_1, a_2)."""
    (a1, a2), (v1, v2) = a, v
    return v1.dx(1) + _br(a1, v1) + v2.dx(2) + _br(a2, v2)


def energy(state: FieldState) -> float:
    """Total energy sum_{0<=alpha,beta<=2} int |F_{alpha beta}|^2 dx.

    The double sum counts each off-diagonal pair twice, as written.
    Grid quadrature; for plane-wave states the L^2 proxy uses the
    coefficient norm of each component.
    """
    total = 0.0
    for p in state.F:
        total += 2.0 * p.value.norm() ** 2
    return total


# --- gauge transformation (grid representation) ---------------------------

def gauge_transform(state: FieldState, U: np.ndarray, tol: float = 1e-8) -> FieldState:
    """Apply a time-independent gauge transformation U(x) pointwise.

    A'_alpha = U A_alpha U^{-1} - (d_alpha U) U^{-1},  F' = U F U^{-1};
    with dt U = 0 the time derivatives conjugate as well.  U has shape
    (N, N, n, n) and must lie in the group within tol at every point:
    unitary with det U = 1, and real for so(n).  d_i U is the grid's
    derivative multiplier on the rfft2 half-plane, applied to the real and
    imaginary parts of U's entries, which are real fields.
    """
    a0 = state.A[0].value
    if not isinstance(a0, GridField):
        raise TypeError("gauge_transform operates on grid states")
    spec, grid = a0.spec, a0.grid
    U = np.ascontiguousarray(U, dtype=complex)
    Uinv = np.conj(U).transpose(0, 1, 3, 2)
    errs = {"U U^dagger - I": U @ Uinv - np.eye(spec.n),
            "det U - 1": np.linalg.det(U) - 1.0}
    if spec.kind is AlgebraKind.SO:
        errs["Im U"] = U.imag
    for what, e in errs.items():
        err = np.max(np.abs(e))
        if err > tol:
            raise ValueError(f"U not in the group: max |{what}| = {err:.3e}")

    # viewed as float, U is (N, N, n, 2n): the real and imaginary parts of
    # each entry side by side, so one real transform differentiates both;
    # shift[alpha] = (d_alpha U) U^{-1}, zero for the time-independent alpha = 0
    Uh = np.fft.rfft2(U.view(float), axes=(0, 1))
    dU = (np.fft.irfft2(grid.multiplier_array("derivative", i)[..., None, None] * Uh,
                        s=(grid.N, grid.N), axes=(0, 1)).view(complex) for i in (1, 2))
    shift = [0.0] + [d @ Uinv for d in dU]

    def conj_field(f: GridField, minus=0.0):
        m = U @ spec.to_matrix(f.values) @ Uinv - minus
        return GridField(spec, grid, spec.from_matrix(m))

    newA = tuple(SpacetimePair(conj_field(p.value, shift[a]), conj_field(p.time_deriv))
                 for a, p in enumerate(state.A))
    newF = tuple(SpacetimePair(conj_field(p.value), conj_field(p.time_deriv))
                 for p in state.F)
    return FieldState(newA, newF)


# --- direct expansions (oracles for the assembled system) -----------------

def _sum(terms):
    """Left-to-right sum of a nonempty sequence of fields."""
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _raised_sum(terms):
    """sum_alpha METRIC_SIGN[alpha] * terms[alpha], made as t_1 - t_0 + t_2:
    exactly -t_0 + t_1 + t_2, without the copy a scalar multiple makes."""
    t0, t1, t2 = terms
    return t1 - t0 + t2


def _signed_sum(terms):
    """(sign, total) with sign * total the left-to-right sum of the
    (sign, field) pairs terms, signs +-1, made by + and - alone.  Negation is
    exact and rounding symmetric, so sign * total is bit-identical to the sum
    of the scaled terms, without the copy each scalar multiple makes."""
    sign, out = terms[0]
    for s, t in terms[1:]:
        out = out + t if s == sign else out - t
    return sign, out


def _add_signed(x, sign, y):
    """x + sign * y for sign +-1, by + or -."""
    return x + y if sign > 0 else x - y


def ym4_rhs(A: tuple) -> tuple:
    """Direct expansion: Box A_beta =
    -2[A^alpha, d_alpha A_beta] + [A^alpha, d_beta A_alpha]
    - [A^alpha, [A_alpha, A_beta]], the last without its zero alpha = beta
    term and with each [A_alpha, A_beta], alpha < beta, made once."""
    values = tuple(p.value for p in A)
    aa = _potential_brackets(values)
    out = []
    for beta in range(3):
        ab = A[beta]
        t1 = _raised_sum([_br(values[al], ab.deriv(al)) for al in range(3)])
        t2 = _raised_sum([_br(values[al], A[al].deriv(beta)) for al in range(3)])
        sign, t3 = _double_bracket(
            values, {al: aa[al, beta] for al in range(3) if al != beta})
        out.append(_add_signed(-2.0 * t1 + t2, -sign, t3))
    return tuple(out)


def ymf2_rhs(state: FieldState) -> tuple:
    """Direct expansion of the curvature wave equation (Lorenz gauge):

    Box F_{bg} = -2[A^a, d_a F_{bg}] + 2[d_g A^a, d_a A_b] - 2[d_b A^a, d_a A_g]
                 + 2[d^a A_b, d_a A_g] + 2[d_b A^a, d_g A_a]
                 - [A^a, [A_a, F_{bg}]] + 2[F_{ab}, [A^a, A_g]]
                 - 2[F_{ag}, [A^a, A_b]] - 2[[A^a, A_b], [A_a, A_g]].
    """
    A = state.A
    v = tuple(p.value for p in A)

    def rs(term):
        return _raised_sum([term(al) for al in range(3)])

    out = []
    for b, g in ((0, 1), (0, 2), (1, 2)):
        f = state.f(b, g)
        t1 = rs(lambda al: _br(v[al], f.deriv(al)))
        t2 = rs(lambda al: _br(A[al].deriv(g), A[b].deriv(al)))
        t3 = rs(lambda al: _br(A[al].deriv(b), A[g].deriv(al)))
        t4 = rs(lambda al: _br(A[b].deriv(al), A[g].deriv(al)))
        t5 = rs(lambda al: _br(A[al].deriv(b), A[al].deriv(g)))
        t6 = rs(lambda al: _br(v[al], _br(v[al], f.value)))
        t7 = rs(lambda al: _br(state.f(al, b).value, _br(v[al], v[g])))
        t8 = rs(lambda al: _br(state.f(al, g).value, _br(v[al], v[b])))
        t9 = rs(lambda al: _br(_br(v[al], v[b]), _br(v[al], v[g])))
        out.append(-2.0 * t1 + 2.0 * t2 - 2.0 * t3 + 2.0 * t4 + 2.0 * t5 - t6
                   + 2.0 * t7 - 2.0 * t8 - 2.0 * t9)
    return tuple(out)


# --- Gamma table and assembled right-hand sides ---------------------------

def _dt_of_derivative(state: FieldState, beta: int):
    """d_t d_beta A_0; for beta = 0 the second time derivative of A_0 is
    eliminated through the Lorenz gauge dt A_0 = d^i A_i."""
    if beta != 0:
        return state.A[0].time_deriv.dx(beta)
    return state.A[1].time_deriv.dx(1) + state.A[2].time_deriv.dx(2)


def gamma_terms(state: FieldState, beta: int, a12) -> tuple:
    """The four Gamma^i_beta pieces decomposing [A^alpha, d_beta A_alpha];
    a12 is the bracket [A_1, A_2] of the potential's values."""
    A = state.A

    # Gamma^1: the non-Q form gamma1(A_0, d_beta A_0)
    g1 = gamma1(A[0], SpacetimePair(A[0].deriv(beta), _dt_of_derivative(state, beta)))

    # Gamma^2: Q12 forms of the curl part.  The relative sign of the two
    # terms is fixed by the exact decomposition identity (verified by the
    # identity suite): -Q12[..., d_beta G] + Q12[d_beta ..., G].
    u = A[1].value.riesz(1) + A[2].value.riesz(2)  # R^n A_n
    du = A[1].deriv(beta).riesz(1) + A[2].deriv(beta).riesz(2)
    G = A[2].value.dx(1) - A[1].value.dx(2)
    dG = A[2].deriv(beta).dx(1) - A[1].deriv(beta).dx(2)
    g2 = _q12_slices(du.lambda_pow(-1.0), G.lambda_pow(-2.0)) - _q12_slices(
        u.lambda_pow(-1.0), dG.lambda_pow(-2.0)
    )

    # Gamma^3: smooth bilinear pieces through F12 = G + [A1, A2]
    f12 = state.f(1, 2)
    if beta == 0:
        df12 = f12.time_deriv
        da12 = _br(A[1].time_deriv, A[2].value) + _br(A[1].value, A[2].time_deriv)
    else:
        df12 = f12.value.dx(beta)
        da12 = a12.dx(beta)

    def smooth(x, j):
        return x.dx(j).lambda_pow(-2.0)

    # [f12 - a12, df12 - da12] expands bilinearly into the four brackets
    g3 = _sum([_br(smooth(f12.value - a12, j), smooth(df12 - da12, j)) for j in (1, 2)])

    # Gamma^4: A^cf + A^df = bold A - Lambda^{-2} bold A
    g4 = _sum([
        _br(ai - ai.lambda_pow(-2.0), dai.lambda_pow(-2.0)) + _br(ai.lambda_pow(-2.0), dai)
        for ai, dai in ((A[i].value, A[i].deriv(beta)) for i in (1, 2))
    ])
    return g1, g2, g3, g4


def _q12_slices(u, v):
    """Commutator Q12 on plain spatial slices (no time derivatives needed)."""
    return _br(u.dx(1), v.dx(2)) - _br(u.dx(2), v.dx(1))


def _k_factors(us):
    """K_alpha(U) = L_alpha(Lambda^{-1}U) + eta^{alpha alpha} Lambda^{-2}U_alpha
    (L of calligraphic_q_factors) for pairs us = (U_0, U_1, U_2), so that
    Q(Lambda^{-1}U, v) + [Lambda^{-2}U^alpha, d_alpha v] = [K_alpha(U), d_alpha v]."""
    ls = calligraphic_q_factors(*(p.lambda_pow(-1.0) for p in us))
    return tuple(_add_signed(l, s, p.value.lambda_pow(-2.0))
                 for l, s, p in zip(ls, METRIC_SIGN, us))


def _k_bracket(k, target: SpacetimePair):
    """-2 sum_alpha [K_alpha, d_alpha target] for factors k = _k_factors(U):
    -2 Q(Lambda^{-1}U, target) - 2[Lambda^{-2}U^alpha, d_alpha target]."""
    return -2.0 * _sum([_br(ka, target.deriv(al)) for al, ka in enumerate(k)])


def _double_bracket(us, inner: dict):
    """[u^alpha, [u_alpha, x]] for plain fields us = (u_0, u_1, u_2) as
    (sign, total) of _signed_sum, given inner[alpha] = (sign, b) with
    [u_alpha, x] = sign * b; an alpha left out of inner adds nothing
    (u_alpha = x, and [x, x] = 0)."""
    return _signed_sum([(METRIC_SIGN[al] * s, _br(us[al], b))
                        for al, (s, b) in inner.items()])


def _potential_brackets(values) -> dict:
    """[A_alpha, A_beta] for alpha != beta as (sign, bracket) pairs: each pair
    bracketed once, the swapped order by its sign, which goes to the products
    the bracket enters, so the bracket is transformed once as a factor."""
    out = {}
    for al, be in ((0, 1), (0, 2), (1, 2)):
        b = _br(values[al], values[be])
        out[al, be], out[be, al] = (1.0, b), (-1.0, b)
    return out


def assemble_rhs(state: FieldState) -> tuple:
    """(M0, M1, M2, N01, N02, N12): the reformulated right-hand sides.

    M_beta = -2 Q[Lambda^{-1}A, A_beta] + sum_i Gamma^i_beta
             - 2[Lambda^{-2}A^alpha, d_alpha A_beta]
             - [A^alpha, [A_alpha, A_beta]],
    with the N_{beta gamma} as displayed in the reformulation (the F slots
    read from state.F, not recomputed from A).  Each null-form + smoother
    pair is made as -2 sum_alpha [K_alpha(U), d_alpha target] (_k_bracket),
    and the factors K(A), K(d_1 A), K(d_2 A) are made once and shared by
    every M and N, as are the brackets [A_alpha, A_beta].
    """
    A = state.A
    values = tuple(p.value for p in A)
    aa = _potential_brackets(values)
    ks = (_k_factors(A), *(_k_factors(tuple(p.dx(i) for p in A)) for i in (1, 2)))
    M = []
    for beta in range(3):
        m = _k_bracket(ks[0], A[beta])
        for g in gamma_terms(state, beta, aa[1, 2][1]):
            m = m + g
        sign, db = _double_bracket(
            values, {al: aa[al, beta] for al in range(3) if al != beta})
        M.append(_add_signed(m, -sign, db))
    return (*M, *(_n(state, aa, ks, b, g) for b, g in ((0, 1), (0, 2), (1, 2))))


def _n(state: FieldState, aa: dict, ks: tuple, beta: int, gamma: int):
    """N_{beta gamma}, beta < gamma: the terms of ymf2_rhs with each
    [d A, d A] first-order product written as null forms plus smoother
    brackets, each such pair as one _k_bracket: with the F_{beta gamma}
    target on K(A) = ks[0], the A_beta target on K(d_gamma A) = ks[gamma]
    (sign flipped) and, for beta != 0, the A_gamma target on K(d_beta A) =
    ks[beta].  aa holds the brackets [A_alpha, A_beta] as (sign, bracket)
    pairs.  For beta = 0 the Lorenz gauge dt A_0 = d^j A_j turns
    -2[d_0 A^alpha, d_alpha A_gamma] into -2 sum_j Q_{0j}[A_j, A_gamma]."""
    A = state.A
    values = tuple(p.value for p in A)
    f = state.f(beta, gamma)
    ab, ag = A[beta], A[gamma]
    out = _k_bracket(ks[0], f) - _k_bracket(ks[gamma], ab)
    # sum_alpha eta^{alpha alpha} Q_{beta gamma}[A_alpha, A_alpha], each a
    # single bracket: Q_{bg}[u, u] = 2[d_b u, d_g u]
    self_signs = METRIC_SIGN
    if beta == 0:
        # the form j = gamma is Q_{0g}[A_g, A_g] = 2[d_0 A_g, d_g A_g]: with
        # its factor -2 it turns the self term alpha = gamma from +1 to -1
        (j,) = {1, 2} - {gamma}
        out = out - 2.0 * null_form(f"Q0{j}", A[j], ag)
        self_signs = tuple(-1.0 if al == gamma else s for al, s in enumerate(METRIC_SIGN))
    else:
        out = out + _k_bracket(ks[beta], ag)
    out = out + 2.0 * null_form("Q0", ab, ag)
    sign, selfs = _signed_sum([(s, _br(p.deriv(beta), p.deriv(gamma)))
                               for s, p in zip(self_signs, A)])
    out = out + (2.0 * sign) * selfs
    sign, db = _double_bracket(
        values, {al: (1.0, _br(u, f.value)) for al, u in enumerate(values)})
    out = _add_signed(out, -sign, db)
    # the sums over alpha of 2[F_{alpha beta}, [A^alpha, A_gamma]],
    # -2[F_{alpha gamma}, [A^alpha, A_beta]] and
    # -2[[A^alpha, A_beta], [A_alpha, A_gamma]] keep only the alpha distinct
    # from beta and gamma (F_{beta beta} = 0 and [A_alpha, A_alpha] = 0), and
    # take [A_alpha, A_beta] = sb * ub and [A_alpha, A_gamma] = sg * ug from aa,
    # F_{alpha beta} = fb * Fb and F_{alpha gamma} = fg * Fg from state.F
    (al,) = {0, 1, 2} - {beta, gamma}
    (sb, ub), (sg, ug) = aa[al, beta], aa[al, gamma]
    (fb, Fb), (fg, Fg) = state.f_slot(al, beta), state.f_slot(al, gamma)
    sign, t = _signed_sum([(sg * fb, _br(Fb.value, ug)), (-sb * fg, _br(Fg.value, ub)),
                           (-sb * sg, _br(ub, ug))])
    return out + (2.0 * METRIC_SIGN[al] * sign) * t


# --- Gauss-law projection -------------------------------------------------

def project_gauss_data(a: tuple, a_dot: tuple, tol: float = 1e-10) -> FieldState:
    """Project grid data onto the Gauss constraint by one linear solve.

    The Gauss field g = D^i F_{i0} of the curvature data of (a, adot),
    D_i = d_i + [a_i, .], is linear in F_{i0}, so F_{i0} <- F_{i0} - D_i chi
    with D^i D_i chi = g removes it.  The solve is one GMRES cycle of at most
    _KRYLOV_CAP iterations on point values, matrix-free on GridField
    operations, right-preconditioned by the Poisson pseudo-inverse with -1
    where the Laplacian symbol vanishes: those modes (the mean among them)
    pass through, and the solve reaches them by the brackets.  It stops once
    the L^2 norm of D^i D_i chi - g is at most tol / 10.  F_{0i} = -F_{i0}
    moves by D_i chi, so adot_i does, and the returned state is exactly
    curvature-compatible.  A Gauss residual above tol raises RuntimeError.
    """
    a0, a1, a2 = a
    if not isinstance(a0, GridField):
        raise TypeError("project_gauss_data operates on grid fields")
    spec, grid = a0.spec, a0.grid
    inv_lap = grid.multiplier_array("inv_laplacian")
    inv_lap = np.where(inv_lap != 0, inv_lap, -1.0)

    def cov_grad(x):
        """D_i chi for chi the preconditioned point values x."""
        x = GridField(spec, grid, x.reshape(spec.dim, grid.N, grid.N))
        chi = GridField(spec, grid, rhat=x.rhat * inv_lap)
        return chi.dx(1) + _br(a1, chi), chi.dx(2) + _br(a2, chi)

    g = _gauss_field(state_from_potential(a, a_dot)).values.flatten()
    op = LinearOperator((g.size, g.size), dtype=float,
                        matvec=lambda x: _cov_div((a1, a2), cov_grad(x)).values.flatten())
    y, _ = gmres(op, g, rtol=0.0, atol=0.1 * tol * grid.N / grid.L,
                 restart=_KRYLOV_CAP, maxiter=1)
    state = state_from_potential(
        a, (a_dot[0], *(p + d for p, d in zip(a_dot[1:], cov_grad(y)))))
    gauss = constraint_residuals(state)[1]
    if gauss > tol:
        raise RuntimeError(f"Gauss projection did not reach tol={tol:.1e} in "
                           f"{_KRYLOV_CAP} Krylov iterations; residual {gauss:.3e}")
    return state
