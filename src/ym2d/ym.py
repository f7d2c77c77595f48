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
from the field.  Only gauge_transform and project_gauss_data are grid-only.

Metric diag(-1, 1, 1): raised index A^0 = -A_0, A^i = A_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nullforms import SpacetimePair, calligraphic_q, null_form
from .spectral import GridField

METRIC_SIGN = (-1.0, 1.0, 1.0)  # eta^{alpha alpha}


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
        table = {(0, 1): self.F[0], (0, 2): self.F[1], (1, 2): self.F[2]}
        if (beta, gamma) in table:
            return table[(beta, gamma)]
        return -1.0 * table[(gamma, beta)]


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
    gauss = _gauss_field(state)[0].norm()
    fc = curvature(state.A)
    compat = max((state.F[k].value - fc[k]).norm() for k in range(3))
    return lorenz, gauss, compat


def _gauss_field(state: FieldState) -> tuple:
    """(g, (F_10, F_20)) with g = d^i F_{i0} + [A^i, F_{i0}]."""
    f10, f20 = (-1.0 * state.f(0, i).value for i in (1, 2))
    g = f10.dx(1) + _br(state.A[1].value, f10) + f20.dx(2) + _br(state.A[2].value, f20)
    return g, (f10, f20)


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
    (N, N, n, n) and must be unitary within tol at every point.
    """
    a0 = state.A[0].value
    if not isinstance(a0, GridField):
        raise TypeError("gauge_transform operates on grid states")
    spec, grid = a0.spec, a0.grid
    n = spec.n
    eye = np.eye(n)
    err = np.max(np.abs(U @ np.conj(U).transpose(0, 1, 3, 2) - eye))
    if err > tol:
        raise ValueError(f"U not unitary: max |U U^dagger - I| = {err:.3e}")
    Uinv = np.conj(U).transpose(0, 1, 3, 2)

    # spectral spatial derivatives of U, entrywise
    k1, k2 = grid.freqs
    Uh = np.fft.fft2(U, axes=(0, 1))
    dU = [
        np.fft.ifft2(1j * k1[..., None, None] * Uh, axes=(0, 1)),
        np.fft.ifft2(1j * k2[..., None, None] * Uh, axes=(0, 1)),
    ]

    def to_mats(f: GridField):
        return np.einsum("axy,aij->xyij", f.values, spec.basis)

    def from_mats(m):
        c = np.einsum("xyij,aji->axy", m, np.conj(spec.basis).transpose(0, 2, 1))
        return GridField(spec, grid, np.real(c))

    def conj_field(f: GridField):
        return from_mats(U @ to_mats(f) @ Uinv)

    newA = []
    for alpha in range(3):
        p = state.A[alpha]
        av = U @ to_mats(p.value) @ Uinv
        if alpha > 0:
            av = av - dU[alpha - 1] @ Uinv
        newA.append(SpacetimePair(from_mats(av), conj_field(p.time_deriv)))
    newF = tuple(
        SpacetimePair(conj_field(p.value), conj_field(p.time_deriv)) for p in state.F
    )
    return FieldState(tuple(newA), newF)


# --- direct expansions (oracles for the assembled system) -----------------

def _sum(terms):
    """Left-to-right sum of a nonempty sequence of fields."""
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _raised_sum(terms):
    """sum_alpha METRIC_SIGN[alpha] * terms[alpha]."""
    return _sum([sign * t for sign, t in zip(METRIC_SIGN, terms)])


def ym4_rhs(A: tuple) -> tuple:
    """Direct expansion: Box A_beta =
    -2[A^alpha, d_alpha A_beta] + [A^alpha, d_beta A_alpha]
    - [A^alpha, [A_alpha, A_beta]]."""
    out = []
    for beta in range(3):
        ab = A[beta]
        t1 = _raised_sum([_br(A[al].value, ab.deriv(al)) for al in range(3)])
        t2 = _raised_sum([_br(A[al].value, A[al].deriv(beta)) for al in range(3)])
        t3 = _raised_sum(
            [_br(A[al].value, _br(A[al].value, ab.value)) for al in range(3)]
        )
        out.append(-2.0 * t1 + t2 - t3)
    return tuple(out)


def ymf2_rhs(state: FieldState) -> tuple:
    """Direct expansion of the curvature wave equation (Lorenz gauge):

    Box F_{bg} = -2[A^a, d_a F_{bg}] + 2[d_g A^a, d_a A_b] - 2[d_b A^a, d_a A_g]
                 + 2[d^a A_b, d_a A_g] + 2[d_b A^a, d_g A_a]
                 - [A^a, [A_a, F_{bg}]] + 2[F_{ab}, [A^a, A_g]]
                 - 2[F_{ag}, [A^a, A_b]] - 2[[A^a, A_b], [A_a, A_g]].
    """
    A = state.A
    out = []
    for beta, gamma in ((0, 1), (0, 2), (1, 2)):
        fbg = state.f(beta, gamma)
        t1 = _raised_sum([_br(A[al].value, fbg.deriv(al)) for al in range(3)])
        t2 = _raised_sum(
            [_br(A[al].deriv(gamma), A[beta].deriv(al)) for al in range(3)]
        )
        t3 = _raised_sum(
            [_br(A[al].deriv(beta), A[gamma].deriv(al)) for al in range(3)]
        )
        t4 = _raised_sum(
            [_br(A[beta].deriv(al), A[gamma].deriv(al)) for al in range(3)]
        )
        t5 = _raised_sum(
            [_br(A[al].deriv(beta), A[al].deriv(gamma)) for al in range(3)]
        )
        t6 = _raised_sum(
            [_br(A[al].value, _br(A[al].value, fbg.value)) for al in range(3)]
        )
        t7 = _raised_sum(
            [
                _br(state.f(al, beta).value, _br(A[al].value, A[gamma].value))
                for al in range(3)
            ]
        )
        t8 = _raised_sum(
            [
                _br(state.f(al, gamma).value, _br(A[al].value, A[beta].value))
                for al in range(3)
            ]
        )
        t9 = _raised_sum(
            [
                _br(
                    _br(A[al].value, A[beta].value), _br(A[al].value, A[gamma].value)
                )
                for al in range(3)
            ]
        )
        out.append(
            -2.0 * t1 + 2.0 * t2 - 2.0 * t3 + 2.0 * t4 + 2.0 * t5 - t6
            + 2.0 * t7 - 2.0 * t8 - 2.0 * t9
        )
    return tuple(out)


# --- Gamma table and assembled right-hand sides ---------------------------

def _dt_of_derivative(state: FieldState, alpha: int, beta: int):
    """d_t d_beta A_alpha; for beta = 0 the second time derivative of A_0 is
    eliminated through the Lorenz gauge dt A_0 = d^i A_i."""
    if beta != 0:
        return state.A[alpha].time_deriv.dx(beta)
    if alpha == 0:
        return state.A[1].time_deriv.dx(1) + state.A[2].time_deriv.dx(2)
    raise ValueError("second time derivative of a spatial component requested")


def gamma_terms(state: FieldState, beta: int) -> tuple:
    """The four Gamma^i_beta pieces decomposing [A^alpha, d_beta A_alpha]."""
    A = state.A
    a0 = A[0]
    dbA0 = a0.deriv(beta)

    # Gamma^1: non-Q null form in A_0
    g1 = -1.0 * _br(a0.value, dbA0)
    dt_dbA0 = _dt_of_derivative(state, 0, beta)
    for j in (1, 2):
        g1 = g1 + _br(
            a0.time_deriv.lambda_pow(-1.0).riesz(j),
            dt_dbA0.lambda_pow(-1.0).riesz(j),
        )

    # Gamma^2: Q12 forms of the curl part.  The relative sign of the two
    # terms is fixed by the exact decomposition identity (verified by the
    # identity suite): -Q12[..., d_beta G] + Q12[d_beta ..., G].
    u = A[1].value.riesz(1) + A[2].value.riesz(2)  # R^n A_n
    du = A[1].deriv(beta).riesz(1) + A[2].deriv(beta).riesz(2)
    G = A[2].value.dx(1) - A[1].value.dx(2)
    dG = A[2].deriv(beta).dx(1) - A[1].deriv(beta).dx(2)
    g2 = -1.0 * _q12_slices(u.lambda_pow(-1.0), dG.lambda_pow(-2.0)) + _q12_slices(
        du.lambda_pow(-1.0), G.lambda_pow(-2.0)
    )

    # Gamma^3: smooth bilinear pieces through F12 = G + [A1, A2]
    f12 = state.f(1, 2)
    aa = _br(A[1].value, A[2].value)
    if beta == 0:
        df12 = f12.time_deriv
        daa = _br(A[1].time_deriv, A[2].value) + _br(A[1].value, A[2].time_deriv)
    else:
        df12 = f12.value.dx(beta)
        daa = aa.dx(beta)

    def smooth(x, j):
        return x.dx(j).lambda_pow(-2.0)

    # [f12 - aa, df12 - daa] expands bilinearly into the four brackets
    g3 = _sum([_br(smooth(f12.value - aa, j), smooth(df12 - daa, j)) for j in (1, 2)])

    # Gamma^4: A^cf + A^df = bold A - Lambda^{-2} bold A
    g4 = _sum([
        _br(ai - ai.lambda_pow(-2.0), dai.lambda_pow(-2.0)) + _br(ai.lambda_pow(-2.0), dai)
        for ai, dai in ((A[i].value, A[i].deriv(beta)) for i in (1, 2))
    ])
    return g1, g2, g3, g4


def _q12_slices(u, v):
    """Commutator Q12 on plain spatial slices (no time derivatives needed)."""
    return _br(u.dx(1), v.dx(2)) - _br(u.dx(2), v.dx(1))


def _cal_q(state_triple, v: SpacetimePair):
    u0, u1, u2 = (p.lambda_pow(-1.0) for p in state_triple)
    return calligraphic_q(u0, u1, u2, v)


def _smoother_bracket(us, target: SpacetimePair):
    """-2[Lambda^{-2} u^alpha, d_alpha target] for plain fields us = (u_0, u_1, u_2)."""
    return -2.0 * _raised_sum(
        [_br(u.lambda_pow(-2.0), target.deriv(al)) for al, u in enumerate(us)]
    )


def _double_bracket(us, x):
    """[u^alpha, [u_alpha, x]] for plain fields us = (u_0, u_1, u_2),
    leaving out u_alpha = x ([x, x] = 0)."""
    return _sum([METRIC_SIGN[al] * _br(u, _br(u, x))
                 for al, u in enumerate(us) if u is not x])


def assemble_rhs(state: FieldState) -> tuple:
    """(M0, M1, M2, N01, N02, N12): the reformulated right-hand sides.

    M_beta = -2 Q[Lambda^{-1}A, A_beta] + sum_i Gamma^i_beta
             - 2[Lambda^{-2}A^alpha, d_alpha A_beta]
             - [A^alpha, [A_alpha, A_beta]],
    with the N_{beta gamma} as displayed in the reformulation (the F slots
    read from state.F, not recomputed from A).
    """
    A = state.A
    values = tuple(p.value for p in A)
    M = []
    for beta in range(3):
        ab = A[beta]
        m = -2.0 * _cal_q(A, ab)
        for g in gamma_terms(state, beta):
            m = m + g
        m = m + _smoother_bracket(values, ab)
        m = m - _double_bracket(values, ab.value)
        M.append(m)
    return (*M, _n(state, 0, 1), _n(state, 0, 2), _n(state, 1, 2))


def _n(state: FieldState, beta: int, gamma: int):
    """N_{beta gamma}, beta < gamma: the terms of ymf2_rhs with each
    [d A, d A] first-order product written as null forms plus smoother
    brackets.  For beta = 0 the Lorenz gauge dt A_0 = d^j A_j turns
    -2[d_0 A^alpha, d_alpha A_gamma] into -2 sum_j Q_{0j}[A_j, A_gamma]."""
    A = state.A
    values = tuple(p.value for p in A)
    f = state.f(beta, gamma)
    ab, ag = A[beta], A[gamma]
    dg = tuple(p.dx(gamma) for p in A)
    out = -2.0 * _cal_q(A, f) + _smoother_bracket(values, f)
    out = out + 2.0 * _cal_q(dg, ab) - _smoother_bracket([p.value for p in dg], ab)
    if beta == 0:
        for j in (1, 2):
            out = out - 2.0 * null_form(f"Q0{j}", A[j], ag)
    else:
        db = tuple(p.dx(beta) for p in A)
        out = out - 2.0 * _cal_q(db, ag) + _smoother_bracket([p.value for p in db], ag)
    out = out + 2.0 * null_form("Q0", ab, ag)
    out = out + _raised_sum([null_form(f"Q{beta}{gamma}", p, p) for p in A])
    out = out - _double_bracket(values, f.value)
    # the sums over alpha of 2[F_{alpha beta}, [A^alpha, A_gamma]],
    # -2[F_{alpha gamma}, [A^alpha, A_beta]] and
    # -2[[A^alpha, A_beta], [A_alpha, A_gamma]] keep only the alpha distinct
    # from beta and gamma: F_{beta beta} = 0 and [A_alpha, A_alpha] = 0
    (al,) = {0, 1, 2} - {beta, gamma}
    ub, ug = _br(values[al], ab.value), _br(values[al], ag.value)
    return out + 2.0 * METRIC_SIGN[al] * (
        _br(state.f(al, beta).value, ug) - _br(state.f(al, gamma).value, ub) - _br(ub, ug))


# --- Gauss-law projection -------------------------------------------------

def project_gauss_data(
    a: tuple, a_dot: tuple, tol: float = 1e-10, max_iter: int = 25
) -> FieldState:
    """Project grid data onto the Gauss constraint by a fixed-point iteration.

    Starting from the curvature data of (a, adot), repeatedly replace
    F_{i0} <- F_{i0} - d_i Laplace^{-1} g with g = d^j F_{j0} + [A^j, F_{j0}].
    The mean of g cannot be removed by a gradient; it is absorbed by constant
    shifts c_i of F_{i0} solving sum_i [mean(A_i), c_i] = -mean(g) in the
    least-squares sense.  After convergence adot_i is re-synced from F_{0i}
    so the returned state is exactly curvature-compatible.  Intended for
    small data (quadratic terms contract).
    """
    a0, a1, a2 = a
    if not isinstance(a0, GridField):
        raise TypeError("project_gauss_data operates on grid fields")
    spec, grid = a0.spec, a0.grid
    area = grid.L**2
    state = state_from_potential(a, a_dot)
    abar = [np.mean(state.A[i].value.values, axis=(1, 2)) for i in (1, 2)]
    # least-squares matrix for the constant shifts: columns are ad(abar_i)
    ad = [
        np.einsum("abc,a->bc", spec.structure, abar[k]).T for k in range(2)
    ]
    lsq = np.hstack(ad)  # (dim, 2*dim)
    # damped normal equations: harmless when the A means vanish (the
    # constant-shift channel is then simply unavailable)
    damp = max(1e-6 * float(np.linalg.norm(lsq)) ** 2, 1e-24)
    gram = lsq.T @ lsq + damp * np.eye(2 * spec.dim)

    last = None
    for _ in range(max_iter):
        gauss = constraint_residuals(state)[1]
        last = gauss
        if gauss <= tol:
            return state
        g, fi0 = _gauss_field(state)
        # gradient part
        chi = g.inv_laplacian()
        gbar = np.mean(g.values, axis=(1, 2))
        c = np.linalg.solve(gram, lsq.T @ (-gbar))
        shifts = [c[: spec.dim], c[spec.dim :]]
        new_fi0 = []
        for i in (1, 2):
            corr = GridField(
                spec,
                grid,
                np.broadcast_to(
                    shifts[i - 1][:, None, None], (spec.dim, grid.N, grid.N)
                ).copy(),
            )
            new_fi0.append(fi0[i - 1] - chi.dx(i) + corr)
        # re-sync adot_i from f_{0i} = -F_{i0}: adot_i = f_{0i} + d_i a0 - [a0, a_i]
        adot = list(a_dot)
        for i in (1, 2):
            f0i = -1.0 * new_fi0[i - 1]
            adot[i] = f0i + a[0].dx(i) - _br(a[0], state.A[i].value)
        state = state_from_potential(a, tuple(adot))
        a_dot = tuple(adot)
    raise RuntimeError(
        f"Gauss projection did not reach tol={tol:.1e} in {max_iter} iterations; "
        f"last residual {last:.3e}"
    )
