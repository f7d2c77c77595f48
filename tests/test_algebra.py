import numpy as np
import pytest
from scipy.linalg import expm

from ym2d.algebra import bracket_coeffs, random_element, so, su

SPECS = [su(2), su(3), so(3), so(4)]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_dimensions(spec):
    expected = spec.n**2 - 1 if spec.kind.name == "SU" else spec.n * (spec.n - 1) // 2
    assert spec.dim == expected
    assert spec.basis.shape == (spec.dim, spec.n, spec.n)
    assert spec.structure.shape == (spec.dim,) * 3


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_basis_orthonormal_and_algebra_valued(spec):
    gram = np.einsum("aij,bji->ab", spec.basis, np.conj(spec.basis).transpose(0, 2, 1))
    assert np.allclose(gram, np.eye(spec.dim), atol=1e-12)
    for e in spec.basis:
        # anti-Hermitian (su) resp. antisymmetric real (so), traceless
        assert np.allclose(e + np.conj(e).T, 0.0, atol=1e-12)
        assert abs(np.trace(e)) < 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_structure_constants_antisymmetric(spec):
    f = spec.structure
    assert np.allclose(f, -f.transpose(1, 0, 2), atol=1e-12)
    # total antisymmetry holds for an orthonormal basis of a compact form
    assert np.allclose(f, -f.transpose(0, 2, 1), atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_bracket_matches_matrix_commutator(spec):
    x = random_element(spec, 1, 0.7)
    y = random_element(spec, 2, 0.7)
    z = bracket_coeffs(spec, x, y)
    mx, my = spec.to_matrix(x), spec.to_matrix(y)
    assert np.allclose(spec.to_matrix(z), mx @ my - my @ mx, atol=1e-12)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_jacobi_identity(spec):
    x = random_element(spec, 3, 1.0)
    y = random_element(spec, 4, 1.0)
    z = random_element(spec, 5, 1.0)
    def br(a, b):
        return bracket_coeffs(spec, a, b)

    s = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    assert np.max(np.abs(s)) < 1e-12


def test_bracket_coeffs_agrees_with_bracket():
    # in its orthonormal basis su(2) is R^3 with the bracket sqrt(2) x y
    spec = su(2)
    x = random_element(spec, 6, 1.0)
    y = random_element(spec, 7, 1.0)
    assert np.allclose(
        bracket_coeffs(spec, x, y), np.sqrt(2.0) * np.cross(x, y), atol=1e-13
    )


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("tail", [(), (16, 16), (5, 7), (4, 1, 6)])
def test_bracket_coeffs_matches_einsum_reference(spec, tail):
    rng = np.random.default_rng(spec.dim)
    x = rng.standard_normal((spec.dim,) + tail)
    y = rng.standard_normal((spec.dim,) + tail)
    ref = np.einsum("abc,a...,b...->c...", spec.structure, x, y)
    got = bracket_coeffs(spec, x, y)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_bracket_coeffs_rejects_mismatched_shapes():
    # operands of one shape only: the grid products always pass two (dim, N, N)
    spec = su(2)
    x = np.ones((spec.dim, 16, 16))
    for y in (np.ones((spec.dim, 16, 9)), np.ones((spec.dim,)), np.ones((spec.dim, 1, 16))):
        with pytest.raises(ValueError):
            bracket_coeffs(spec, x, y)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_group_exp_lands_in_group(spec):
    U = expm(spec.to_matrix(random_element(spec, 8, 0.5)))
    assert np.allclose(U @ np.conj(U).T, np.eye(spec.n), atol=1e-12)
    assert abs(np.linalg.det(U) - 1.0) < 1e-10


def test_from_matrix_roundtrip():
    spec = so(3)
    x = random_element(spec, 9, 1.0)
    assert np.allclose(spec.from_matrix(spec.to_matrix(x)), x, atol=1e-13)
    # coefficients on a leading axis, matrices on trailing point axes
    xs = np.random.default_rng(9).standard_normal((spec.dim, 5, 7))
    assert spec.to_matrix(xs).shape == (5, 7, spec.n, spec.n)
    assert np.allclose(spec.from_matrix(spec.to_matrix(xs)), xs, atol=1e-13)


def test_random_element_reproducible_and_validated():
    spec = su(2)
    a = random_element(spec, 0, 0.3)
    b = random_element(spec, 0, 0.3)
    assert a.shape == (spec.dim,) and np.array_equal(a, b)
    with pytest.raises(ValueError):
        random_element(spec, 0, -1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        su(1)
