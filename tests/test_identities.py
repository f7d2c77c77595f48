import pytest

from ym2d.algebra import so, su
from ym2d.identities import IDENTITY_CHECKS, run_identity_suite

TOL = 1e-10


def test_suite_has_all_layers():
    expected = {
        "nullform_trick",
        "null0",
        "null1",
        "null2",
        "null3",
        "gamma_decomposition",
        "af_equivalence",
        "scaling_covariance",
        "data_consistency",
    }
    assert expected == set(IDENTITY_CHECKS)


@pytest.mark.parametrize("spec", [su(2), so(3)], ids=str)
def test_identity_suite_small(spec):
    results = run_identity_suite(spec, seeds=range(3))
    for name, resid in results.items():
        assert resid <= TOL, f"{name}: residual {resid:.3e}"


@pytest.mark.parametrize("name", sorted(IDENTITY_CHECKS))
def test_each_identity_individually(name):
    resid = IDENTITY_CHECKS[name](su(2), 17)
    assert resid <= TOL


def test_residuals_nontrivial_inputs():
    """The checks exercise genuinely nonzero fields: a deliberately broken
    scale produces nonzero intermediate products (guard against vacuous
    zero-input passes)."""
    from ym2d.identities import _lorenz_state
    from ym2d.ym import assemble_rhs

    st = _lorenz_state(su(2), 0, 0.3, 4)
    rhs = assemble_rhs(st)

    assert max(p.norm() for p in rhs) > 1e-6
