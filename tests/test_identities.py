import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ym2d import identities
from ym2d.algebra import so, su
from ym2d.identities import (
    IDENTITY_CHECKS,
    check_data_consistency,
    check_scaling_covariance,
    run_identity_suite,
    seed_inputs,
)
from ym2d.nullforms import SpacetimePair
from ym2d.planewave import PlaneWaveField
from ym2d.ym import FieldState

TOL = 1e-10
# run_identity_suite builds one Lorenz state per seed and all nine checks read
# it (8 per seed when each check built its own).  The seed's inputs carry
# ym4_rhs(A), which check_af_equivalence and check_scaling_covariance share,
# and the state's F slots carry curvature(A), which check_data_consistency
# reads; check_scaling_covariance makes ym4_rhs once per lambda (2.0 and 0.5).
# That is 3 ym4_rhs and 1 curvature per seed (4 and 2 when each check made
# its own).
LORENZ_STATES_PER_SEED = 1
SCALING_YM4_CALLS = 2
YM4_CALLS_PER_SEED = 3
CURVATURE_CALLS_PER_SEED = 1


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
    resid = IDENTITY_CHECKS[name](seed_inputs(su(2), 17))
    assert resid <= TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    spec=st.sampled_from([su(2), su(3), so(3), so(4)]),
    seed=st.integers(0, 2**31 - 1),
    modes=st.integers(1, 4),
    scale=st.floats(0.05, 0.5),
)
def test_identities_hold_on_generated_inputs(spec, seed, modes, scale):
    """Every identity on generated algebras, mode counts and scales; a
    failure shrinks to the fewest modes that break it."""
    inputs = seed_inputs(spec, seed, scale, modes)
    for name, check in IDENTITY_CHECKS.items():
        resid = check(inputs)
        assert resid <= TOL, f"{name}: residual {resid:.3e}"


def test_residuals_nontrivial_inputs():
    """The checks exercise genuinely nonzero fields: a deliberately broken
    scale produces nonzero intermediate products (guard against vacuous
    zero-input passes)."""
    from ym2d.identities import _lorenz_state
    from ym2d.ym import assemble_rhs

    st = _lorenz_state(su(2), 0, 0.3, 4)
    rhs = assemble_rhs(st)

    assert max(p.norm() for p in rhs) > 1e-6


def test_data_consistency_reads_the_f12_time_derivative():
    """A state whose F12 time derivative is off by a mode of size 1e-6 reads
    a residual of at least that size."""
    inputs = seed_inputs(su(2), 0)
    st = inputs.state
    pert = PlaneWaveField.from_modes(2, [(40.0, (7.0, 0.0), 1e-6 * np.eye(2))])
    f12 = st.F[2]
    bad = FieldState(st.A, st.F[:2] + (SpacetimePair(f12.value, f12.time_deriv + pert),))
    assert check_data_consistency(inputs) <= TOL
    assert check_data_consistency(inputs._replace(state=bad)) >= pert.norm()


def _counted(monkeypatch, name):
    """Count the calls identities makes of its module-level function name."""
    calls = []
    fn = getattr(identities, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(identities, name, counted)
    return calls


def test_suite_builds_one_lorenz_state_per_seed(monkeypatch):
    calls = _counted(monkeypatch, "_lorenz_state")
    run_identity_suite(su(2), seeds=range(2))
    assert len(calls) == 2 * LORENZ_STATES_PER_SEED


def test_suite_makes_ym4_rhs_and_curvature_once_per_seed(monkeypatch):
    ym4 = _counted(monkeypatch, "ym4_rhs")
    curv = _counted(monkeypatch, "curvature")
    run_identity_suite(su(2), seeds=range(2))
    assert len(ym4) == 2 * YM4_CALLS_PER_SEED
    assert len(curv) == 2 * CURVATURE_CALLS_PER_SEED


def test_scaling_covariance_ym4_rhs_count(monkeypatch):
    inputs = seed_inputs(su(2), 0)
    calls = _counted(monkeypatch, "ym4_rhs")
    check_scaling_covariance(inputs)
    assert len(calls) == SCALING_YM4_CALLS


@pytest.mark.parametrize("spec", [su(2), so(4)], ids=str)
def test_suite_equals_per_check_maxima(spec):
    seeds = range(5, 8)
    per_seed = [seed_inputs(spec, seed) for seed in seeds]
    expected = {name: max(check(inputs) for inputs in per_seed)
                for name, check in IDENTITY_CHECKS.items()}
    assert run_identity_suite(spec, seeds=seeds) == expected
