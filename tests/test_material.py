import numpy as np
import pytest

from elastmix.material import LameParams
from poly_utils import apply_compliance, apply_stiffness


def _random_symmetric(rng, count, n):
    s = rng.standard_normal((count, n, n))
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def test_compliance_of_identity():
    params = LameParams(mu=0.5, lam=1.0)
    out = apply_compliance(params, 2, np.eye(2))
    assert np.allclose(out, np.eye(2) / 3.0, atol=1e-15)


def test_stiffness_of_identity():
    params = LameParams(mu=0.5, lam=1.0)
    out = apply_stiffness(params, 2, np.eye(2))
    assert np.allclose(out, 3.0 * np.eye(2), atol=1e-15)


def test_stiffness_linear_in_zero():
    params = LameParams(mu=0.7, lam=2.0)
    assert np.allclose(apply_stiffness(params, 3, np.zeros((3, 3))), 0.0)


def test_trace_free_input_sees_only_shear():
    params = LameParams(mu=0.8, lam=123.0)
    s = np.array([[1.0, 2.0], [2.0, -1.0]])
    assert np.allclose(apply_compliance(params, 2, s), s / 1.6, atol=1e-14)


def test_mu_half_lambda_zero_is_identity_map():
    params = LameParams(mu=0.5, lam=0.0)
    rng = np.random.default_rng(7)
    s = _random_symmetric(rng, 5, 3)
    assert np.allclose(apply_compliance(params, 3, s), s, atol=1e-15)


@pytest.mark.parametrize("mu", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("lam", [0.0, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [2, 3])
def test_round_trip_both_ways(mu, lam, n):
    # the trace coupling carries magnitude ~(2 mu + n lam), so the bound is
    # relative to that scale; below it the rounding of the intermediate
    # tensor has already destroyed the information
    params = LameParams(mu, lam)
    rng = np.random.default_rng(42)
    eps = _random_symmetric(rng, 10, n)
    scale = max(1.0, params.trace_factor(n) * float(np.abs(eps).max()))
    stressed = apply_stiffness(params, n, eps)
    assert np.abs(apply_compliance(params, n, stressed) - eps).max() <= 1e-14 * scale
    relaxed = apply_compliance(params, n, eps)
    assert np.abs(apply_stiffness(params, n, relaxed) - eps).max() <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3])
def test_compliance_spd_lower_bound(n):
    params = LameParams(mu=0.4, lam=5.0)
    rng = np.random.default_rng(3)
    s = _random_symmetric(rng, 50, n)
    energy = np.einsum("mij,mij->m", apply_compliance(params, n, s), s)
    norms = np.einsum("mij,mij->m", s, s)
    floor = 1 / params.trace_factor(n)
    assert (energy >= floor * norms - 1e-12 * norms).all()


def test_asymmetric_input_rejected():
    params = LameParams(mu=0.5, lam=1.0)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        apply_compliance(params, 2, bad)
    with pytest.raises(ValueError, match="symmetric"):
        apply_stiffness(params, 2, bad)


def test_wrong_shape_rejected():
    params = LameParams(mu=0.5, lam=1.0)
    with pytest.raises(ValueError):
        apply_compliance(params, 3, np.eye(2))


def test_parameter_validation():
    with pytest.raises(ValueError):
        LameParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        LameParams(mu=-1.0, lam=1.0)
    with pytest.raises(ValueError):
        LameParams(mu=1.0, lam=-0.5)
    for mu, lam in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ValueError):
            LameParams(mu=mu, lam=lam)
