import numpy as np
import pytest

from elastmix.material import LameParams
from elastmix.manufactured import (
    polynomial_solution,
    sine_solution,
    solution_by_name,
)
from poly_utils import apply_compliance, apply_stiffness

MAT = LameParams(mu=0.5, lam=1.0)


def _strain(exact, x):
    """eps(u) = (grad u + grad u^T) / 2 at the points x."""
    g = exact.grad_u(x)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _boundary_points(n, rng, count=40):
    pts = rng.uniform(0.0, 1.0, size=(count, n))
    axis = rng.integers(0, n, size=count)
    side = rng.integers(0, 2, size=count)
    pts[np.arange(count), axis] = side
    return pts


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_displacement_vanishes_on_boundary(factory, n):
    exact = factory(n, MAT)
    pts = _boundary_points(n, np.random.default_rng(1))
    assert np.abs(exact.u(pts)).max() <= 1e-14


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_matches_finite_differences(factory, n):
    exact = factory(n, MAT)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.1, 0.9, size=(25, n))
    step = 1e-6
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = step
        fd = (exact.u(pts + shift) - exact.u(pts - shift)) / (2 * step)
        assert np.abs(exact.grad_u(pts)[:, :, j] - fd).max() <= 1e-6


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_load_matches_divergence_by_finite_differences(factory, n):
    exact = factory(n, MAT)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(20, n))
    step = 1e-5
    fd_div = np.zeros((20, n))
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = step
        fd_div += (exact.sigma(pts + shift)[:, :, j] - exact.sigma(pts - shift)[:, :, j]) / (
            2 * step
        )
    f_vals = exact.f(pts)
    scale = np.maximum(1.0, np.abs(f_vals))
    assert (np.abs(fd_div - f_vals) / scale).max() <= 1e-7


def test_sine_stress_vanishes_at_center_2d():
    exact = sine_solution(2, MAT)
    center = np.array([[0.5, 0.5]])
    assert np.abs(exact.grad_u(center)).max() <= 1e-15
    assert np.abs(exact.sigma(center)).max() <= 1e-15


def test_polynomial_strain_component():
    exact = polynomial_solution(2, MAT)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(30, 2))
    eps = _strain(exact, pts)
    expected = (1.0 - 2.0 * pts[:, 0]) * pts[:, 1] * (1.0 - pts[:, 1])
    assert np.allclose(eps[:, 0, 0], expected, atol=1e-14)


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_constitutive_round_trip(factory, n):
    exact = factory(n, MAT)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(30, n))
    recovered = apply_compliance(MAT, n, exact.sigma(pts))
    assert np.abs(recovered - _strain(exact, pts)).max() <= 1e-13


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
def test_sigma_exactly_symmetric(factory):
    exact = factory(3, MAT)
    pts = np.random.default_rng(6).uniform(0, 1, size=(30, 3))
    sig = exact.sigma(pts)
    assert (sig == np.swapaxes(sig, -1, -2)).all()


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_sigma_equals_stiffness_of_strain(factory, n):
    exact = factory(n, MAT)
    pts = np.random.default_rng(7).uniform(0, 1, size=(200, n))
    assert np.array_equal(exact.sigma(pts), apply_stiffness(MAT, n, _strain(exact, pts)))


def test_unsupported_dimension_rejected():
    for factory in (sine_solution, polynomial_solution):
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                factory(n, MAT)
        assert factory(4, MAT).dim == 4


def test_solution_registry():
    assert solution_by_name("sine", 2, MAT).name == "sine"
    assert solution_by_name("polynomial", 3, MAT).name == "polynomial"
    with pytest.raises(ValueError, match="unknown solution"):
        solution_by_name("bogus", 2, MAT)
