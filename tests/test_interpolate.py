import tracemalloc

import numpy as np
import pytest

from elastmix.assembly import build_dof_map
from elastmix.grid import TensorGrid, flat_strides, unit_grid
from elastmix.interpolate import (
    DisplacementField,
    StressField,
    interp_stress,
    project_displacement,
)
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.verify import error_norms, fit_rate
from poly_utils import (
    PolyTensorField,
    element_origins,
    eval_disp_basis,
    eval_elements,
    local_dofs,
    local_field,
    multi_index_array,
    partial_block_grid,
    random_box,
    tensor_rule,
)

MAT = LameParams(mu=0.5, lam=1.0)


def _global_q2q1_field(dim):
    rng = np.random.default_rng(31)
    diag = rng.standard_normal((dim, 3))
    shear = {
        (i, j): rng.standard_normal(4)
        for i in range(dim)
        for j in range(i + 1, dim)
    }

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], dim, dim))
        for i in range(dim):
            a, b, c = diag[i]
            out[:, i, i] = a + b * x[:, i] + c * x[:, i] ** 2
        for (i, j), (a, b, c, d) in shear.items():
            vals = a + b * x[:, i] + c * x[:, j] + d * x[:, i] * x[:, j]
            out[:, i, j] = vals
            out[:, j, i] = vals
        return out

    return field


@pytest.mark.parametrize("dim", [2, 3])
def test_global_reproduction_of_discrete_fields(dim):
    grid = unit_grid(dim, 3)
    dofs = build_dof_map(grid)
    field = _global_q2q1_field(dim)
    interp = interp_stress(grid, dofs, field)
    pts, _ = tensor_rule(3, dim)
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    exact = field(x.reshape(-1, dim)).reshape(x.shape[0], -1, dim, dim)
    assert np.abs(eval_elements(interp, pts) - exact).max() <= 1e-12


def test_single_element_transverse_average():
    # sigma_11 = x2 has both face averages and the volume average equal 1/2
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 1]
        return out

    interp = interp_stress(grid, dofs, field)
    pts = np.random.default_rng(0).uniform(0, 1, size=(17, 2))
    vals = eval_elements(interp, pts)[0]
    assert np.allclose(vals[:, 0, 0], 0.5, atol=1e-14)
    assert np.abs(vals[:, 0, 1]).max() <= 1e-14


def test_vertex_values_reproduce_bilinear_shear():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = out[:, 1, 0] = x[:, 0] * x[:, 1]
        return out

    interp = interp_stress(grid, dofs, field)
    pts, _ = tensor_rule(2, 2)
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    vals = eval_elements(interp, pts)
    expected = x[:, :, 0] * x[:, :, 1]
    assert np.abs(vals[:, :, 0, 1] - expected).max() <= 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_divergence_moments_vanish_for_quadratic_fields(dim):
    # the local interpolation error of any quadratic symmetric field has
    # divergence orthogonal to the local displacement space
    rng = np.random.default_rng(71)
    pts, w = tensor_rule(3, dim)
    psi = eval_disp_basis(dim, pts)
    for _ in range(100):
        box = random_box(dim, rng)
        lo, hi = box
        h = hi - lo
        vol = float(np.prod(h))
        field = PolyTensorField.random(dim, rng, degree=2)
        _, interp_div = local_field(local_dofs(field, box), box)
        x = lo + pts * h
        div_diff = field.divergence(x) - interp_div(x)
        moments = vol * np.einsum("qi,bqi,q->b", div_diff, psi, w)
        exact_moments = vol * np.einsum(
            "qi,bqi,q->b", field.divergence(x), psi, w
        )
        scale = max(1.0, float(np.abs(exact_moments).max()))
        assert np.abs(moments).max() <= 1e-12 * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_shear_interpolation_error_l2_orthogonal_to_bilinears(dim):
    # for linear sigma_ij the interpolation error is L2-orthogonal to
    # Q1(x_i, x_j) on the element
    rng = np.random.default_rng(72)
    pts, w = tensor_rule(3, dim)
    for _ in range(100):
        box = random_box(dim, rng)
        lo, hi = box
        h = hi - lo
        vol = float(np.prod(h))
        field = PolyTensorField.random(dim, rng, degree=1)
        interp, _ = local_field(local_dofs(field, box), box)
        x = lo + pts * h
        xi = (x - lo) / h
        diff = field(x) - interp(x)
        for i in range(dim):
            for j in range(i + 1, dim):
                for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
                    test_fn = (xi[:, i] ** a) * (xi[:, j] ** b)
                    inner = vol * np.einsum("q,q,q->", diff[:, i, j], test_fn, w)
                    scale = max(1.0, vol * float(np.abs(field(x)[:, i, j]).max()))
                    assert abs(inner) <= 1e-12 * scale


def test_interpolation_first_order_rates():
    exact = sine_solution(2, MAT)
    hs, l2s, hdivs, proj = [], [], [], []
    for n in (4, 8, 16, 32):
        grid = unit_grid(2, n)
        dofs = build_dof_map(grid)
        pi_sigma = interp_stress(grid, dofs, exact.sigma)
        ph_u = project_displacement(grid, dofs, exact.u)
        rec = error_norms(grid, exact, pi_sigma, ph_u)
        hs.append(rec.h)
        l2s.append(rec.sigma_l2)
        hdivs.append(rec.sigma_hdiv)
        proj.append(rec.u_l2)
    assert fit_rate(hs, l2s) >= 0.9
    assert fit_rate(hs, hdivs) >= 0.9
    assert fit_rate(hs, proj) >= 0.9


def test_projection_of_quadratic():
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)

    def u(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        out[:, 0] = x[:, 0] ** 2
        return out

    field = project_displacement(grid, dofs, u)
    assert np.allclose(field.coeffs, [-1.0 / 6.0, 1.0, 0.0, 0.0], atol=1e-14)


def test_projection_of_transverse_coordinate_is_constant():
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)

    def u(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        out[:, 0] = x[:, 1]
        return out

    field = project_displacement(grid, dofs, u)
    assert np.allclose(field.coeffs, [0.5, 0.0, 0.0, 0.0], atol=1e-14)


def test_projection_idempotent():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(55)
    reference = DisplacementField(dofs, rng.standard_normal(dofs.n_disp))

    def evaluator(x):
        # the piecewise field at arbitrary points: locate each point's cell
        x = np.atleast_2d(x)
        h = grid.spacing
        cell = np.minimum((x - grid.lo) // h, np.asarray(grid.subdivisions) - 1).astype(int)
        xi = (x - grid.lo - cell * h) / h
        local = reference.coeffs[dofs.element_disp[cell @ flat_strides(grid.subdivisions)]]
        return np.einsum("ml,lmi->mi", local, eval_disp_basis(2, xi))

    projected = project_displacement(grid, dofs, evaluator)
    assert np.abs(projected.coeffs - reference.coeffs).max() <= 1e-13


def test_field_coefficient_validation():
    dofs = build_dof_map(unit_grid(2, 2))
    with pytest.raises(ValueError):
        StressField(dofs, np.zeros(dofs.n_stress + 1))
    with pytest.raises(ValueError):
        DisplacementField(dofs, np.zeros(3))


def _whole_array_interp(grid, dofs, sigma, npts=5):
    """interp_stress with every entity family evaluated in one array."""
    dim, lo, h = grid.dim, grid.lo, grid.spacing
    coeffs = np.zeros(dofs.n_stress)
    for (i, j), nodal, start in dofs.families:
        free = [k for k in range(dim) if not nodal[k]]
        pts, w = tensor_rule(npts, len(free))
        multis = multi_index_array(np.asarray(grid.subdivisions) + nodal)
        x = np.repeat((lo + multis * h)[:, None, :], pts.shape[0], axis=1)
        x[:, :, free] += pts * h[free]
        vals = sigma(x.reshape(-1, dim)).reshape(x.shape[:2] + (dim, dim))
        coeffs[start : start + multis.shape[0]] = vals[:, :, i, j] @ w
    return coeffs


def _whole_array_projection(grid, dofs, u, npts=5):
    """project_displacement with all elements in one array and a 2x2 solve."""
    dim = grid.dim
    pts, w = tensor_rule(npts, dim)
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    vals = u(x.reshape(-1, dim)).reshape(x.shape)
    moments = np.stack(
        [np.einsum("eqi,q->ei", vals, w), np.einsum("eqi,qi,q->ei", vals, pts, w)], axis=-1
    )
    local = np.linalg.solve(np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]]), moments[..., None])
    coeffs = np.zeros(dofs.n_disp)
    coeffs[dofs.element_disp] = local.reshape(grid.n_elements, 2 * dim)
    return coeffs


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_interpolation_matches_whole_array(dim):
    grid = partial_block_grid(dim)
    dofs = build_dof_map(grid)
    exact = sine_solution(dim, MAT)
    ref_sigma = _whole_array_interp(grid, dofs, exact.sigma)
    ref_u = _whole_array_projection(grid, dofs, exact.u)
    sigma = interp_stress(grid, dofs, exact.sigma).coeffs
    u = project_displacement(grid, dofs, exact.u).coeffs
    assert np.abs(sigma - ref_sigma).max() <= 1e-13 * np.abs(ref_sigma).max()
    assert np.abs(u - ref_u).max() <= 1e-13 * np.abs(ref_u).max()


@pytest.mark.parametrize("dim, n", [(2, 256), (3, 16), (4, 6)])
def test_field_stage_memory_bounded_by_block(dim, n):
    # 65 536 elements in 2D: whole-mesh quadrature arrays of interp_stress
    # and error_norms need about 200 MiB there; blocked, the peak above what
    # is live before the calls is one block's temporaries plus the outputs.
    # Blocks hold a fixed number of points, so the same bound holds in 3D
    # and 4D.
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    exact = sine_solution(dim, MAT)
    u_h = DisplacementField(dofs, np.zeros(dofs.n_disp))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pi_sigma = interp_stress(grid, dofs, exact.sigma)
        error_norms(grid, exact, pi_sigma, u_h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 64 * 2**20


def test_projection_holds_one_array_beside_its_result():
    # 262 144 elements: the load-sized arrays (8 MiB each) outweigh a block's
    # temporaries, so a third one (an out-of-place solve) breaks the bound
    grid = unit_grid(2, 512)
    dofs = build_dof_map(grid)
    u = sine_solution(2, MAT).u
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ph_u = project_displacement(grid, dofs, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.5 * ph_u.coeffs.nbytes


_FOREIGN = [
    (unit_grid(2, 4), build_dof_map(unit_grid(2, 8))),
    (TensorGrid(2, ((0.0, 2.0), (0.0, 1.0)), (8, 8)), build_dof_map(unit_grid(2, 8))),
]


@pytest.mark.parametrize("grid, dofs", _FOREIGN, ids=["other-n", "other-box"])
def test_interpolation_rejects_a_dof_map_of_another_grid(grid, dofs):
    with pytest.raises(ValueError, match="another grid"):
        interp_stress(grid, dofs, sine_solution(2, MAT).sigma)
    rebuilt = TensorGrid(2, dofs.grid.box, dofs.grid.subdivisions)
    assert interp_stress(rebuilt, dofs, sine_solution(2, MAT).sigma).coeffs.shape == (
        dofs.n_stress,
    )


@pytest.mark.parametrize("grid, dofs", _FOREIGN, ids=["other-n", "other-box"])
def test_projection_rejects_a_dof_map_of_another_grid(grid, dofs):
    with pytest.raises(ValueError, match="another grid"):
        project_displacement(grid, dofs, sine_solution(2, MAT).u)
    rebuilt = TensorGrid(2, dofs.grid.box, dofs.grid.subdivisions)
    assert project_displacement(rebuilt, dofs, sine_solution(2, MAT).u).coeffs.shape == (
        dofs.n_disp,
    )
