import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.io import mmread

from elastmix.assembly import (
    assemble,
    assemble_disp_mass,
    assemble_load,
    assemble_stress_gram,
    build_dof_map,
)
from elastmix.element import eval_disp_basis, local_compliance_matrix, local_div_matrix
from elastmix.grid import TensorGrid, unit_grid
from elastmix.interpolate import StressField, interp_stress
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.quadrature import tensor_rule
from poly_utils import (
    kernel_basis,
    partial_block_grid,
    quadrature_compliance_matrix,
    quadrature_disp_mass,
    quadrature_div_matrix,
    quadrature_divdiv_gram,
    quadrature_l2_gram,
)

MAT = LameParams(mu=0.5, lam=1.0)


def test_dof_counts_2d():
    dofs = build_dof_map(unit_grid(2, 2))
    assert dofs.n_stress == 2 * (6 + 4) + 9 == 29
    assert dofs.n_disp == 16
    assert dofs.n_total == 45


def test_dof_counts_single_element():
    dofs = build_dof_map(unit_grid(2, 1))
    assert dofs.n_stress == 10
    assert dofs.n_disp == 4


def test_dof_counts_3d():
    dofs = build_dof_map(unit_grid(3, 2))
    assert dofs.n_stress == 3 * (12 + 8) + 3 * 18 == 114
    assert dofs.n_disp == 48


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_dof_count_closed_form_2d(n):
    dofs = build_dof_map(unit_grid(2, n))
    assert dofs.n_stress == 2 * (n * (n + 1) + n * n) + (n + 1) ** 2
    assert dofs.n_disp == 4 * n * n


def test_local_to_global_injective_per_element():
    dofs = build_dof_map(unit_grid(3, 2))
    for row in dofs.element_stress:
        assert len(set(row.tolist())) == row.size


def test_entity_sharing_counts():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    counts = np.bincount(dofs.element_stress.ravel(), minlength=dofs.n_stress)
    # interior face between elements (0,0) and (1,0), axis 0 plane 1
    from elastmix.grid import FaceId, SubfaceId

    assert counts[dofs.diag_face_index(FaceId(0, (1, 0)))] == 2
    assert counts[dofs.diag_face_index(FaceId(0, (0, 0)))] == 1
    assert counts[dofs.shear_index(SubfaceId((0, 1), (1, 1)))] == 4
    assert counts[dofs.shear_index(SubfaceId((0, 1), (0, 0)))] == 1
    assert counts[dofs.diag_volume_index(0, (0, 0))] == 1


def test_single_element_system_equals_local_matrices():
    # nothing is shared, so the global blocks are the local matrices seen
    # through the (fixed) local-to-global permutation
    grid = unit_grid(2, 1)
    system = assemble(grid, MAT)
    box = grid.element_box((0, 0))
    s_perm = system.dofs.element_stress[0]
    d_perm = system.dofs.element_disp[0]
    m_global = system.M.toarray()[np.ix_(s_perm, s_perm)]
    b_global = system.B.toarray()[np.ix_(d_perm, s_perm)]
    assert np.allclose(m_global, local_compliance_matrix(box, MAT), atol=1e-15)
    assert np.allclose(b_global, local_div_matrix(box), atol=1e-15)


def test_global_quadratic_form_positive():
    system = assemble(unit_grid(2, 3), MAT)
    rng = np.random.default_rng(8)
    for _ in range(10):
        tau = rng.standard_normal(system.dofs.n_stress)
        assert tau @ (system.M @ tau) > 0


def test_divergence_of_constant_identity_field():
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    coeffs = np.zeros(dofs.n_stress)
    for i in range(2):
        start = dofs.diag_face_offsets[i]
        coeffs[start : start + grid.n_faces(i)] = 1.0
        start = dofs.diag_volume_offsets[i]
        coeffs[start : start + grid.n_elements] = 1.0
    assert np.abs(system.B @ coeffs).max() <= 1e-14


def test_normal_traces_match_across_interior_faces():
    # random conforming coefficients: the trace of sigma . e_axis agrees from
    # both sides of every interior face at quadrature points
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(17)
    field = StressField(dofs, rng.standard_normal(dofs.n_stress))
    nodes = np.linspace(0.06, 0.94, 5)
    for axis in range(2):
        other = 1 - axis
        for plane in range(1, grid.subdivisions[axis]):
            for row in range(grid.subdivisions[other]):
                left = [0, 0]
                left[axis], left[other] = plane - 1, row
                right = [0, 0]
                right[axis], right[other] = plane, row
                xi_l = np.zeros((5, 2))
                xi_l[:, axis] = 1.0
                xi_l[:, other] = nodes
                xi_r = np.zeros((5, 2))
                xi_r[:, other] = nodes
                trace_l = field.eval_on_element(tuple(left), xi_l)[:, :, axis]
                trace_r = field.eval_on_element(tuple(right), xi_r)[:, :, axis]
                assert np.abs(trace_l - trace_r).max() <= 1e-12


def test_normal_traces_match_across_interior_faces_3d():
    # in 3D the trace of sigma . e_axis on an interior face carries one
    # diagonal and two shear components; all must be continuous
    grid = unit_grid(3, 2)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(19)
    field = StressField(dofs, rng.standard_normal(dofs.n_stress))
    pts2, _ = tensor_rule(3, 2)
    for axis in range(3):
        others = [k for k in range(3) if k != axis]
        for plane in range(1, grid.subdivisions[axis]):
            for row in np.ndindex(*(grid.subdivisions[k] for k in others)):
                left = [0, 0, 0]
                right = [0, 0, 0]
                left[axis], right[axis] = plane - 1, plane
                for k, r in zip(others, row):
                    left[k] = right[k] = r
                xi_l = np.zeros((pts2.shape[0], 3))
                xi_r = np.zeros((pts2.shape[0], 3))
                xi_l[:, axis] = 1.0
                for col, k in enumerate(others):
                    xi_l[:, k] = pts2[:, col]
                    xi_r[:, k] = pts2[:, col]
                trace_l = field.eval_on_element(tuple(left), xi_l)[:, :, axis]
                trace_r = field.eval_on_element(tuple(right), xi_r)[:, :, axis]
                assert np.abs(trace_l - trace_r).max() <= 1e-12


def test_anisotropic_subdivisions_full_pipeline():
    # different cell counts per axis: assemble, solve, and verify the energy
    # identity and the discrete-space reproduction of the interpolation
    from elastmix.grid import build_grid
    from elastmix.manufactured import sine_solution
    from elastmix.solver import solve

    grid = build_grid(2, [(0.0, 1.0), (0.0, 1.0)], (2, 4))
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    exact = sine_solution(2, MAT)
    load = assemble_load(grid, exact.f, dofs)
    sigma_h, u_h, report = solve(system, load)
    assert report.residual <= 1e-11
    energy = sigma_h.coeffs @ (system.M @ sigma_h.coeffs)
    assert abs(energy + load @ u_h.coeffs) / abs(energy) <= 1e-9

    def discrete_field(x):
        x = np.atleast_2d(x)
        out = np.empty((x.shape[0], 2, 2))
        out[:, 0, 0] = 1.0 + x[:, 0] - 2.0 * x[:, 0] ** 2
        out[:, 1, 1] = x[:, 1] ** 2
        out[:, 0, 1] = out[:, 1, 0] = 0.3 + x[:, 0] * x[:, 1]
        return out

    interp = interp_stress(grid, dofs, discrete_field)
    pts, _ = tensor_rule(3, 2)
    x = grid.element_origins()[:, None, :] + pts[None, :, :] * grid.spacing
    expected = discrete_field(x.reshape(-1, 2)).reshape(x.shape[0], -1, 2, 2)
    assert np.abs(interp.eval_elements(pts) - expected).max() <= 1e-13


def test_kernel_fields_divergence_free_pointwise():
    # weak divergence-free fields have pointwise zero divergence; measure it
    # by evaluation (the Gram quadratic form would bottom out at sqrt(eps))
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    g_l2, _ = assemble_stress_gram(grid, dofs)
    basis = kernel_basis(system.B.toarray())
    assert basis.shape[1] == dofs.n_stress - dofs.n_disp
    pts, w = tensor_rule(3, 2)
    rng = np.random.default_rng(23)
    for _ in range(5):
        tau = basis @ rng.standard_normal(basis.shape[1])
        div_vals = StressField(dofs, tau).div_elements(pts)
        div_norm = np.sqrt(
            grid.element_volume * np.einsum("eqi,eqi,q->", div_vals, div_vals, w)
        )
        l2_norm = np.sqrt(tau @ (g_l2 @ tau))
        assert div_norm <= 1e-10 * l2_norm


def test_load_zero():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    load = assemble_load(grid, lambda x: np.zeros_like(x), dofs)
    assert np.abs(load).max() == 0.0


def test_load_constant_force_single_element():
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)

    def force(x):
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        return out

    load = assemble_load(grid, force, dofs)
    assert np.allclose(load, [1.0, 0.5, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_load_matches_whole_array(dim):
    grid = partial_block_grid(dim)
    dofs = build_dof_map(grid)
    f = sine_solution(dim, MAT).f
    pts, w = tensor_rule(5, dim)
    x = grid.element_origins()[:, None, :] + pts[None, :, :] * grid.spacing
    fx = f(x.reshape(-1, dim)).reshape(x.shape)
    local = grid.element_volume * np.einsum("eqi,bqi,q->eb", fx, eval_disp_basis(dim, pts), w)
    expected = np.zeros(dofs.n_disp)
    expected[dofs.element_disp] = local
    load = assemble_load(grid, f, dofs)
    assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()


def test_load_consistent_with_divergence_of_discrete_field():
    # sigma = [[x1^2 + c, x1 x2], [x1 x2, x2^2 + c]] lies in the global stress
    # space and div sigma = (3 x1, 3 x2) lies in the displacement space, so
    # the load assembled from f must equal B applied to the interpolant
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)

    def sigma(x):
        x = np.atleast_2d(x)
        out = np.empty((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0] ** 2 + 0.7
        out[:, 1, 1] = x[:, 1] ** 2 + 0.7
        out[:, 0, 1] = out[:, 1, 0] = x[:, 0] * x[:, 1]
        return out

    def f(x):
        return 3.0 * np.atleast_2d(x)

    # cross-check the hand divergence by central differences
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    step = 1e-6
    fd_div = sum(
        (sigma(pts + np.eye(2)[j] * step)[:, :, j] - sigma(pts - np.eye(2)[j] * step)[:, :, j])
        / (2 * step)
        for j in range(2)
    )
    assert np.abs(fd_div - f(pts)).max() <= 1e-6

    field = interp_stress(grid, dofs, sigma)
    load = assemble_load(grid, f, dofs)
    assert np.abs(system.B @ field.coeffs - load).max() <= 1e-12


def test_affine_parameter_dependence():
    # M(mu, lam) = (1/2mu) G - lam / (2mu (2mu + n lam)) T for fixed G, T
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    gram = assemble(grid, LameParams(0.5, 0.0), dofs).M.toarray()
    m_unit = assemble(grid, LameParams(0.5, 1.0), dofs).M.toarray()
    trace_coupling = 3.0 * (gram - m_unit)

    mu, lam = 0.3, 1e3
    predicted = gram / (2 * mu) - lam / (2 * mu * (2 * mu + 2 * lam)) * trace_coupling
    actual = assemble(grid, LameParams(mu, lam), dofs).M.toarray()
    assert np.allclose(actual, predicted, rtol=1e-12, atol=1e-12)


def test_matrix_market_export(tmp_path):
    system = assemble(unit_grid(2, 2), MAT)
    path = tmp_path / "system.mtx"
    system.export_matrix_market(path)
    loaded = mmread(path)
    assert np.allclose(loaded.toarray(), system.full_matrix().toarray(), atol=1e-15)


def test_disp_mass_block_diagonal():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    mass = assemble_disp_mass(grid, dofs).toarray()
    eigs = np.linalg.eigvalsh(mass)
    assert eigs.min() > 0
    # unshared unknowns: exactly 2x2 blocks per element and component
    coupling = np.abs(mass) > 1e-14
    for e in range(grid.n_elements):
        idx = dofs.element_disp[e]
        outside = np.setdiff1d(np.arange(dofs.n_disp), idx)
        assert not coupling[np.ix_(idx, outside)].any()


@pytest.mark.parametrize("grid", [partial_block_grid(2), unit_grid(3, 6)], ids=["2d", "3d"])
def test_int32_triplets_give_the_int64_matrices(grid):
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    box = grid.element_box((0,) * grid.dim)
    for matrix, local, rows in (
        (system.M, local_compliance_matrix(box, MAT), dofs.element_stress),
        (system.B, local_div_matrix(box), dofs.element_disp),
    ):
        # the same nonzero local entries, scattered with int64 triplets
        r_loc, c_loc = np.nonzero(local)
        r = rows[:, r_loc].astype(np.int64).ravel()
        c = dofs.element_stress[:, c_loc].astype(np.int64).ravel()
        data = np.broadcast_to(local[r_loc, c_loc], (grid.n_elements, r_loc.size)).ravel()
        expected = sp.coo_matrix((data, (r, c)), shape=matrix.shape).tocsr()
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.array_equal(matrix.data, expected.data)


def _closure_scatter(local, rows, cols, shape):
    """Every entry of a dense local matrix, scattered with duplicates summed."""
    pairs = (rows.shape[0],) + local.shape
    r = np.broadcast_to(rows[:, :, None], pairs).ravel()
    c = np.broadcast_to(cols[:, None, :], pairs).ravel()
    return sp.coo_matrix((np.broadcast_to(local, pairs).ravel(), (r, c)), shape=shape).tocsr()


PATTERN_GRIDS = [
    partial_block_grid(2),
    partial_block_grid(3),
    TensorGrid(4, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0)), (2, 1, 3, 2)),
]


@pytest.mark.parametrize("lam", [1.0, 1e4])
@pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=["2d", "3d", "4d-one-cell-axis"])
def test_matrices_stored_on_exact_pattern(grid, lam):
    # the quadrature oracle stores the Gauss round-off at structural zeros;
    # the assembly must store exactly the oracle entries above that level
    material = LameParams(0.6, lam)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    g_l2, g_div = assemble_stress_gram(grid, dofs)
    box = grid.element_box((0,) * grid.dim)
    stress, disp = dofs.element_stress, dofs.element_disp
    cases = [
        (system.M, quadrature_compliance_matrix(box, material), stress, stress),
        (system.B, quadrature_div_matrix(box), disp, stress),
        (g_l2, quadrature_l2_gram(box), stress, stress),
        (g_div, quadrature_divdiv_gram(box), stress, stress),
        (assemble_disp_mass(grid, dofs), quadrature_disp_mass(box), disp, disp),
    ]
    for matrix, local, rows, cols in cases:
        assert np.abs(matrix.data).min() > 1e-12 * np.abs(matrix.data).max()
        oracle = _closure_scatter(local, rows, cols, matrix.shape)
        oracle.data[np.abs(oracle.data) <= 1e-12 * np.abs(oracle.data).max()] = 0.0
        oracle.eliminate_zeros()
        assert matrix.has_canonical_format
        assert np.array_equal(matrix.indptr, oracle.indptr)
        assert np.array_equal(matrix.indices, oracle.indices)
        assert np.all(np.abs(matrix.data - oracle.data) <= 1e-14 * np.abs(oracle.data))


@pytest.mark.parametrize("dim, n, limit_mib", [(2, 256, 100), (3, 24, 64)])
def test_assemble_memory_on_exact_pattern(dim, n, limit_mib):
    # the closure pattern peaks at 176 MiB (2D N=256) and 163 MiB (3D N=24)
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assemble(grid, MAT, dofs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < limit_mib * 2**20
