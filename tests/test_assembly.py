import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import BSpline

import elastmix.assembly
from elastmix.assembly import assemble, assemble_load, build_dof_map
from elastmix.element import (
    DHAT_MEANS,
    DQUAD_MOMENTS,
    HAT_GRAM,
    HAT_MOMENTS,
    QUAD_GRAM,
    element_table,
    local_compliance_matrix,
    local_div_matrix,
)
from elastmix.grid import TensorGrid, flat_strides, unit_grid
from elastmix.interpolate import DisplacementField, StressField, interp_stress
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.verify import superclose_norms
from poly_utils import (
    element_origins,
    eval_disp_basis,
    eval_elements,
    eval_stress_basis_div,
    grams_and_mass,
    kernel_basis,
    multi_index_array,
    partial_block_grid,
    quadrature_compliance_matrix,
    quadrature_disp_mass,
    quadrature_div_matrix,
    quadrature_l2_gram,
    scatter,
    tensor_rule,
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


# anisotropic boxes, each with an axis of one cell
SHARING_GRIDS = [
    TensorGrid(2, ((0.0, 1.0), (-0.5, 2.0)), (3, 1)),
    TensorGrid(3, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3)), (2, 1, 3)),
    TensorGrid(4, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0)), (2, 1, 3, 2)),
]


def test_dof_map_is_the_multi_index_numbering():
    # local DOF a on cell c: its family's start plus the flat position of
    # c + offset_a in the family's lattice, one int64 matmul per local DOF;
    # the tables take the index dtype of B's CSR
    for grid in SHARING_GRIDS + [unit_grid(2, 5), unit_grid(3, 3)]:
        dofs = build_dof_map(grid)
        cells = multi_index_array(grid.subdivisions)
        starts = {(entry, nodal): start for entry, nodal, start in dofs.families}
        index = assemble(grid, MAT, dofs).B.indices.dtype
        assert dofs.element_stress.dtype == dofs.element_disp.dtype == index
        for a, dof in enumerate(element_table(grid.dim)):
            strides = flat_strides(np.asarray(grid.subdivisions) + dof.nodal)
            expected = starts[dof.entry, dof.nodal] + (cells + dof.offset) @ strides
            assert np.array_equal(dofs.element_stress[:, a], expected)
        assert np.array_equal(dofs.element_disp.ravel(), np.arange(dofs.n_disp))


def test_entity_sharing_counts():
    # the cells sharing an entity are counted per axis: 1 on a boundary plane,
    # 2 on an interior one, and 1 along the axes where the entity spans the cell
    for grid in SHARING_GRIDS:
        dofs = build_dof_map(grid)
        counts = np.bincount(dofs.element_stress.ravel())
        covered = 0
        for _, nodal, start in dofs.families:
            dims = np.asarray(grid.subdivisions) + nodal
            multi = multi_index_array(dims)
            inside = (multi > 0) & (multi < dims - 1)
            expected = np.prod(np.where(nodal, 1 + inside, 1), axis=1)
            assert np.array_equal(counts[start : start + expected.size], expected)
            covered += expected.size
        assert covered == dofs.n_stress == counts.size


def test_single_element_system_equals_local_matrices():
    # nothing is shared, so the global blocks are the local matrices seen
    # through the (fixed) local-to-global permutation
    grid = unit_grid(2, 1)
    system = assemble(grid, MAT, build_dof_map(grid))
    s_perm = system.dofs.element_stress[0]
    d_perm = system.dofs.element_disp[0]
    m_global = system.M.toarray()[np.ix_(s_perm, s_perm)]
    b_global = system.B.toarray()[np.ix_(d_perm, s_perm)]
    assert np.allclose(m_global, local_compliance_matrix(grid.spacing, MAT), atol=1e-15)
    assert np.allclose(b_global, local_div_matrix(grid.spacing), atol=1e-15)


def test_global_quadratic_form_positive():
    grid = unit_grid(2, 3)
    system = assemble(grid, MAT, build_dof_map(grid))
    rng = np.random.default_rng(8)
    for _ in range(10):
        tau = rng.standard_normal(system.dofs.n_stress)
        assert tau @ (system.M @ tau) > 0


def test_divergence_of_constant_identity_field():
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    coeffs = np.zeros(dofs.n_stress)
    diagonal = [a for a, dof in enumerate(element_table(2)) if dof.entry[0] == dof.entry[1]]
    coeffs[dofs.element_stress[:, diagonal]] = 1.0
    assert np.abs(system.B @ coeffs).max() <= 1e-14


def _assert_normal_traces_continuous(grid, seed):
    # random conforming coefficients: sigma . e_axis at the upper face of each
    # cell equals it at the lower face of the next cell along the axis, at
    # Gauss points of the face; all cells are evaluated at once
    dim = grid.dim
    dofs = build_dof_map(grid)
    field = StressField(dofs, np.random.default_rng(seed).standard_normal(dofs.n_stress))
    pts, _ = tensor_rule(3, dim - 1)
    multi = multi_index_array(grid.subdivisions)
    stride = 1
    for axis in range(dim):
        others = [k for k in range(dim) if k != axis]
        lower = np.zeros((pts.shape[0], dim))
        lower[:, others] = pts
        upper = lower.copy()
        upper[:, axis] = 1.0
        cells = np.nonzero(multi[:, axis] < grid.subdivisions[axis] - 1)[0]
        trace_l = eval_elements(field, upper)[cells, :, :, axis]
        trace_r = eval_elements(field, lower)[cells + stride, :, :, axis]
        assert cells.size > 0
        assert np.abs(trace_l - trace_r).max() <= 1e-12
        stride *= grid.subdivisions[axis]


def test_normal_traces_match_across_interior_faces():
    _assert_normal_traces_continuous(unit_grid(2, 3), seed=17)
    # 4D: the trace carries one diagonal and three shear components
    _assert_normal_traces_continuous(
        TensorGrid(4, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0)), (2, 3, 2, 2)), seed=21
    )


def test_normal_traces_match_across_interior_faces_3d():
    # in 3D the trace of sigma . e_axis on an interior face carries one
    # diagonal and two shear components; all must be continuous
    _assert_normal_traces_continuous(
        TensorGrid(3, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3)), (2, 3, 2)), seed=19
    )


def test_anisotropic_subdivisions_full_pipeline():
    # different cell counts per axis: assemble, solve, and verify the energy
    # identity and the discrete-space reproduction of the interpolation
    from elastmix.solver import solve

    grid = TensorGrid(2, ((0.0, 1.0), (0.0, 1.0)), (2, 4))
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
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    expected = discrete_field(x.reshape(-1, 2)).reshape(x.shape[0], -1, 2, 2)
    assert np.abs(eval_elements(interp, pts) - expected).max() <= 1e-13


def test_kernel_fields_divergence_free_pointwise():
    # weak divergence-free fields have pointwise zero divergence; measure it
    # by evaluation (the Gram quadratic form would bottom out at sqrt(eps))
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    g_l2, _, _ = grams_and_mass(grid, dofs)
    basis = kernel_basis(system.B.toarray())
    assert basis.shape[1] == dofs.n_stress - dofs.n_disp
    pts, w = tensor_rule(3, 2)
    div_basis = eval_stress_basis_div(2, pts, grid.spacing)
    rng = np.random.default_rng(23)
    for _ in range(5):
        tau = basis @ rng.standard_normal(basis.shape[1])
        div_vals = np.einsum("el,lqi->eqi", tau[dofs.element_stress], div_basis)
        div_norm = np.sqrt(
            grid.element_volume * np.einsum("eqi,eqi,q->", div_vals, div_vals, w)
        )
        l2_norm = np.sqrt(tau @ (g_l2 @ tau))
        assert div_norm <= 1e-10 * l2_norm


def _potential_stresses(grid, dofs):
    """Interpolants of the stresses of the tensor-product stress potentials.

    Per axis pair i < j, Psi = S_a(x_i) S_b(x_j) prod_k 1[x_k in cell c_k]
    over the other axes k, with S_a the N + 2 C^1 quadratic B-splines on the
    open uniform knots of an axis, maps to the divergence-free stress
    sigma_ii = d_jj Psi, sigma_jj = d_ii Psi, sigma_ij = sigma_ji = -d_i d_j Psi
    (2D Airy, 3D Maxwell stress functions).  Returns one column per Psi.
    """
    dim, lo, h, subs = grid.dim, grid.lo, grid.spacing, grid.subdivisions
    splines = [
        BSpline(np.r_[a, a, np.linspace(a, b, n + 1), b, b], np.eye(n + 2), 2)
        for (a, b), n in zip(grid.box, subs)
    ]
    columns = []
    for i, j in itertools.combinations(range(dim), 2):
        others = [k for k in range(dim) if k not in (i, j)]
        counts = [subs[i] + 2, subs[j] + 2] + [subs[k] for k in others]
        for a, b, *cells in itertools.product(*map(range, counts)):

            def sigma(x, i=i, j=j, a=a, b=b, cells=cells, others=others):
                si = [splines[i](x[:, i], nu)[:, a] for nu in range(3)]
                sj = [splines[j](x[:, j], nu)[:, b] for nu in range(3)]
                p0 = np.ones(len(x))
                # the rule's points along these axes are Gauss nodes inside cells
                for k, c in zip(others, cells):
                    p0 *= np.floor((x[:, k] - lo[k]) / h[k]) == c
                out = np.zeros((len(x), dim, dim))
                out[:, i, i] = si[0] * sj[2] * p0
                out[:, j, j] = si[2] * sj[0] * p0
                out[:, i, j] = out[:, j, i] = -si[1] * sj[1] * p0
                return out

            columns.append(interp_stress(grid, dofs, sigma).coeffs)
    return np.column_stack(columns)


@pytest.mark.parametrize("dim, n", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_kernel_is_spanned_by_tensor_product_stress_potentials(dim, n):
    # the element is a piece of a discrete elasticity sequence: B maps every
    # potential's stress to zero, and the potentials fill the kernel, whose
    # dimension is n_stress - n_disp since B is onto
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    B = assemble(grid, MAT, dofs).B
    Z = _potential_stresses(grid, dofs)
    # each column's image relative to the column's largest entry
    image = np.abs(B @ Z).max(axis=0) / np.abs(Z).max(axis=0)
    assert image.max() <= 1e-13 * abs(B).max()
    assert np.linalg.matrix_rank(B.toarray()) == dofs.n_disp
    assert np.linalg.matrix_rank(Z) == dofs.n_stress - dofs.n_disp


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
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
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


def test_disp_mass_block_diagonal():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    mass = grams_and_mass(grid, dofs)[2].toarray()
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
    for matrix, local, rows in (
        (system.M, local_compliance_matrix(grid.spacing, MAT), dofs.element_stress),
        (system.B, local_div_matrix(grid.spacing), dofs.element_disp),
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


@pytest.mark.parametrize("grid", [partial_block_grid(2), unit_grid(3, 4)], ids=["2d", "3d"])
def test_int64_tables_give_the_int32_results(grid, monkeypatch):
    # past 2**31 unknowns the tables and the CSR indices are int64; forced
    # here on a small grid, every result equals that of the int32 tables
    def build():
        dofs = build_dof_map(grid)
        system = assemble(grid, MAT, dofs)
        load = assemble_load(grid, sine_solution(grid.dim, MAT).f, dofs)
        rng = np.random.default_rng(grid.dim)
        a, b = rng.standard_normal((2, dofs.n_stress))
        ua, ub = rng.standard_normal((2, dofs.n_disp))
        close = superclose_norms(
            StressField(dofs, a),
            StressField(dofs, b),
            DisplacementField(dofs, ua),
            DisplacementField(dofs, ub),
        )
        return dofs, system, load, close

    dofs32, system32, load32, close32 = build()
    monkeypatch.setattr(elastmix.assembly, "_index_dtype", lambda size: np.int64)
    dofs64, system64, load64, close64 = build()
    assert dofs32.element_stress.dtype == system32.M.indices.dtype == np.int32
    assert dofs64.element_stress.dtype == dofs64.element_disp.dtype == np.int64
    assert np.array_equal(dofs32.element_stress, dofs64.element_stress)
    assert np.array_equal(dofs32.element_disp, dofs64.element_disp)
    # scipy stores the CSR indices in the narrowest dtype that holds them
    for m32, m64 in ((system32.M, system64.M), (system32.B, system64.B)):
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(m64, name), getattr(m32, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    assert np.array_equal(load32, load64)
    assert close32 == close64


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
    g_l2, _, mass = grams_and_mass(grid, dofs)
    h = grid.spacing
    stress, disp = dofs.element_stress, dofs.element_disp
    cases = [
        (system.M, quadrature_compliance_matrix(h, material), stress, stress),
        (system.B, quadrature_div_matrix(h), disp, stress),
        (g_l2, quadrature_l2_gram(h), stress, stress),
        (mass, quadrature_disp_mass(h), disp, disp),
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


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("grid", PATTERN_GRIDS, ids=["2d", "3d", "4d-one-cell-axis"])
def test_direct_csr_equals_the_scattered_triplets(grid, lam):
    # bit for bit the CSR of the COO triplets with duplicates summed; lam = 0
    # drops the trace coupling and with it entries of M's pattern
    material = LameParams(0.6, lam)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    for matrix, local, rows in (
        (system.M, local_compliance_matrix(grid.spacing, material), dofs.element_stress),
        (system.B, local_div_matrix(grid.spacing), dofs.element_disp),
    ):
        oracle = scatter(local, rows, dofs.element_stress, matrix.shape)
        assert matrix.has_canonical_format
        for name in ("indptr", "indices", "data"):
            got, expected = getattr(matrix, name), getattr(oracle, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name


def _summed_over_cells(local, n, nodal_rows, nodal_cols):
    """A reference 1D block summed over n cells: cell e adds ``local`` at the
    points e and e + 1 of a nodal side, and at its own one or two unknowns
    (numbered cell by cell) of a cell side."""

    def places(size, nodal):
        if nodal:
            return np.arange(n)[:, None] + np.arange(size)
        return np.arange(n * size).reshape(n, size)

    rows, cols = places(local.shape[0], nodal_rows), places(local.shape[1], nodal_cols)
    out = np.zeros((rows.max() + 1, cols.max() + 1))
    for r, c in zip(rows, cols):
        out[np.ix_(r, c)] += local
    return out


def _kron_over_axes(factors):
    """The Kronecker product of one matrix per axis, axis 0 fastest."""
    out = np.ones((1, 1))
    for factor in factors:
        out = np.kron(factor, out)
    return out


def _kron_system(grid, material):
    """M and B as sums of Kronecker products of the element's 1D constants.

    Along its own axis a diagonal entry is a face pair (q0, q1) or a volume
    function qv, and 1 on every other axis; a shear entry is a hat pair on
    its two axes.  The quadratics sum to 1, so the Gram of (q0, q1, qv, 1)
    is QUAD_GRAM bordered by its row sums.  Displacement component c is the
    moments (1, t) on axis c, unknown 2 e + m of that axis.
    """
    dim, subs, h, vol = grid.dim, grid.subdivisions, grid.spacing, grid.element_volume
    coupling = material.lam / (2 * material.mu + dim * material.lam)
    mean = QUAD_GRAM.sum(axis=1, keepdims=True)
    values = np.block([[QUAD_GRAM, mean], [mean.T, np.ones((1, 1))]])
    dofs = build_dof_map(grid)
    M = np.zeros((dofs.n_stress, dofs.n_stress))
    B = np.zeros((grid.n_elements, dim, 2, dofs.n_stress))
    cells = [np.eye(n) for n in subs]
    for (i, j), nodal, start in dofs.families:
        size = int(np.prod(np.add(subs, nodal)))
        columns = slice(start, start + size)
        if i != j:  # a shear family meets only itself in M
            factors = [
                _summed_over_cells(HAT_GRAM, n, True, True) if k in (i, j) else cells[k]
                for k, n in enumerate(subs)
            ]
            M[columns, columns] = vol / material.mu * _kron_over_axes(factors)
            # component i takes d/dx_j of s_ij, component j d/dx_i of s_ji
            div = [(i, j), (j, i)]
        else:
            own = [0, 1] if nodal[i] else [2]
            for (r, s), row_nodal, row_start in dofs.families:
                if r != s:
                    continue
                rows = slice(row_start, row_start + int(np.prod(np.add(subs, row_nodal))))
                row_own = [0, 1] if row_nodal[r] else [2]
                factors = [
                    _summed_over_cells(
                        values[np.ix_(row_own if k == r else [3], own if k == i else [3])],
                        n, row_nodal[k], nodal[k],
                    )
                    for k, n in enumerate(subs)
                ]
                scale = ((r == i) - coupling) * vol / (2 * material.mu)
                M[rows, columns] = scale * _kron_over_axes(factors)
            div = [(i, i)]
        for c, s in div:
            factors = cells.copy()
            if c == s:
                moments = DQUAD_MOMENTS[:, own]
                factors[c] = _summed_over_cells(moments, subs[c], False, nodal[c]) / h[c]
            else:
                factors[c] = _summed_over_cells(HAT_MOMENTS, subs[c], False, True)
                factors[s] = _summed_over_cells(DHAT_MEANS, subs[s], False, True) / h[s]
            # axis c counts 2 e + m, at position dim - 1 - c of the C-ordered
            # cells: move the moment m behind the cells
            block = vol * _kron_over_axes(factors)
            rev = subs[::-1]
            split = block.reshape(rev[: dim - 1 - c] + (subs[c], 2) + rev[dim - c :] + (size,))
            B[:, c, :, columns] = np.moveaxis(split, dim - c, dim).reshape(-1, 2, size)
    return M, B.reshape(-1, dofs.n_stress)


KRON_GRIDS = [
    TensorGrid(2, ((0.0, 1.0), (-0.5, 2.0)), (3, 5)),
    TensorGrid(3, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3)), (2, 3, 4)),
    TensorGrid(4, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0)), (2, 1, 3, 2)),
    TensorGrid(5, ((0.0, 1.0), (-1.0, 0.5), (0.0, 0.3), (0.0, 2.0), (1.0, 1.7)), (2, 1, 2, 2, 1)),
]


@pytest.mark.parametrize("lam", [0.0, 1.0, 1e4])
@pytest.mark.parametrize("grid", KRON_GRIDS, ids=["2d", "3d", "4d", "5d"])
def test_matrices_are_kronecker_sums_of_the_1d_constants(grid, lam):
    # every global matrix is a short sum of Kronecker products of the 1D
    # reference matrices on [0, 1], assembled per axis
    material = LameParams(0.7, lam)
    system = assemble(grid, material, build_dof_map(grid))
    for got, kron in zip((system.M, system.B), _kron_system(grid, material)):
        got = got.toarray()
        assert np.abs(got - kron).max() <= 1e-14 * np.abs(got).max()


@pytest.mark.parametrize("dim, n", [(2, 256), (3, 24), (4, 10)])
def test_assemble_peak_memory_near_the_csr_it_returns(dim, n):
    # the triplets, their sort and the duplicate sum peaked at 1.76-1.87
    # times the CSR arrays kept, per-family parts joined by a concatenation
    # at 1.05-1.28; M's arrays are now written once, at their final size
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        system = assemble(grid, MAT, dofs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (system.M, system.B))
    assert peak - before <= 1.1 * kept


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


# a DOF map and a grid that do not belong together: another N, another box
_FOREIGN = [
    (unit_grid(2, 4), build_dof_map(unit_grid(2, 8))),
    (TensorGrid(2, ((0.0, 2.0), (0.0, 1.0)), (8, 8)), build_dof_map(unit_grid(2, 8))),
]


@pytest.mark.parametrize("grid, dofs", _FOREIGN, ids=["other-n", "other-box"])
def test_load_rejects_a_dof_map_of_another_grid(grid, dofs):
    with pytest.raises(ValueError, match="another grid"):
        assemble_load(grid, sine_solution(2, MAT).f, dofs)
    # an equal grid built again is the same grid
    rebuilt = TensorGrid(2, dofs.grid.box, dofs.grid.subdivisions)
    assert assemble_load(rebuilt, sine_solution(2, MAT).f, dofs).shape == (dofs.n_disp,)


@pytest.mark.parametrize("grid, dofs", _FOREIGN, ids=["other-n", "other-box"])
def test_assemble_rejects_a_dof_map_of_another_grid(grid, dofs):
    with pytest.raises(ValueError, match="another grid"):
        assemble(grid, MAT, dofs)
    # the caller passes its map: assemble builds none of its own
    with pytest.raises(TypeError):
        assemble(grid, MAT)
    rebuilt = TensorGrid(2, dofs.grid.box, dofs.grid.subdivisions)
    assert assemble(rebuilt, MAT, dofs).M.shape == (dofs.n_stress,) * 2
