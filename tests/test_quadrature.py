"""The tensor-product block walk and per-axis evaluation of separable fields."""

import numpy as np
import pytest

from elastmix.assembly import assemble_load, build_dof_map
from elastmix.grid import TensorGrid, unit_grid
from elastmix.interpolate import interp_stress, project_displacement
from elastmix.manufactured import (
    AxisField,
    ExactSolution,
    _separable,
    polynomial_solution,
    sine_solution,
)
from elastmix.material import LameParams
from elastmix.quadrature import (
    BLOCK_POINTS,
    QUAD_POINTS,
    element_blocks,
    evaluate,
    tensor_rule,
)
from elastmix.verify import error_norms

from poly_utils import partial_block_grid

MAT = LameParams(mu=0.5, lam=1.0)

BOX = ((0.0, 1.0), (-0.5, 2.0), (0.25, 0.75), (1.0, 3.0))


def _lattices(dim):
    """The volume, one face and one subface family of a dim-dimensional grid."""
    return [(0,) * dim, (1,) + (0,) * (dim - 1), (0,) * (dim - 2) + (1, 1)]


def _points(axes):
    """A block's physical points from its per-axis coordinates, (cells, nodes, dim)."""
    dim = len(axes)
    x = np.stack(np.broadcast_arrays(*axes), axis=-1)
    return x.reshape(int(np.prod(x.shape[:dim])), -1, dim)


@pytest.mark.parametrize(
    "subdivisions",
    [(70, 61), (5000, 3), (17, 13, 11), (900, 2, 2), (6, 5, 7, 4), (3, 1, 4, 2)],
    ids=["2d", "2d-long-axis", "3d", "3d-long-axis", "4d", "4d-one-cell-axis"],
)
def test_blocks_cover_each_lattice_once_in_flat_order(subdivisions):
    dim = len(subdivisions)
    grid = TensorGrid(dim, BOX[:dim], subdivisions)
    for nodal in _lattices(dim):
        dims = tuple(n + c for n, c in zip(subdivisions, nodal))
        free = [k for k in range(dim) if not nodal[k]]
        pts, _ = tensor_rule(QUAD_POINTS, len(free))
        ref = np.zeros((len(pts), dim))
        ref[:, free] = pts
        stop = 0
        blocks = 0
        for block, axes in element_blocks(grid, nodal):
            assert block.start == stop and block.stop > block.start
            stop = block.stop
            blocks += 1
            x = _points(axes)
            assert x.shape[0] == block.stop - block.start
            assert x.shape[0] * x.shape[1] <= BLOCK_POINTS
            # the cells of the slice, in flat order, with the rule's points
            multi = np.stack(
                np.unravel_index(np.arange(block.start, block.stop), dims, order="F"), axis=-1
            )
            expected = (grid.lo + multi * grid.spacing)[:, None, :] + ref * grid.spacing
            assert np.array_equal(x, expected)
        assert stop == np.prod(dims)
        if dims[0] * len(pts) > BLOCK_POINTS:
            assert blocks > dims[1]  # the first axis alone is split


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_per_axis_evaluation_matches_points(factory, dim):
    exact = factory(dim, MAT)
    grid = TensorGrid(dim, BOX[:dim], (3, 2, 4, 2)[:dim])
    fields = {name: getattr(exact, name) for name in ("u", "grad_u", "f", "sigma")}
    # every field of the solutions takes the per-axis path of ``evaluate``
    assert all(isinstance(field, AxisField) for field in fields.values())
    for nodal in _lattices(dim):
        for block, axes in element_blocks(grid, nodal):
            flat = _points(axes).reshape(-1, dim)
            for name, field in fields.items():
                values = field.on_axes(axes)
                expected = field(flat)
                assert values.shape == tuple(np.broadcast_shapes(*(a.shape for a in axes))) + (
                    expected.shape[1:]
                )
                values = values.reshape(expected.shape)
                scale = np.abs(expected).max()
                assert np.abs(values - expected).max() <= 1e-14 * scale, name
                # and agrees with the point path, which any other callable takes
                per_axis = evaluate(field, axes)
                generic = evaluate(lambda x: field(x), axes)
                assert per_axis.shape == generic.shape
                assert np.abs(per_axis - generic).max() <= 1e-14 * scale, name


def _point_wrapper(exact):
    """The same solution through plain callables, which take the point path."""
    return ExactSolution(
        "wrapped", exact.dim, exact.material,
        lambda x: exact.u(x), lambda x: exact.grad_u(x), lambda x: exact.f(x),
        lambda x: exact.sigma(x),
    )


@pytest.mark.parametrize(
    "grid",
    [partial_block_grid(2), partial_block_grid(3), TensorGrid(4, BOX, (5, 1, 4, 3))],
    ids=["2d", "3d", "4d-one-cell-axis"],
)
def test_field_stages_agree_on_both_paths(grid):
    dofs = build_dof_map(grid)
    exact = sine_solution(grid.dim, MAT)
    wrapped = _point_wrapper(exact)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()

    assert close(assemble_load(grid, exact.f, dofs), assemble_load(grid, wrapped.f, dofs))
    pi_sigma = interp_stress(grid, dofs, exact.sigma)
    pi_ref = interp_stress(grid, dofs, wrapped.sigma)
    assert close(pi_sigma.coeffs, pi_ref.coeffs)
    ph_u = project_displacement(grid, dofs, exact.u)
    ph_ref = project_displacement(grid, dofs, wrapped.u)
    assert close(ph_u.coeffs, ph_ref.coeffs)
    record = error_norms(grid, exact, pi_sigma, ph_u)
    reference = error_norms(grid, wrapped, pi_sigma, ph_u)
    for name in ("sigma_l2", "sigma_div", "u_l2"):
        assert abs(getattr(record, name) - getattr(reference, name)) <= (
            1e-13 * getattr(reference, name)
        ), name


def test_field_stages_evaluate_phi_per_axis():
    # Point by point, phi and phi' would see every coordinate of every
    # quadrature point: 2 231 300 values for this pass.  Per axis it is a
    # few passes over the N * QUAD_POINTS coordinates of each axis.
    n, dim = 64, 2
    seen = [0]

    def counted(fn):
        def wrapped(x):
            seen[0] += np.size(x)
            return fn(x)

        return wrapped

    exact = _separable(
        "sine", dim, MAT,
        counted(lambda x: np.sin(np.pi * x)),
        counted(lambda x: np.pi * np.cos(np.pi * x)),
        lambda x, p: -np.pi**2 * p,
    )
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    assemble_load(grid, exact.f, dofs)
    pi_sigma = interp_stress(grid, dofs, exact.sigma)
    ph_u = project_displacement(grid, dofs, exact.u)
    error_norms(grid, exact, pi_sigma, ph_u)
    assert 0 < seen[0] <= 50 * dim * n * QUAD_POINTS
