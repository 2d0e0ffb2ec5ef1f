"""The slab walk, per-axis evaluation of separable fields and the data
integrals as products of 1D Gauss sums."""

from fractions import Fraction

import numpy as np
import pytest

from elastmix.assembly import assemble_load, build_dof_map
from elastmix.element import _ONE
from elastmix.grid import TensorGrid, unit_grid
from elastmix.interpolate import (
    DisplacementField,
    StressField,
    interp_stress,
    project_displacement,
)
from elastmix.manufactured import (
    AxisField,
    ExactSolution,
    _separable,
    polynomial_solution,
    sine_solution,
)
from elastmix.material import LameParams
from elastmix.quadrature import BLOCK_POINTS, QUAD_POINTS, _cell_moments
from elastmix.verify import error_norms

from poly_utils import multi_index_array, partial_block_grid, tensor_rule

MAT = LameParams(mu=0.5, lam=1.0)

BOX = ((0.0, 1.0), (-0.5, 2.0), (0.25, 0.75), (1.0, 3.0))


def _lattices(dim):
    """The volume, one face and one subface family of a dim-dimensional grid."""
    return [(0,) * dim, (1,) + (0,) * (dim - 1), (0,) * (dim - 2) + (1, 1)]


def _reference_points(dim, nodal):
    """The reference points of a lattice cell, (points, dim): QUAD_POINTS Gauss
    nodes on each free axis, 0 on each nodal one, axis 0 fastest."""
    free = [k for k in range(dim) if not nodal[k]]
    pts, _ = tensor_rule(QUAD_POINTS, len(free))
    ref = np.zeros((len(pts), dim))
    ref[:, free] = pts
    return ref


@pytest.mark.parametrize(
    "subdivisions",
    [(70, 61), (5000, 3), (17, 13, 11), (900, 2, 2), (6, 5, 7, 4), (3, 1, 4, 2)],
    ids=["2d", "2d-long-axis", "3d", "3d-long-axis", "4d", "4d-one-cell-axis"],
)
def test_blocks_cover_each_lattice_once_in_flat_order(subdivisions):
    # a plain callable is called once per slab of cells, on the slab's points
    # in the order (cell, node); it records them and returns zeros
    dim = len(subdivisions)
    grid = TensorGrid(dim, BOX[:dim], subdivisions)
    average = [[(0, 1.0, (_ONE,) * dim)]]
    for nodal in _lattices(dim):
        dims = tuple(n + c for n, c in zip(subdivisions, nodal))
        ref = _reference_points(dim, nodal)
        calls = []

        def record(x):
            calls.append(x.copy())
            return np.zeros((len(x), 1))

        stop = 0
        blocks = 0
        for block, moments, _ in _cell_moments(grid, record, average, nodal):
            assert block.start == stop and block.stop > block.start
            stop = block.stop
            blocks += 1
            assert len(calls) == blocks  # one call per slab
            x = calls[-1]
            assert x.shape[0] == (block.stop - block.start) * len(ref) <= BLOCK_POINTS
            assert moments.shape == (block.stop - block.start, 1)
            # the cells of the slice, in flat order, at lo + m h + xi h
            multi = multi_index_array(dims)[block]
            expected = (grid.lo + multi * grid.spacing)[:, None, :] + ref * grid.spacing
            assert np.array_equal(x.reshape(expected.shape), expected)
        assert stop == np.prod(dims)
        if dims[0] * len(ref) > BLOCK_POINTS:
            assert blocks > dims[1]  # the first axis alone is split


def _lattice_axes(grid, nodal):
    """The coordinates of a lattice's points along each axis: axis k holds
    cells by nodes at positions n-1-k and 2n-1-k of 2n broadcasting axes, so
    a formula over them broadcasts to the points in the order (cell, node),
    axis 0 fastest in both."""
    dim = grid.dim
    gauss = tensor_rule(QUAD_POINTS, 1)[0][:, 0]
    axes = []
    for k in range(dim):
        cells = grid.lo[k] + np.arange(grid.subdivisions[k] + nodal[k]) * grid.spacing[k]
        nodes = (np.zeros(1) if nodal[k] else gauss) * grid.spacing[k]
        shape = [1] * (2 * dim)
        shape[dim - 1 - k], shape[2 * dim - 1 - k] = cells.size, nodes.size
        axes.append((cells[:, None] + nodes[None, :]).reshape(shape))
    return axes


@pytest.mark.parametrize("factory", [sine_solution, polynomial_solution])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_per_axis_evaluation_matches_points(factory, dim):
    exact = factory(dim, MAT)
    grid = TensorGrid(dim, BOX[:dim], (3, 2, 4, 2)[:dim])
    fields = {name: getattr(exact, name) for name in ("u", "grad_u", "f", "sigma")}
    # every field of the solutions takes the per-axis path of the integrals
    assert all(isinstance(field, AxisField) for field in fields.values())
    for nodal in _lattices(dim):
        axes = _lattice_axes(grid, nodal)
        flat = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, dim)
        for name, field in fields.items():
            values = field.on_axes(axes)
            expected = field(flat)
            assert values.shape == tuple(np.broadcast_shapes(*(a.shape for a in axes))) + (
                expected.shape[1:]
            )
            values = values.reshape(expected.shape)
            scale = np.abs(expected).max()
            assert np.abs(values - expected).max() <= 1e-14 * scale, name


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
    # the split rounds ||v||_e^2 and m.G^-1.m at about eps ||v||^2 before it
    # subtracts them, so the paths may differ by eps (||v|| / err)^2 relative
    # to err; the gaps measured here are at most 0.4 of eps (1 + (||v|| /
    # err)^2), and ||v|| is the error of the zero fields
    zero_sigma = StressField(dofs, np.zeros(dofs.n_stress))
    zero = error_norms(grid, exact, zero_sigma, DisplacementField(dofs, np.zeros(dofs.n_disp)))
    for name in ("sigma_l2", "sigma_div", "u_l2"):
        err, size = getattr(reference, name), getattr(zero, name)
        bound = 4.0 * np.finfo(float).eps * (1.0 + (size / err) ** 2)
        assert abs(getattr(record, name) - err) <= bound * err, name


def _calls_coordinates(grid, dofs):
    """Axis coordinates per factor and call that the four field stages need.

    Each call of the integrator evaluates each factor a field uses (u: phi;
    sigma: phi, phi'; f: phi, phi', phi'') once on the coordinates of each
    axis: N_k * QUAD_POINTS on a free axis, N_k + 1 on a nodal one.
    """

    def coordinates(nodal):
        return sum(
            n + 1 if c else n * QUAD_POINTS for n, c in zip(grid.subdivisions, nodal)
        )

    volume = coordinates((0,) * grid.dim)
    lattices = {nodal for _, nodal, _ in dofs.families}
    load, projection = 3 * volume, volume
    interpolation = 2 * sum(coordinates(nodal) for nodal in lattices)
    norms = (2 + 3 + 1) * volume  # sigma, f and u
    return load + interpolation + projection + norms


def test_field_stages_evaluate_phi_per_axis():
    # Point by point, phi and phi' would see every coordinate of every
    # quadrature point: 2 231 300 values for this pass.  The integrator
    # evaluates each factor once per axis coordinate of each lattice it
    # walks: 9 480 values here, and the bound is that count.
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
        counted(lambda x: -np.pi**2 * np.sin(np.pi * x)),
    )
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    assemble_load(grid, exact.f, dofs)
    pi_sigma = interp_stress(grid, dofs, exact.sigma)
    ph_u = project_displacement(grid, dofs, exact.u)
    error_norms(grid, exact, pi_sigma, ph_u)
    assert _calls_coordinates(grid, dofs) == 9480
    assert 0 < seen[0] <= _calls_coordinates(grid, dofs)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_separable_fields_never_walk_the_points(dim, monkeypatch):
    # the sum-factorized path evaluates no field at points: with AxisField's
    # point evaluation raising, all four field stages of the solution still run
    def refuse(self, x):
        raise AssertionError("AxisField evaluated at points")

    monkeypatch.setattr(AxisField, "__call__", refuse)
    grid = TensorGrid(dim, BOX[:dim], (6, 5, 3, 2)[:dim])
    dofs = build_dof_map(grid)
    exact = sine_solution(dim, MAT)
    load = assemble_load(grid, exact.f, dofs)
    pi_sigma = interp_stress(grid, dofs, exact.sigma)
    ph_u = project_displacement(grid, dofs, exact.u)
    record = error_norms(grid, exact, pi_sigma, ph_u)
    assert np.isfinite(load).all() and np.isfinite(pi_sigma.coeffs).all()
    assert np.isfinite(ph_u.coeffs).all()
    assert 0 < record.sigma_l2 < np.inf and 0 < record.sigma_div < np.inf
    assert 0 < record.u_l2 < np.inf
    with pytest.raises(AssertionError, match="evaluated at points"):
        assemble_load(grid, _point_wrapper(exact).f, dofs)


# -- an exact oracle: the polynomial solution carries no quadrature error -----
# phi(x) = x (1 - x); on a cell with lower corner a and spacing h, phi and its
# derivatives are polynomials in xi = (x - a) / h with rational coefficients,
# and every data integral is a sum of products of their 1D integrals against
# the integer factors of the bases, summed as Fractions.

EXACT_MAT = LameParams(mu=0.5, lam=1.25)


def _phi(a, h, order):
    """phi^(order)(a + h xi) as coefficients in xi, lowest first."""
    return [
        [a - a * a, h - 2 * a * h, -h * h],
        [1 - 2 * a, -2 * h],
        [Fraction(-2)],
    ][order]


def _integral(p, q):
    """int_0^1 p q of two coefficient lists, as element._integral sums it."""
    return sum(Fraction(a) * b / (i + j + 1) for i, a in enumerate(p) for j, b in enumerate(q))


def _polynomial_fields(n, mu, lam):
    """u, sigma and f of the polynomial solution: {component: {orders: coefficient}}."""

    def orders(at):
        return tuple(at.get(k, 0) for k in range(n))

    def add(target, key, coefficient):
        target[key] = target.get(key, 0) + coefficient

    u = {(i,): {orders({}): Fraction(1)} for i in range(n)}
    sigma = {}
    for i in range(n):
        for j in range(n):
            entry = sigma.setdefault((i, j), {})
            add(entry, orders({i: 1}), mu)  # mu (G_i + G_j)
            add(entry, orders({j: 1}), mu)
            if i == j:
                for k in range(n):
                    add(entry, orders({k: 1}), lam)  # lam tr(grad u)
    f = {}
    for i in range(n):  # f_i = sum_j d_j sigma_ij
        entry = f.setdefault((i,), {})
        for j in range(n):
            for key, c in sigma[i, j].items():
                derived = list(key)
                derived[j] += 1
                add(entry, tuple(derived), c)
    return {"u": u, "sigma": sigma, "f": f}


def _exact_moment(grid, combination, cell, nodal, factors):
    """The mean over a lattice cell of a field component times the factors."""
    lo = [Fraction(x) for x in grid.lo]
    h = [Fraction(x) for x in grid.spacing]
    total = Fraction(0)
    for key, c in combination.items():
        term = Fraction(c)
        for k, order in enumerate(key):
            poly = _phi(lo[k] + cell[k] * h[k], h[k], order)
            if nodal[k]:  # a point value at the lower corner
                term *= poly[0] * factors[k][0]
            else:
                term *= _integral(poly, factors[k])
        total += term
    return total


@pytest.mark.parametrize(
    "box, subdivisions",
    [(((0.0, 0.75), (-0.5, 1.0)), (3, 3)), (((0.25, 1.0), (-0.5, 0.5), (0.0, 2.0)), (2, 2, 2))],
    ids=["2d", "3d"],
)
@pytest.mark.parametrize("path", ["separable", "points"])
def test_polynomial_data_integrals_are_exact(box, subdivisions, path):
    dim = len(subdivisions)
    grid = TensorGrid(dim, box, subdivisions)
    dofs = build_dof_map(grid)
    exact = polynomial_solution(dim, EXACT_MAT)
    if path == "points":
        exact = _point_wrapper(exact)
    fields = _polynomial_fields(dim, Fraction(EXACT_MAT.mu), Fraction(EXACT_MAT.lam))
    vol = Fraction(grid.element_volume)
    cells = np.stack(
        np.unravel_index(np.arange(grid.n_elements), subdivisions, order="F"), axis=-1
    )
    one, xi = (1,), (0, 1)
    volume = (0,) * dim

    def moments(name):  # the means of v psi_b on every cell, (cells, 2 dim) Fractions
        return [
            [
                _exact_moment(
                    grid, fields[name][b // 2,], cell, volume,
                    tuple(xi if k == b // 2 and b % 2 else one for k in range(dim)),
                )
                for b in range(2 * dim)
            ]
            for cell in cells
        ]

    def vector(local):  # local values per cell, in the order of element_disp
        out = np.zeros(dofs.n_disp)
        out[dofs.element_disp] = [[float(v) for v in row] for row in local]
        return out

    def close(computed, expected):
        return np.abs(computed - expected).max() <= 1e-14 * np.abs(expected).max()

    def load(local):  # the moments over the physical cell
        return vector([[vol * m for m in row] for row in local])

    assert close(assemble_load(grid, exact.f, dofs), load(moments("f")))
    u_moments = moments("u")
    assert close(assemble_load(grid, exact.u, dofs), load(u_moments))
    # the projection solves the reference mass [[1, 1/2], [1/2, 1/3]] per
    # component, whose inverse is [[4, -6], [-6, 12]]
    projection = [
        [c for m0, m1 in zip(row[::2], row[1::2]) for c in (4 * m0 - 6 * m1, 12 * m1 - 6 * m0)]
        for row in u_moments
    ]
    assert close(project_displacement(grid, dofs, exact.u).coeffs, vector(projection))
    # the interpolation averages, family by family over each lattice
    expected_sigma = np.zeros(dofs.n_stress)
    for entry, nodal, start in dofs.families:
        dims = tuple(n + c for n, c in zip(subdivisions, nodal))
        for flat in range(int(np.prod(dims))):
            cell = np.unravel_index(flat, dims, order="F")
            value = _exact_moment(grid, fields["sigma"][entry], cell, nodal, (one,) * dim)
            expected_sigma[start + flat] = float(value)
    assert close(interp_stress(grid, dofs, exact.sigma).coeffs, expected_sigma)
