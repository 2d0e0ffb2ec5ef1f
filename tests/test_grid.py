"""Grid geometry, and the entity lattices as the DOF map numbers them: every
entity is reached by the cells that touch it, and only by those."""

import numpy as np
import pytest

from elastmix.assembly import build_dof_map
from elastmix.element import element_table
from elastmix.grid import TensorGrid, flat_strides, unit_grid
from poly_utils import element_origins, multi_index_array


def _local(dim, entry, offset):
    """Local index of the DOF of ``entry`` whose entity lies on grid planes at ``offset``."""
    for a, dof in enumerate(element_table(dim)):
        if dof.entry == entry and dof.offset == offset and any(dof.nodal):
            return a
    raise KeyError((entry, offset))


def _entity_count(grid, entry, nodal_axes):
    """Distinct global unknowns of one family over all cells."""
    dofs = build_dof_map(grid)
    nodal = tuple(int(k in nodal_axes) for k in range(grid.dim))
    table = element_table(grid.dim)
    columns = [a for a, dof in enumerate(table) if (dof.entry, dof.nodal) == (entry, nodal)]
    return np.unique(dofs.element_stress[:, columns]).size


def _faces(grid, axis):
    return _entity_count(grid, (axis, axis), (axis,))


def _subfaces(grid, i, j):
    return _entity_count(grid, (i, j), (i, j))


def _adjacent(grid, cell, local):
    """Cells, in flat order, that share the entity of local DOF ``local`` of ``cell``."""
    dofs = build_dof_map(grid)
    flat = int(np.asarray(cell) @ flat_strides(grid.subdivisions))
    touching = (dofs.element_stress == dofs.element_stress[flat, local]).any(axis=1)
    return [tuple(int(v) for v in m) for m in multi_index_array(grid.subdivisions)[touching]]


def test_entity_counts_2x2():
    g = unit_grid(2, 2)
    assert g.n_elements == 4
    assert _faces(g, 0) == 6
    assert _faces(g, 1) == 6
    assert _subfaces(g, 0, 1) == 9


def test_entity_counts_single_element():
    g = unit_grid(2, 1)
    assert g.n_elements == 1
    assert _faces(g, 0) == 2
    assert _faces(g, 1) == 2
    assert _subfaces(g, 0, 1) == 4


def test_entity_counts_3d():
    g = unit_grid(3, 2)
    assert g.n_elements == 8
    assert _faces(g, 0) == 3 * 4
    assert _subfaces(g, 0, 1) == 9 * 2


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_total_face_count_formula(dim, n):
    g = unit_grid(dim, n)
    expected = sum((n + 1) * n ** (dim - 1) for _ in range(dim))
    assert sum(_faces(g, i) for i in range(dim)) == expected


def test_anisotropic_counts():
    g = TensorGrid(2, ((0.0, 1.0), (0.0, 2.0)), (2, 3))
    assert g.n_elements == 6
    assert _faces(g, 0) == 3 * 3
    assert _faces(g, 1) == 2 * 4
    assert _subfaces(g, 0, 1) == 3 * 4


def test_element_origin_and_spacing():
    g = TensorGrid(2, ((0.0, 1.0), (0.0, 2.0)), (2, 4))
    assert np.allclose(g.spacing, [0.5, 0.5])
    lo = element_origins(g)[1 + 2 * 2]  # cell (1, 2)
    assert np.allclose(lo, [0.5, 1.0])
    assert np.allclose(lo + g.spacing, [1.0, 1.5])


def test_interior_vertex_adjacency():
    g = unit_grid(2, 2)
    vertex = _local(2, (0, 1), (1, 1))  # the vertex (1, 1) is corner (1, 1) of cell (0, 0)
    assert _adjacent(g, (0, 0), vertex) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_boundary_face_adjacency():
    g = unit_grid(2, 2)
    assert _adjacent(g, (0, 0), _local(2, (0, 0), (0, 0))) == [(0, 0)]


def test_interior_face_adjacency():
    g = unit_grid(2, 2)
    assert _adjacent(g, (0, 0), _local(2, (0, 0), (1, 0))) == [(0, 0), (1, 0)]


def test_interior_edge_adjacency_3d():
    g = unit_grid(3, 2)
    adjacent = _adjacent(g, (0, 0, 0), _local(3, (0, 1), (1, 1, 0)))
    assert len(adjacent) == 4
    assert all(m[2] == 0 for m in adjacent)
    strides = flat_strides(g.subdivisions)
    assert adjacent == sorted(adjacent, key=lambda m: int(np.asarray(m) @ strides))


@pytest.mark.parametrize("dim,subs", [(2, (2, 3)), (3, (2, 2, 2)), (4, (2, 1, 2, 1))])
def test_element_face_round_trip(dim, subs):
    # the upper face of a cell along each axis is the lower face of the next
    # cell along it, and no other cell's face
    g = TensorGrid(dim, ((0.0, 1.0),) * dim, subs)
    stress = build_dof_map(g).element_stress
    multi = multi_index_array(g.subdivisions)
    strides = flat_strides(subs)
    for axis in range(dim):
        lower = stress[:, _local(dim, (axis, axis), (0,) * dim)]
        upper = stress[:, _local(dim, (axis, axis), tuple(int(k == axis) for k in range(dim)))]
        inner = np.nonzero(multi[:, axis] < subs[axis] - 1)[0]
        assert np.array_equal(upper[inner], lower[inner + strides[axis]])
        assert np.unique(upper).size == upper.size
        assert np.intersect1d(upper, lower).size == inner.size


def test_boundary_entities_shared_by_fewer_elements():
    g = unit_grid(2, 2)
    assert _adjacent(g, (0, 0), _local(2, (0, 1), (0, 0))) == [(0, 0)]
    edge_mid = _local(2, (0, 1), (1, 0))  # the vertex (1, 0)
    assert _adjacent(g, (0, 0), edge_mid) == [(0, 0), (1, 0)]


def test_flat_index_round_trip():
    g = TensorGrid(3, ((0.0, 1.0),) * 3, (2, 3, 4))
    multis = multi_index_array(g.subdivisions)
    assert np.array_equal(multis @ flat_strides(g.subdivisions), np.arange(g.n_elements))


def test_construction_errors():
    with pytest.raises(ValueError):
        TensorGrid(1, [(0.0, 1.0)], [2])
    with pytest.raises(ValueError):
        TensorGrid(2, [(0.0, 0.0), (0.0, 1.0)], [2, 2])
    with pytest.raises(ValueError):
        TensorGrid(2, [(1.0, 0.0), (0.0, 1.0)], [2, 2])
    with pytest.raises(ValueError):
        TensorGrid(2, [(0.0, 1.0), (0.0, 1.0)], [0, 2])
    with pytest.raises(ValueError):
        TensorGrid(2, [(0.0, 1.0)], [2, 2])
    # lists are normalized to the tuples of the frozen grid
    g = TensorGrid(2, [[0, 1], [0, 2]], [2, 4])
    assert g == TensorGrid(2, ((0.0, 1.0), (0.0, 2.0)), (2, 4))
    assert hash(g) == hash(TensorGrid(2, ((0.0, 1.0), (0.0, 2.0)), (2, 4)))



@pytest.mark.parametrize(
    "dim, subdivisions, shown",
    [(2, (2.5, 3), "2.5"), (2.0, (2, 3), "2.0"), (2, (2, 3.0), "3.0"), (2, ("2", 3), "'2'")],
    ids=["fraction", "whole-float-dim", "whole-float-count", "string"],
)
def test_non_integral_sizes_rejected(dim, subdivisions, shown):
    # a fractional size is rejected, not truncated, and a whole float is not
    # an integer either; the message names the value given
    with pytest.raises(ValueError, match=shown):
        TensorGrid(dim, ((0.0, 1.0), (0.0, 2.0)), subdivisions)


def test_unit_grid_rejects_a_fractional_count():
    with pytest.raises(ValueError, match="2.7"):
        unit_grid(2, 2.7)


def test_numpy_integer_sizes_pass_as_ints():
    box = ((0.0, 1.0), (0.0, 2.0))
    g = TensorGrid(np.int64(2), box, (np.int32(2), np.uint8(3)))
    assert g == TensorGrid(2, box, (2, 3)) and type(g.dim) is int
    assert all(type(n) is int for n in g.subdivisions)
