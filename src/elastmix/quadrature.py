"""Tensor Gauss-Legendre rules on [0, 1]^d and the one integrator of the data and
error integrals.

``_cell_moments`` returns, for every cell of a lattice (the cells of the mesh,
or a face family with nodal axes), the moments of a field against products
of 1D factors: the element table's integer polynomials or the displacement's
1 and xi_i.  A separable exact field (``AxisField``) is a short sum of
products of 1D factors, so each moment is a product of 1D Gauss sums, one
per axis (sum factorization): O(N q) values per axis, and one outer product
over the axes per term.  Any other callable is evaluated at every quadrature
point of ``element_blocks``, the walk over the cells in tensor-product
blocks; that path is the reference, and the only branch on the field type.
A tensor Gauss rule is the product of its 1D rules, so both paths give the
same moments up to rounding.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .element import _eval_factors
from .grid import TensorGrid
from .manufactured import AxisField


@lru_cache(maxsize=None)
def gauss_01(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], exact for polynomials of degree 2*npts - 1."""
    if npts < 1:
        raise ValueError(f"need at least one quadrature point, got {npts}")
    x, w = np.polynomial.legendre.leggauss(npts)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def tensor_rule(npts: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule on [0, 1]^dim; weights sum to 1.

    Points have shape (npts**dim, dim) with axis 0 varying fastest, the
    node order of every cell in ``element_blocks``.  dim == 0 yields the
    single-point rule with weight 1, so averages over the vertices of a 2D
    grid degenerate to point values.
    """
    if dim < 0:
        raise ValueError(f"dim must be nonnegative, got {dim}")
    if dim == 0:
        pts = np.zeros((1, 0))
        wts = np.ones(1)
    else:
        nodes, weights = gauss_01(npts)
        axes = np.meshgrid(*([nodes] * dim), indexing="ij")
        pts = np.stack([a.reshape(-1, order="F") for a in axes], axis=-1)
        wts = np.ones(npts**dim)
        for a in np.meshgrid(*([weights] * dim), indexing="ij"):
            wts = wts * a.reshape(-1, order="F")
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


# Gauss points per axis of the one rule behind the load (and projection)
# moments, the interpolation averages and the error norms.  It is exact to
# degree 9, so the polynomial solution's integrands (degree <= 4 per axis)
# carry no quadrature error; sine rates match those of 2, 3 and 8 points.
QUAD_POINTS = 5

# Values per block of the element-wise loops: quadrature points of a block of
# ``element_blocks`` (4096 cells of the 2D rule), moments of a slab of
# ``_cell_moments``.  A block's temporaries then take a few MiB whatever the
# mesh size and dimension, and a block is still large enough that the
# vectorized evaluators spend their time on arithmetic, not call overhead.
BLOCK_POINTS = 4096 * QUAD_POINTS**2

# A function to integrate against: a list of (field component, scale,
# factors) terms, the form of ``element._stress_terms``; ``factors`` holds one
# integer polynomial per axis.
Terms = Sequence[tuple[object, float, tuple[tuple[int, ...], ...]]]


def _walk(dims: Sequence[int], cells: int) -> Iterator[tuple[slice, tuple[slice, ...]]]:
    """Split a lattice into boxes of at most ``cells`` cells, in flat order.

    A box is every index of the leading axes, a range of indices on the next
    axis and one index on each later axis, so its cells are a run of the flat
    order (axis 0 fastest).  Yields that run and the box's index range on
    each axis.
    """
    dim = len(dims)
    lead = 1  # cells of the leading axes taken whole
    for a in range(dim):
        if lead * dims[a] > cells:
            break
        lead *= dims[a]
    else:  # the whole lattice is one box
        yield slice(0, lead), (slice(None),) * dim
        return
    step = cells // lead
    later = dims[a + 1 :]
    for outer in range(math.prod(later)):
        fixed = np.unravel_index(outer, later, order="F")
        tail = tuple(slice(m, m + 1) for m in fixed)
        for first in range(0, dims[a], step):
            stop = min(first + step, dims[a])
            start = lead * (first + dims[a] * outer)
            yield (
                slice(start, start + lead * (stop - first)),
                (slice(None),) * a + (slice(first, stop),) + tail,
            )


def _lattice(grid: TensorGrid, nodal: Sequence[int] | None):
    """The cell counts of a lattice and each axis's reference nodes and weights.

    A nodal axis has one node, the lower corner of the cell, with weight 1.
    """
    nodal = (0,) * grid.dim if nodal is None else tuple(nodal)
    dims = tuple(n + c for n, c in zip(grid.subdivisions, nodal))
    rules = [(np.zeros(1), np.ones(1)) if c else gauss_01(QUAD_POINTS) for c in nodal]
    return nodal, dims, rules


def element_blocks(
    grid: TensorGrid, nodal: Sequence[int] | None = None
) -> Iterator[tuple[slice, tuple[np.ndarray, ...]]]:
    """Walk the cells of a lattice in tensor-product blocks of BLOCK_POINTS points at most.

    The lattice has N_k + nodal[k] cells along axis k (default: the grid's
    elements); cell m is the box with lower corner lo + m * h and the grid's
    spacing h.  Face and subface families are such lattices with nodal axes.
    A cell's nodes are the QUAD_POINTS Gauss nodes along each free axis and
    its lower corner along each nodal axis, ordered as the points of
    ``tensor_rule(QUAD_POINTS, free axes)``.

    Blocks are the boxes of ``_walk``.  Yields the slice of flat cell indices
    and the per-axis physical coordinates of the block: axis k holds c_k
    cells by q_k nodes, placed at positions n-1-k and 2n-1-k of 2n
    broadcasting axes.  A formula over them broadcasts to the block's points
    in the order (cell, node) with axis 0 fastest in both.
    """
    dim = grid.dim
    _, dims, rules = _lattice(grid, nodal)
    lo, h = grid.lo, grid.spacing
    tables = []  # the coordinates of every cell and node along each axis
    for k, (nodes, _) in enumerate(rules):
        shape = [1] * (2 * dim)
        shape[dim - 1 - k], shape[2 * dim - 1 - k] = dims[k], len(nodes)
        table = (lo[k] + np.arange(dims[k]) * h[k])[:, None] + nodes[None, :] * h[k]
        tables.append(table.reshape(shape))
    cells = max(1, BLOCK_POINTS // math.prod(len(nodes) for nodes, _ in rules))
    for block, ranges in _walk(dims, cells):
        yield block, tuple(
            table[(slice(None),) * (dim - 1 - k) + (ranges[k],)] for k, table in enumerate(tables)
        )


def _cell_moments(
    grid: TensorGrid,
    field: Callable[[np.ndarray], np.ndarray],
    functions: Sequence[Terms],
    nodal: Sequence[int] | None = None,
    squares: bool = False,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray | None]]:
    """Moments of ``field`` against ``functions`` on every cell of a lattice.

    The lattice is that of ``element_blocks``.  The moment of a function
    sum_t scale_t * e_{key_t} * prod_k p_tk(xi_k) on a cell is the mean over
    the cell (reference coordinates xi, weights summing to 1) of
    sum_t scale_t * field[key_t] * prod_k p_tk(xi_k); along a nodal axis the
    field and the factors are taken at the cell's lower corner (xi_k = 0).
    Yields, slab by slab in flat order, the slice of cells, their moments
    (cells, len(functions)) and, with ``squares``, the mean of the squared
    field summed over all its components (cells,).
    """
    nodal, dims, rules = _lattice(grid, nodal)
    if isinstance(field, AxisField):
        yield from _separable_moments(grid, field, functions, dims, rules, squares)
        return
    free = [k for k in range(grid.dim) if not nodal[k]]
    pts, w = tensor_rule(QUAD_POINTS, len(free))
    xi = np.zeros((len(w), grid.dim))
    xi[:, free] = pts
    # per field component: the functions it enters and their weighted factors
    columns: dict[tuple, dict[int, np.ndarray]] = {}
    for b, terms in enumerate(functions):
        for key, scale, factors in terms:
            column = columns.setdefault(np.index_exp[key], {})
            column[b] = column.get(b, 0.0) + scale * w * _eval_factors(factors, xi)
    weights = [(key, list(c), np.stack(list(c.values()), axis=1)) for key, c in columns.items()]
    for block, axes in element_blocks(grid, nodal):
        points = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, grid.dim)
        values = np.asarray(field(points))
        values = values.reshape((block.stop - block.start, len(w)) + values.shape[1:])
        moments = np.zeros((values.shape[0], len(functions)))
        for key, used, weight in weights:
            moments[:, used] += values[(slice(None), slice(None)) + key] @ weight
        total = None
        if squares:
            total = np.square(values).reshape(values.shape[:2] + (-1,)).sum(axis=2) @ w
        yield block, moments, total


def _outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product of one vector per axis, flattened with axis 0 fastest."""
    out = vectors[-1]
    for v in vectors[-2::-1]:
        out = np.multiply.outer(out, v)
    return out.ravel()


def _separable_moments(grid, field, functions, dims, rules, squares):
    """``_cell_moments`` of an ``AxisField``: products of 1D Gauss sums per term.

    Per axis k and cell m, the 1D sums are sum_q w_q phi^(o)(x_mq) p(xi_q) for
    every derivative order o and factor p the terms need (and
    sum_q w_q phi^(o) phi^(o') for the squares), O(N q) values per axis.  A
    component is a linear combination of products of factors, so its
    moment on a slab is the same combination of outer products of the 1D
    sums restricted to the slab's index ranges.
    """
    lo, h = grid.lo, grid.spacing
    values: dict[tuple[int, int], np.ndarray] = {}  # (axis, order) -> (dims_k, q_k)
    moments_1d: dict[tuple, np.ndarray] = {}
    squares_1d: dict[tuple, np.ndarray] = {}

    def factor(k: int, order: int) -> np.ndarray:
        if (k, order) not in values:
            nodes, _ = rules[k]
            x = (lo[k] + np.arange(dims[k]) * h[k])[:, None] + nodes[None, :] * h[k]
            values[k, order] = field.factors[order](x)
        return values[k, order]

    def moment(k: int, order: int, p: tuple[int, ...]) -> np.ndarray:
        key = (k, order, p)
        if key not in moments_1d:
            nodes, w = rules[k]
            moments_1d[key] = factor(k, order) @ (w * _eval_factors((p,), nodes[:, None]))
        return moments_1d[key]

    def square(k: int, a: int, b: int) -> np.ndarray:
        key = (k, min(a, b), max(a, b))
        if key not in squares_1d:
            squares_1d[key] = (factor(k, a) * factor(k, b)) @ rules[k][1]
        return squares_1d[key]

    combinations = {}  # component -> {orders: coefficient}
    for index, terms in field.terms.items():
        combination = combinations.setdefault(index, {})
        for scale, products in terms:
            for orders in products:
                combination[orders] = combination.get(orders, 0.0) + scale

    slab = max(1, BLOCK_POINTS // len(functions))
    for block, ranges in _walk(dims, slab):
        moments = np.zeros((len(functions), block.stop - block.start))
        for b, terms in enumerate(functions):
            for key, scale, factors in terms:
                for orders, c in combinations[np.index_exp[key]].items():
                    vectors = [moment(k, o, factors[k])[ranges[k]] for k, o in enumerate(orders)]
                    vectors[-1] = (scale * c) * vectors[-1]
                    moments[b] += _outer(vectors)
        total = None
        if squares:
            total = np.zeros(block.stop - block.start)
            for combination in combinations.values():
                items = list(combination.items())
                for a, (left, ca) in enumerate(items):
                    for right, cb in items[a:]:  # each pair once, doubled off the diagonal
                        pairs = enumerate(zip(left, right))
                        vectors = [square(k, o, r)[ranges[k]] for k, (o, r) in pairs]
                        vectors[-1] = ((2.0 if right != left else 1.0) * ca * cb) * vectors[-1]
                        total += _outer(vectors)
        yield block, moments.T, total
