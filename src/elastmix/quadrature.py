"""Gauss-Legendre rules on [0, 1] and the one integrator of the data and error
integrals.

``_cell_moments`` returns, for every cell of a lattice (the cells of the mesh,
or a face family with nodal axes), the moments of a field against products
of 1D factors: the element table's integer polynomials or the displacement's
1 and xi_i.  The rule on a cell is the product of one 1D rule per axis, so
the lattice is described once, axis by axis: the nodes and weights, the
coordinates of every cell's nodes and the weighted factors w * p(nodes).  A
separable exact field (``AxisField``) is a short sum of products of 1D
factors, so each moment is a product of 1D Gauss sums, one per axis (sum
factorization): O(N q) values per axis, and one outer product over the axes
per term.  Any other callable, such as a field wrapped to be traced, is
evaluated at every point of a slab of cells, broadcast from the same axis
coordinates and weighted by outer products of the same weighted factors;
that is the only branch on the field type.  Both give the same moments up to
rounding.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .element import _ONE
from .grid import TensorGrid
from .manufactured import AxisField


@cache
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


# Gauss points per axis of the one rule behind the load (and projection)
# moments, the interpolation averages and the error norms.  It is exact to
# degree 9, so the polynomial solution's integrands (degree <= 4 per axis)
# carry no quadrature error; sine rates match those of 2, 3 and 8 points.
QUAD_POINTS = 5

# Values per slab of the element-wise loops: moments of a slab of
# ``_cell_moments``, or field points of a slab of a plain callable (4096
# cells of the 2D rule).  A slab's temporaries then take a few MiB whatever
# the mesh size and dimension, and a slab is still large enough that the
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


def _outer(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The outer product of one vector per axis, flattened with axis 0 fastest."""
    return reduce(np.multiply.outer, vectors[::-1]).ravel()


def _cell_moments(
    grid: TensorGrid,
    field: Callable[[np.ndarray], np.ndarray],
    functions: Sequence[Terms],
    nodal: Sequence[int] | None = None,
    squares: bool = False,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray | None]]:
    """Moments of ``field`` against ``functions`` on every cell of a lattice.

    The lattice has N_k + nodal[k] cells along axis k (default: the grid's
    elements); cell m is the box with lower corner lo + m * h and the grid's
    spacing h.  Face and subface families are such lattices with nodal axes.
    The moment of a function sum_t scale_t * e_{key_t} * prod_k p_tk(xi_k) on
    a cell is the mean over the cell (reference coordinates xi, QUAD_POINTS
    Gauss nodes per axis, weights summing to 1) of
    sum_t scale_t * field[key_t] * prod_k p_tk(xi_k); along a nodal axis the
    field and the factors are taken at the cell's lower corner (xi_k = 0).
    Yields, slab by slab of ``_walk`` in flat order, the slice of cells,
    their moments (cells, len(functions)) and, with ``squares``, the mean of
    the squared field summed over all its components (cells,).
    """
    dim = grid.dim
    nodal = (0,) * dim if nodal is None else tuple(nodal)
    dims = tuple(n + c for n, c in zip(grid.subdivisions, nodal))
    rules = [(np.zeros(1), np.ones(1)) if c else gauss_01(QUAD_POINTS) for c in nodal]
    lo, h = grid.lo, grid.spacing
    # the coordinates of every cell's nodes along each axis, (dims_k, q_k)
    coordinates = [
        (lo[k] + np.arange(dims[k]) * h[k])[:, None] + nodes[None, :] * h[k]
        for k, (nodes, _) in enumerate(rules)
    ]

    @cache
    def weighted(k: int, p: tuple[int, ...]) -> np.ndarray:  # w * p(nodes) on axis k
        return rules[k][1] * polyval(rules[k][0], p)

    if isinstance(field, AxisField):
        yield from _separable_moments(field, functions, dims, coordinates, weighted, squares)
        return
    # per field component: the functions it enters and their weighted factors
    # at the points of a cell, axis 0 fastest
    columns: dict[tuple, dict[int, np.ndarray]] = {}
    for b, terms in enumerate(functions):
        for key, scale, factors in terms:
            column = columns.setdefault(np.index_exp[key], {})
            column[b] = column.get(b, 0.0) + scale * _outer(
                [weighted(k, p) for k, p in enumerate(factors)]
            )
    weights = [(key, list(c), np.stack(list(c.values()), axis=1)) for key, c in columns.items()]
    w = _outer([weighted(k, _ONE) for k in range(dim)])
    for block, ranges in _walk(dims, max(1, BLOCK_POINTS // w.size)):
        # axis k's coordinates at positions dim-1-k (cells) and 2 dim-1-k
        # (nodes) of 2 dim broadcasting axes: the points in the order (cell,
        # node), axis 0 fastest in both
        axes = []
        for k, table in enumerate(coordinates):
            part = table[ranges[k]]
            shape = [1] * (2 * dim)
            shape[dim - 1 - k], shape[2 * dim - 1 - k] = part.shape
            axes.append(part.reshape(shape))
        points = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, dim)
        values = np.asarray(field(points))
        values = values.reshape((block.stop - block.start, w.size) + values.shape[1:])
        moments = np.zeros((values.shape[0], len(functions)))
        for key, used, weight in weights:
            moments[:, used] += values[(slice(None), slice(None)) + key] @ weight
        total = None
        if squares:
            total = np.square(values).reshape(values.shape[:2] + (-1,)).sum(axis=2) @ w
        yield block, moments, total


def _separable_moments(field, functions, dims, coordinates, weighted, squares):
    """``_cell_moments`` of an ``AxisField``: products of 1D Gauss sums per term.

    Per axis k and cell m, the 1D sums are sum_q w_q phi^(o)(x_mq) p(xi_q) for
    every derivative order o and factor p the terms need (and
    sum_q w_q phi^(o) phi^(o') for the squares), O(N q) values per axis.  A
    component is a linear combination of products of factors, so its
    moment on a slab is the same combination of outer products of the 1D
    sums restricted to the slab's index ranges.
    """

    @cache
    def factor(k: int, order: int) -> np.ndarray:  # (dims_k, q_k)
        return field.factors[order](coordinates[k])

    @cache
    def moment(k: int, order: int, p: tuple[int, ...]) -> np.ndarray:
        return factor(k, order) @ weighted(k, p)

    @cache
    def square(k: int, a: int, b: int) -> np.ndarray:
        return (factor(k, a) * factor(k, b)) @ weighted(k, _ONE)

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
