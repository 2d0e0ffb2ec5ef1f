"""Tensor Gauss-Legendre rules on [0, 1]^d, the fixed rule of the data and error
integrals, and the block walk over cells that every element-wise loop runs.

The walk yields tensor-product blocks: per axis, the coordinates of that
axis's cells and Gauss nodes, O(N q) values, rather than all N^n q^n points.
``evaluate`` computes a separable exact field on those per-axis coordinates
and combines the factors by broadcasting, in the spirit of sum factorization;
any other field is evaluated on the block's points.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

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

# Quadrature points per block of the element-wise quadrature loops (4096 cells
# of the 2D rule).  A block's temporaries then take a few MiB whatever the mesh
# size and dimension, and a block is still large enough that the vectorized
# evaluators spend their time on arithmetic, not call overhead.
BLOCK_POINTS = 4096 * QUAD_POINTS**2


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

    A block is every index of the leading axes, a range of indices on the next
    axis and one index on each later axis, so its cells are a run of the flat
    order (axis 0 fastest).  Yields the slice of flat cell indices and the
    per-axis physical coordinates of the block: axis k holds c_k cells by q_k
    nodes, placed at positions n-1-k and 2n-1-k of 2n broadcasting axes.  A
    formula over them broadcasts to the block's points in the order
    (cell, node) with axis 0 fastest in both; ``evaluate`` reshapes it so.
    """
    dim = grid.dim
    nodal = (0,) * dim if nodal is None else tuple(nodal)
    dims = [n + c for n, c in zip(grid.subdivisions, nodal)]
    nodes = [np.zeros(1) if c else gauss_01(QUAD_POINTS)[0] for c in nodal]
    lo, h = grid.lo, grid.spacing
    tables = []  # the coordinates of every cell and node along each axis
    for k in range(dim):
        shape = [1] * (2 * dim)
        shape[dim - 1 - k], shape[2 * dim - 1 - k] = dims[k], len(nodes[k])
        table = (lo[k] + np.arange(dims[k]) * h[k])[:, None] + nodes[k][None, :] * h[k]
        tables.append(table.reshape(shape))
    cells = max(1, BLOCK_POINTS // math.prod(len(x) for x in nodes))

    def rows(k: int, first: int, stop: int) -> np.ndarray:
        return tables[k][(slice(None),) * (dim - 1 - k) + (slice(first, stop),)]

    lead = 1  # cells of the leading axes taken whole
    for a in range(dim):
        if lead * dims[a] > cells:
            break
        lead *= dims[a]
    else:  # the whole lattice is one block
        yield slice(0, lead), tuple(tables)
        return
    step = cells // lead
    later = dims[a + 1 :]
    for outer in range(math.prod(later)):
        fixed = np.unravel_index(outer, later, order="F")
        tail = tuple(rows(a + 1 + k, m, m + 1) for k, m in enumerate(fixed))
        for first in range(0, dims[a], step):
            stop = min(first + step, dims[a])
            start = lead * (first + dims[a] * outer)
            block = slice(start, start + lead * (stop - first))
            yield block, tuple(tables[:a]) + (rows(a, first, stop),) + tail


def evaluate(field: Callable[[np.ndarray], np.ndarray], axes: Sequence[np.ndarray]) -> np.ndarray:
    """``field`` at the points of one block of ``element_blocks``, (cells, nodes, ...).

    An ``AxisField`` is evaluated on the block's per-axis coordinates.  Any
    other callable gets the block's points as one (m, dim) array; that path is
    the reference.
    """
    dim = len(axes)
    shape = np.broadcast_shapes(*(x.shape for x in axes))
    size = (math.prod(shape[:dim]), math.prod(shape[dim:]))
    if isinstance(field, AxisField):
        values = field.on_axes(axes)
        return values.reshape(size + values.shape[2 * dim :])
    points = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, dim)
    values = np.asarray(field(points))
    return values.reshape(size + values.shape[1:])
