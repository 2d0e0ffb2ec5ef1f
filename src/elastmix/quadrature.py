"""Tensor Gauss-Legendre rules on [0, 1]^d, the fixed rule of the data and error
integrals, and the block walk over cells that every element-wise loop runs."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .grid import TensorGrid


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

    Points have shape (npts**dim, dim) with axis 0 varying fastest, matching
    the grid module's entity enumeration.  dim == 0 yields the single-point
    rule with weight 1 so entity averages degenerate gracefully to point
    evaluation.
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
    grid: TensorGrid, pts: np.ndarray, dims: tuple[int, ...] | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """Walk the cells of a lattice in flat order, BLOCK_POINTS points at a time.

    The cells are the multi-indices m over ``dims`` (default: the grid's
    elements), axis 0 fastest; cell m is the box with lower corner
    lo + m * h and the grid's spacing h.  Face and subface families are such
    lattices too, with reference points that are 0 along their fixed axes.
    ``pts`` are reference points in [0, 1]^dim, shape (q, dim); a block holds
    BLOCK_POINTS // q cells (at least one).  Yields the slice of flat cell
    indices and the physical points of that block, shape (block size, q, dim).
    """
    dims = grid.subdivisions if dims is None else tuple(dims)
    lo, h = grid.lo, grid.spacing
    total = int(np.prod(dims))
    cells = max(1, BLOCK_POINTS // len(pts))
    for start in range(0, total, cells):
        block = slice(start, min(start + cells, total))
        multi = np.stack(
            np.unravel_index(np.arange(block.start, block.stop), dims, order="F"), axis=-1
        )
        yield block, (lo + multi * h)[:, None, :] + pts[None, :, :] * h
