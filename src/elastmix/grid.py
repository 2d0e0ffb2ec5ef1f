"""Uniform tensor-product rectangular grids.

A grid covers the box ``prod_i [lo_i, hi_i]`` with ``N_i`` equal cells per
axis.  Cells are numbered by multi-index, flattened with axis 0 varying
fastest.  The entities that carry stress degrees of freedom -- the grid
planes perpendicular to one axis and the (n-2)-faces perpendicular to an
axis pair -- form lattices of the same kind, with ``N_k + 1`` points along
the axes where they lie on grid planes; ``assembly.build_dof_map`` numbers
them from the element table.  Grids are immutable and store no coordinate
arrays; geometry is derived from the box and counts on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def multi_index_array(dims: Sequence[int]) -> np.ndarray:
    """All multi-indices over ``dims``, shape (prod(dims), len(dims)), axis 0 fastest."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        return np.zeros((1, 0), dtype=np.int64)
    axes = np.meshgrid(*[np.arange(d, dtype=np.int64) for d in dims], indexing="ij")
    return np.stack([a.reshape(-1, order="F") for a in axes], axis=-1)


def flat_strides(dims: Sequence[int]) -> np.ndarray:
    """Strides turning a multi-index into its flat position (axis 0 has stride 1)."""
    strides = np.ones(len(dims), dtype=np.int64)
    for k in range(1, len(dims)):
        strides[k] = strides[k - 1] * dims[k - 1]
    return strides


@dataclass(frozen=True)
class TensorGrid:
    """Uniform rectangular mesh of an n-dimensional box, n >= 2."""

    dim: int
    box: tuple[tuple[float, float], ...]
    subdivisions: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"grid dimension must be at least 2, got {self.dim}")
        box = tuple((float(a), float(b)) for a, b in self.box)
        subs = tuple(int(n) for n in self.subdivisions)
        if len(box) != self.dim or len(subs) != self.dim:
            raise ValueError(
                f"box and subdivisions must have length {self.dim}, "
                f"got {len(box)} and {len(subs)}"
            )
        for a, b in box:
            if not b > a:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        for n in subs:
            if n < 1:
                raise ValueError(f"subdivision counts must be positive, got {n}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "subdivisions", subs)

    # -- geometry -----------------------------------------------------------

    @property
    def lo(self) -> np.ndarray:
        return np.array([a for a, _ in self.box])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b for _, b in self.box])

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.subdivisions)

    @property
    def max_spacing(self) -> float:
        return float(self.spacing.max())

    @property
    def element_volume(self) -> float:
        return float(np.prod(self.spacing))

    # -- elements -----------------------------------------------------------

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.subdivisions))

    def element_multi_array(self) -> np.ndarray:
        """Multi-indices of all elements in flat order, shape (n_elements, dim)."""
        return multi_index_array(self.subdivisions)

    def element_origins(self) -> np.ndarray:
        """Lower corners of all elements in flat order, shape (n_elements, dim)."""
        return self.lo + self.element_multi_array() * self.spacing


def unit_grid(dim: int, n: int) -> TensorGrid:
    """Uniform n-per-axis grid of the unit box [0, 1]^dim."""
    return TensorGrid(dim, ((0.0, 1.0),) * dim, (n,) * dim)
