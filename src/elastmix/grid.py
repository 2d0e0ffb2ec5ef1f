"""Uniform tensor-product rectangular grids.

A grid covers the box ``prod_i [lo_i, hi_i]`` with ``N_i`` equal cells per
axis.  Cells are numbered by multi-index, flattened with axis 0 varying
fastest.  The entities that carry stress degrees of freedom -- the grid
planes perpendicular to one axis and the (n-2)-faces perpendicular to an
axis pair -- form lattices of the same kind, with ``N_k + 1`` points along
the axes where they lie on grid planes; ``assembly.build_dof_map`` numbers
them from the element table.  Grids are immutable and store no coordinate
arrays; geometry is derived from the box and counts on demand, and the
integrals build each lattice's coordinates axis by axis
(``quadrature._cell_moments``).  The dimension and the counts are integers:
a float, even a whole one, is rejected rather than truncated.  Every interval
has a positive finite length, so no spacing is infinite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def as_count(value, what: str) -> int:
    """``value`` as an int; a non-integer, even a whole float, is a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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
        dim = as_count(self.dim, "grid dimension")
        if dim < 2:
            raise ValueError(f"grid dimension must be at least 2, got {dim}")
        box = tuple((float(a), float(b)) for a, b in self.box)
        subs = tuple(as_count(n, "subdivision count") for n in self.subdivisions)
        if len(box) != dim or len(subs) != dim:
            raise ValueError(
                f"box and subdivisions must have length {dim}, "
                f"got {len(box)} and {len(subs)}"
            )
        for a, b in box:
            # an infinite edge, or finite edges whose distance overflows
            if not 0 < b - a < np.inf:
                raise ValueError(f"interval [{a}, {b}] must have a positive finite length")
        for n in subs:
            if n < 1:
                raise ValueError(f"subdivision counts must be positive, got {n}")
        object.__setattr__(self, "dim", dim)
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


def unit_grid(dim: int, n: int) -> TensorGrid:
    """Uniform n-per-axis grid of the unit box [0, 1]^dim."""
    return TensorGrid(dim, ((0.0, 1.0),) * dim, (n,) * dim)
