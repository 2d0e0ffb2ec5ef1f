"""Global stress interpolation and elementwise displacement projection.

The stress interpolant of a smooth symmetric field matches, per diagonal
component, its averages over every (n-1)-face perpendicular to that
component's axis and over every element, and, per off-diagonal pair, its
averages over every (n-2)-face perpendicular to that pair of axes.  In 2D
those subfaces are points and the average degenerates to the vertex value.
Because every functional is attached to a single global entity the result is
conforming by construction.

The displacement projection is the elementwise L2-best approximation with
component i in span{1, x_i}: the exact local displacement mass solved
against the moments (u, psi_b), i.e. the load vector of u.

Both take their averages and moments from ``quadrature._cell_moments``,
slab by slab: for a separable exact field they are outer products of 1D
Gauss sums, one per axis; any other callable is summed over the quadrature
points.  The fields are coefficient vectors only; their values at points
are the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .assembly import DofMap, check_grid
from .element import _disp_terms, _ONE, disp_mass
from .grid import TensorGrid
from .quadrature import _cell_moments


@dataclass(frozen=True)
class _Field:
    """Coefficient vector over the global unknowns of one field of a DOF map;
    a subclass names the field and the DOF map's count of its unknowns."""

    dofs: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        size = getattr(self.dofs, self._size)
        if coeffs.shape != (size,):
            raise ValueError(f"expected {size} {self._name} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class StressField(_Field):
    """Coefficient vector over the global stress unknowns of a DOF map."""

    _name, _size = "stress", "n_stress"


@dataclass(frozen=True)
class DisplacementField(_Field):
    """Coefficient vector over the global displacement unknowns of a DOF map."""

    _name, _size = "displacement", "n_disp"


def interp_stress(
    grid: TensorGrid, dofs: DofMap, sigma: Callable[[np.ndarray], np.ndarray]
) -> StressField:
    """Interpolate a smooth symmetric-tensor field into the stress space.

    ``sigma`` maps points of shape (m, dim) to tensors of shape (m, dim, dim)
    with continuous entries; in 2D the off-diagonal functionals are vertex
    point values, so continuity is required, not just integrability.
    """
    check_grid(grid, dofs)
    coeffs = np.empty(dofs.n_stress)
    # the families on one lattice take one pass: the volume averages of all
    # diagonal components are the moments of their entries against 1
    lattices: dict[tuple[int, ...], list[tuple[tuple[int, int], int]]] = {}
    for entry, nodal, start in dofs.families:
        lattices.setdefault(nodal, []).append((entry, start))
    one = (_ONE,) * grid.dim
    for nodal, families in lattices.items():
        averages = [[(entry, 1.0, one)] for entry, _ in families]
        for cells, moments, _ in _cell_moments(grid, sigma, averages, nodal):
            for column, (_, start) in enumerate(families):
                coeffs[start + cells.start : start + cells.stop] = moments[:, column]
    return StressField(dofs, coeffs)


def project_displacement(
    grid: TensorGrid, dofs: DofMap, u: Callable[[np.ndarray], np.ndarray]
) -> DisplacementField:
    """Elementwise L2 projection of a vector field onto the displacement space.

    The local mass is solved slab by slab against the moments (u, psi_b) of
    ``assemble_load``, so nothing of the result's size is held beside it.
    """
    check_grid(grid, dofs)
    inverse = scipy.linalg.inv(disp_mass(np.ones(grid.dim)))  # on the reference cell
    coeffs = np.empty(dofs.n_disp)
    for cells, moments, _ in _cell_moments(grid, u, _disp_terms(grid.dim)):
        coeffs[dofs.element_disp[cells]] = moments @ inverse
    return DisplacementField(dofs, coeffs)
