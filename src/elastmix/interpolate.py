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
Gauss sums, one per axis; any other field is summed over the quadrature
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .assembly import DofMap, check_grid
from .element import (
    _disp_terms,
    _ONE,
    disp_mass,
    eval_disp_basis,
    eval_stress_basis,
    eval_stress_basis_div,
)
from .grid import TensorGrid
from .quadrature import _cell_moments


def _contract(local: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum local coefficients (ne, nfun) against basis values (nfun, ...): one
    matrix product over the flattened basis, (ne, ...)."""
    return (local @ basis.reshape(basis.shape[0], -1)).reshape(local.shape[:1] + basis.shape[1:])


@dataclass(frozen=True)
class StressField:
    """Coefficient vector over the global stress unknowns of a DOF map."""

    dofs: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.dofs.n_stress,):
            raise ValueError(
                f"expected {self.dofs.n_stress} stress coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def eval_elements(self, xi: np.ndarray, elements: slice = slice(None)) -> np.ndarray:
        """Tensor values at reference points on the elements, (ne, m, dim, dim).

        ``elements`` selects a slice of the flat element order (default: all).
        """
        basis = eval_stress_basis(self.dofs.grid.dim, xi)
        local = self.coeffs[self.dofs.element_stress[elements]]
        return _contract(local, basis)

    def div_elements(self, xi: np.ndarray, elements: slice = slice(None)) -> np.ndarray:
        """Divergence at reference points on the elements, (ne, m, dim)."""
        grid = self.dofs.grid
        div = eval_stress_basis_div(grid.dim, xi, grid.spacing)
        local = self.coeffs[self.dofs.element_stress[elements]]
        return _contract(local, div)


@dataclass(frozen=True)
class DisplacementField:
    """Coefficient vector over the global displacement unknowns of a DOF map."""

    dofs: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.dofs.n_disp,):
            raise ValueError(
                f"expected {self.dofs.n_disp} displacement coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def eval_elements(self, xi: np.ndarray, elements: slice = slice(None)) -> np.ndarray:
        """Vector values at reference points on the elements, (ne, m, dim).

        ``elements`` selects a slice of the flat element order (default: all).
        """
        basis = eval_disp_basis(self.dofs.grid.dim, xi)
        local = self.coeffs[self.dofs.element_disp[elements]]
        return _contract(local, basis)


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
