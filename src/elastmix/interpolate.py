"""Global stress interpolation and elementwise displacement projection.

The stress interpolant of a smooth symmetric field matches, per diagonal
component, its averages over every (n-1)-face perpendicular to that
component's axis and over every element, and, per off-diagonal pair, its
averages over every (n-2)-face perpendicular to that pair of axes.  In 2D
those subfaces are points and the average degenerates to the vertex value.
Because every functional is attached to a single global entity the result is
conforming by construction.

The displacement projection is the elementwise L2-best approximation with
component i in span{1, x_i}; only the right-hand moments need quadrature,
the 2x2 Gram of {1, xi} per unit volume is [[1, 1/2], [1/2, 1/3]] exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import DofMap
from .element import eval_disp_basis, eval_stress_basis, eval_stress_basis_div
from .grid import TensorGrid
from .quadrature import element_blocks, tensor_rule

# Inverse of the unit-volume Gram [[1, 1/2], [1/2, 1/3]] of {1, xi}.
_MOMENT_SOLVE = np.array([[4.0, -6.0], [-6.0, 12.0]])


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
        return np.einsum("el,lmij->emij", local, basis)

    def div_elements(self, xi: np.ndarray, elements: slice = slice(None)) -> np.ndarray:
        """Divergence at reference points on the elements, (ne, m, dim)."""
        grid = self.dofs.grid
        div = eval_stress_basis_div(grid.dim, xi, grid.spacing)
        local = self.coeffs[self.dofs.element_stress[elements]]
        return np.einsum("el,lmi->emi", local, div)

    def eval_on_element(self, elem_multi, xi: np.ndarray) -> np.ndarray:
        """Tensor values at reference points on one element, (m, dim, dim)."""
        grid = self.dofs.grid
        basis = eval_stress_basis(grid.dim, xi)
        local = self.coeffs[self.dofs.element_stress[grid.element_flat(elem_multi)]]
        return np.einsum("l,lmij->mij", local, basis)


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
        return np.einsum("el,lmi->emi", local, basis)

    def eval_on_element(self, elem_multi, xi: np.ndarray) -> np.ndarray:
        grid = self.dofs.grid
        basis = eval_disp_basis(grid.dim, xi)
        local = self.coeffs[self.dofs.element_disp[grid.element_flat(elem_multi)]]
        return np.einsum("l,lmi->mi", local, basis)


def interp_stress(
    grid: TensorGrid,
    dofs: DofMap,
    sigma: Callable[[np.ndarray], np.ndarray],
    npts: int = 5,
) -> StressField:
    """Interpolate a smooth symmetric-tensor field into the stress space.

    ``sigma`` maps points of shape (m, dim) to tensors of shape (m, dim, dim)
    with continuous entries; in 2D the off-diagonal functionals are vertex
    point values, so continuity is required, not just integrability.
    """
    dim = grid.dim
    coeffs = np.zeros(dofs.n_stress)

    def averages(dims, free, targets):
        """Fill the entity averages of one lattice of entities.

        ``free`` lists the axes the entities extend along; ``targets`` holds
        (global offset, i, j) for each component averaged over them.
        """
        pts, w = tensor_rule(npts, len(free))
        ref = np.zeros((pts.shape[0], dim))
        ref[:, free] = pts
        for block, x in element_blocks(grid, ref, dims):
            vals = sigma(x.reshape(-1, dim)).reshape(x.shape[:2] + (dim, dim))
            for start, i, j in targets:
                coeffs[start + block.start : start + block.stop] = vals[:, :, i, j] @ w

    for i in range(dim):
        free = [k for k in range(dim) if k != i]
        averages(grid.face_dims(i), free, [(dofs.diag_face_offsets[i], i, i)])
    averages(
        grid.subdivisions,
        list(range(dim)),
        [(dofs.diag_volume_offsets[i], i, i) for i in range(dim)],
    )
    for i, j in grid.axis_pairs():
        free = [k for k in range(dim) if k not in (i, j)]
        averages(grid.subface_dims(i, j), free, [(dofs.shear_offsets[(i, j)], i, j)])

    return StressField(dofs, coeffs)


def project_displacement(
    grid: TensorGrid,
    dofs: DofMap,
    u: Callable[[np.ndarray], np.ndarray],
    npts: int = 5,
) -> DisplacementField:
    """Elementwise L2 projection of a vector field onto the displacement space."""
    dim = grid.dim
    pts, w = tensor_rule(npts, dim)
    vol = grid.element_volume
    coeffs = np.zeros(dofs.n_disp)
    for block, x in element_blocks(grid, pts):
        vals = np.asarray(u(x.reshape(-1, dim))).reshape(x.shape)
        m0 = vol * np.einsum("eqi,q->ei", vals, w)
        m1 = vol * np.einsum("eqi,qi,q->ei", vals, pts, w)
        local = np.empty((x.shape[0], 2 * dim))
        local[:, 0::2] = (_MOMENT_SOLVE[0, 0] * m0 + _MOMENT_SOLVE[0, 1] * m1) / vol
        local[:, 1::2] = (_MOMENT_SOLVE[1, 0] * m0 + _MOMENT_SOLVE[1, 1] * m1) / vol
        coeffs[dofs.element_disp[block]] = local
    return DisplacementField(dofs, coeffs)
