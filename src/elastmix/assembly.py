"""Global DOF numbering and sparse assembly of the stress-displacement system.

Stress degrees of freedom are numbered family by family: for each axis i the
face averages of the i-th diagonal component (one per grid plane position,
shared by the two elements meeting there), then its per-element volume
averages; after all axes come the subface averages of each off-diagonal pair
(one per (n-2)-face, shared by up to four elements).  That is the order in
which ``element.element_table`` first names each family; the global index of
a local DOF on a cell is its family's start plus the flat lattice position of
the cell's multi-index shifted by the table's entity offset.  Sharing a single
global coefficient per entity is exactly what makes the broken space H(div)
conforming.  Displacement unknowns live in their own block, two per element
and component, and are never shared.

All elements of a uniform grid are congruent, so the local matrices are
computed once and scattered everywhere.  The local matrices are exact
products of 1D integrals with their structural zeros stored as exact 0.0,
and only their nonzero entries are scattered, so each global matrix is
stored on its exact sparsity pattern, not on every pair of unknowns that
share a cell.  Duplicate triplets are summed by the sparse conversion, which
is order independent.  The load is assigned cell by cell: displacement
unknowns are never shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .element import (
    disp_mass,
    element_table,
    eval_disp_basis,
    local_compliance_matrix,
    local_div_matrix,
    stress_divdiv_gram,
    stress_l2_gram,
)
from .grid import TensorGrid, flat_strides
from .material import LameParams
from .quadrature import QUAD_POINTS, element_blocks, evaluate, tensor_rule


@dataclass(frozen=True)
class DofMap:
    """Global numbering of stress and displacement unknowns on a grid.

    ``families`` lists the stress families in global order as (tensor entry,
    nodal, first global index): one unknown per point of the lattice with
    N_k + nodal[k] points along axis k, numbered with axis 0 fastest.
    """

    grid: TensorGrid
    n_stress: int
    n_disp: int
    element_stress: np.ndarray  # (n_elements, 2*dim**2 + dim) global stress indices
    element_disp: np.ndarray  # (n_elements, 2*dim) global displacement indices
    families: tuple[tuple[tuple[int, int], tuple[int, ...], int], ...]

    @property
    def n_total(self) -> int:
        return self.n_stress + self.n_disp


def build_dof_map(grid: TensorGrid) -> DofMap:
    dim = grid.dim
    elems = grid.element_multi_array()
    ne = elems.shape[0]
    subs = np.asarray(grid.subdivisions)

    starts: dict[tuple, int] = {}
    n_stress = 0
    columns = []
    for dof in element_table(dim):
        dims = subs + dof.nodal
        family = (dof.entry, dof.nodal)
        if family not in starts:
            starts[family] = n_stress
            n_stress += int(np.prod(dims))
        columns.append(starts[family] + (elems + dof.offset) @ flat_strides(dims))
    element_stress = np.stack(columns, axis=1)

    base = np.arange(ne, dtype=np.int64)[:, None] * (2 * dim)
    element_disp = base + np.arange(2 * dim, dtype=np.int64)[None, :]

    element_stress.setflags(write=False)
    element_disp.setflags(write=False)
    return DofMap(
        grid=grid,
        n_stress=n_stress,
        n_disp=2 * dim * ne,
        element_stress=element_stress,
        element_disp=element_disp,
        families=tuple((entry, nodal, start) for (entry, nodal), start in starts.items()),
    )


def _scatter(
    local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Scatter the nonzero entries of one local matrix over per-element index
    arrays; duplicates sum, and sums that cancel to exactly 0.0 are not stored.

    The local matrices hold their structural zeros as exact zeros, and the
    div-div Gram also cancels exactly across cells: a face average of s_ii
    meets a shear unknown of the pair (i, j) with opposite signs from the two
    cells on either side of the face.  The triplets carry the index type the
    CSR ends with (int32 while the shape and triplet count fit), so scipy does
    not copy them to downcast.
    """
    r_loc, c_loc = np.nonzero(local)
    ne = rows.shape[0]
    size = max(shape + (ne * r_loc.size,))
    index = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    r = rows.astype(index)[:, r_loc].ravel()
    c = cols.astype(index)[:, c_loc].ravel()
    data = np.broadcast_to(local[r_loc, c_loc], (ne, r_loc.size)).ravel()
    matrix = sp.coo_matrix((data, (r, c)), shape=shape).tocsr()
    matrix.eliminate_zeros()
    return matrix


@dataclass(frozen=True)
class SaddleSystem:
    """Assembled blocks of the symmetric indefinite system [[M, B^T], [B, 0]]."""

    M: sp.csr_matrix
    B: sp.csr_matrix
    dofs: DofMap
    material: LameParams

    @property
    def n_total(self) -> int:
        return self.dofs.n_total


def assemble(grid: TensorGrid, material: LameParams, dofs: DofMap | None = None) -> SaddleSystem:
    """Assemble the compliance block M and divergence block B on the grid."""
    if dofs is None:
        dofs = build_dof_map(grid)
    m_loc = local_compliance_matrix(grid.spacing, material)
    b_loc = local_div_matrix(grid.spacing)
    M = _scatter(m_loc, dofs.element_stress, dofs.element_stress, (dofs.n_stress, dofs.n_stress))
    B = _scatter(b_loc, dofs.element_disp, dofs.element_stress, (dofs.n_disp, dofs.n_stress))
    return SaddleSystem(M=M, B=B, dofs=dofs, material=material)


def assemble_load(
    grid: TensorGrid, f: Callable[[np.ndarray], np.ndarray], dofs: DofMap
) -> np.ndarray:
    """Load vector (f, psi_b) by the tensor Gauss rule of QUAD_POINTS per axis.

    ``f`` maps points of shape (m, dim) to vectors of shape (m, dim); these
    moments of any such field are what ``project_displacement`` solves against.
    """
    dim = grid.dim
    pts, w = tensor_rule(QUAD_POINTS, dim)
    psi = eval_disp_basis(dim, pts)
    load = np.zeros(dofs.n_disp)
    # a field too large for float64 gives inf or NaN entries, which ``solve``
    # rejects, so overflow here is not worth a warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        for block, axes in element_blocks(grid):
            local = grid.element_volume * np.einsum("eqi,bqi,q->eb", evaluate(f, axes), psi, w)
            load[dofs.element_disp[block]] = local
    return load


def assemble_stress_gram(grid: TensorGrid, dofs: DofMap) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Global L2 and div-div Gram matrices of the stress space (exact)."""
    g_l2 = _scatter(
        stress_l2_gram(grid.spacing), dofs.element_stress, dofs.element_stress,
        (dofs.n_stress, dofs.n_stress),
    )
    g_div = _scatter(
        stress_divdiv_gram(grid.spacing), dofs.element_stress, dofs.element_stress,
        (dofs.n_stress, dofs.n_stress),
    )
    return g_l2, g_div


def assemble_disp_mass(grid: TensorGrid, dofs: DofMap) -> sp.csr_matrix:
    """Global mass matrix of the displacement space (exact, block diagonal)."""
    return _scatter(
        disp_mass(grid.spacing), dofs.element_disp, dofs.element_disp,
        (dofs.n_disp, dofs.n_disp),
    )
