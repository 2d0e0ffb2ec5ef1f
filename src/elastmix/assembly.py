"""Global DOF numbering and sparse assembly of the stress-displacement system.

Stress degrees of freedom are numbered family by family: for each axis i the
face averages of the i-th diagonal component (one per grid plane position,
shared by the two elements meeting there), then its per-element volume
averages; after all axes come the subface averages of each off-diagonal pair
(one per (n-2)-face, shared by up to four elements).  Sharing a single global
coefficient per entity is exactly what makes the broken space H(div)
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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .element import (
    CORNERS,
    disp_mass,
    eval_disp_basis,
    local_compliance_matrix,
    local_div_matrix,
    stress_divdiv_gram,
    stress_l2_gram,
    stress_dof_tags,
)
from .grid import FaceId, SubfaceId, TensorGrid, flat_strides
from .material import LameParams
from .quadrature import element_blocks, tensor_rule


@dataclass(frozen=True)
class DofMap:
    """Global numbering of stress and displacement unknowns on a grid."""

    grid: TensorGrid
    n_stress: int
    n_disp: int
    element_stress: np.ndarray  # (n_elements, 2*dim**2 + dim) global stress indices
    element_disp: np.ndarray  # (n_elements, 2*dim) global displacement indices
    diag_face_offsets: tuple[int, ...]
    diag_volume_offsets: tuple[int, ...]
    shear_offsets: dict[tuple[int, int], int] = field(repr=False)

    @property
    def n_total(self) -> int:
        return self.n_stress + self.n_disp

    def diag_face_index(self, face: FaceId) -> int:
        """Global index of the diagonal-component average on an (n-1)-face."""
        return self.diag_face_offsets[face.axis] + self.grid.face_flat(face)

    def diag_volume_index(self, axis: int, elem_multi: Sequence[int]) -> int:
        self.grid._check_axis(axis)
        return self.diag_volume_offsets[axis] + self.grid.element_flat(elem_multi)

    def shear_index(self, sub: SubfaceId) -> int:
        """Global index of the off-diagonal average on an (n-2)-face."""
        return self.shear_offsets[sub.axes] + self.grid.subface_flat(sub)

    def disp_index(self, elem_multi: Sequence[int], component: int, moment: int) -> int:
        dim = self.grid.dim
        if not (0 <= component < dim and moment in (0, 1)):
            raise ValueError(f"invalid displacement dof ({component}, {moment})")
        return self.grid.element_flat(elem_multi) * 2 * dim + 2 * component + moment


def build_dof_map(grid: TensorGrid) -> DofMap:
    dim = grid.dim
    elems = grid.element_multi_array()
    ne = elems.shape[0]

    diag_face_offsets = []
    diag_volume_offsets = []
    offset = 0
    for i in range(dim):
        diag_face_offsets.append(offset)
        offset += grid.n_faces(i)
        diag_volume_offsets.append(offset)
        offset += ne
    shear_offsets: dict[tuple[int, int], int] = {}
    for i, j in grid.axis_pairs():
        shear_offsets[(i, j)] = offset
        offset += grid.n_subfaces(i, j)
    n_stress = offset

    columns = []
    for tag in stress_dof_tags(dim):
        if tag.kind == "diag_face":
            i = tag.component[0]
            m = elems.copy()
            m[:, i] += tag.entity
            col = diag_face_offsets[i] + m @ flat_strides(grid.face_dims(i))
        elif tag.kind == "diag_volume":
            i = tag.component[0]
            col = diag_volume_offsets[i] + np.arange(ne, dtype=np.int64)
        else:
            i, j = tag.component
            ci, cj = CORNERS[tag.entity]
            m = elems.copy()
            m[:, i] += ci
            m[:, j] += cj
            col = shear_offsets[(i, j)] + m @ flat_strides(grid.subface_dims(i, j))
        columns.append(col)
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
        diag_face_offsets=tuple(diag_face_offsets),
        diag_volume_offsets=tuple(diag_volume_offsets),
        shear_offsets=shear_offsets,
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

    def full_matrix(self) -> sp.csr_matrix:
        return sp.bmat([[self.M, self.B.T], [self.B, None]], format="csr")

    def export_matrix_market(self, path) -> None:
        """Write the full block matrix in Matrix Market coordinate format."""
        from scipy.io import mmwrite

        mmwrite(str(path), self.full_matrix().tocoo())


def assemble(grid: TensorGrid, material: LameParams, dofs: DofMap | None = None) -> SaddleSystem:
    """Assemble the compliance block M and divergence block B on the grid."""
    if dofs is None:
        dofs = build_dof_map(grid)
    box = grid.element_box((0,) * grid.dim)
    m_loc = local_compliance_matrix(box, material)
    b_loc = local_div_matrix(box)
    M = _scatter(m_loc, dofs.element_stress, dofs.element_stress, (dofs.n_stress, dofs.n_stress))
    B = _scatter(b_loc, dofs.element_disp, dofs.element_stress, (dofs.n_disp, dofs.n_stress))
    return SaddleSystem(M=M, B=B, dofs=dofs, material=material)


def assemble_load(
    grid: TensorGrid,
    f: Callable[[np.ndarray], np.ndarray],
    dofs: DofMap,
    npts: int = 5,
) -> np.ndarray:
    """Load vector (f, psi_b) by tensor Gauss quadrature with ``npts`` per axis.

    ``f`` maps points of shape (m, dim) to vectors of shape (m, dim).
    """
    dim = grid.dim
    pts, w = tensor_rule(npts, dim)
    psi = eval_disp_basis(dim, pts)
    load = np.zeros(dofs.n_disp)
    for block, x in element_blocks(grid, pts):
        fx = np.asarray(f(x.reshape(-1, dim))).reshape(x.shape)
        local = grid.element_volume * np.einsum("eqi,bqi,q->eb", fx, psi, w)
        load[dofs.element_disp[block]] = local
    return load


def assemble_stress_gram(grid: TensorGrid, dofs: DofMap) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Global L2 and div-div Gram matrices of the stress space (exact)."""
    box = grid.element_box((0,) * grid.dim)
    g_l2 = _scatter(
        stress_l2_gram(box), dofs.element_stress, dofs.element_stress,
        (dofs.n_stress, dofs.n_stress),
    )
    g_div = _scatter(
        stress_divdiv_gram(box), dofs.element_stress, dofs.element_stress,
        (dofs.n_stress, dofs.n_stress),
    )
    return g_l2, g_div


def assemble_disp_mass(grid: TensorGrid, dofs: DofMap) -> sp.csr_matrix:
    """Global mass matrix of the displacement space (exact, block diagonal)."""
    box = grid.element_box((0,) * grid.dim)
    return _scatter(
        disp_mass(box), dofs.element_disp, dofs.element_disp,
        (dofs.n_disp, dofs.n_disp),
    )
