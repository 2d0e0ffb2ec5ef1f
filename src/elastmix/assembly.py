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
and component, and are never shared.  The per-cell tables of global indices
are int32 while every unknown's index fits, as the CSR indices are, and
int64 past that.

All elements of a uniform grid are congruent, so the local matrices are
computed once.  They are exact products of 1D integrals with their
structural zeros stored as exact 0.0, and M and B are written directly as
CSR on the pattern of the nonzero local entries.  A row p of M, a point of
its family's lattice, meets the unknown p + delta of a family G through the
local pairs with offset_b - offset_a = delta, on the cells p - offset_a that
exist; ordered by G and then by delta, these groups give every row's columns
sorted.  Which cells exist depends only on the row's boundary code, so a
row's count of nonzeros is that of its code: M's three CSR arrays are
allocated once, at their final size, and each family compresses its rows'
values and columns into its slice.  A row of B belongs to one cell, and
every cell repeats one sorted local pattern.  The load is assigned cell by
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .element import _disp_terms, element_table, local_compliance_matrix, local_div_matrix
from .grid import TensorGrid, flat_strides
from .material import LameParams
from .quadrature import _cell_moments


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
    # int32 while every unknown's index fits, else int64 (``_index_dtype``)
    element_stress: np.ndarray  # (n_elements, 2*dim**2 + dim) global stress indices
    element_disp: np.ndarray  # (n_elements, 2*dim) global displacement indices
    families: tuple[tuple[tuple[int, int], tuple[int, ...], int], ...]

    @property
    def n_total(self) -> int:
        return self.n_stress + self.n_disp


def check_grid(grid: TensorGrid, dofs: DofMap) -> None:
    """Reject a DOF map built on another grid; an equal grid built again passes."""
    if dofs.grid != grid:
        raise ValueError(f"the DOF map belongs to another grid: {dofs.grid} is not {grid}")


def _families(dim: int) -> tuple[tuple[tuple, ...], np.ndarray, np.ndarray]:
    """The stress families (entry, nodal) in global order, and each local DOF's
    family and entity offset."""
    families: dict[tuple, int] = {}
    of = [families.setdefault((dof.entry, dof.nodal), len(families)) for dof in element_table(dim)]
    return tuple(families), np.array(of), np.array([dof.offset for dof in element_table(dim)])


def _lattice_sum(dims, vectors, dtype=np.int64) -> np.ndarray:
    """sum_k vectors[k][p_k] at every point p of the lattice ``dims``, flat with
    axis 0 fastest; vector k has shape (dims[k],) + tail, the result (-1,) + tail."""
    tail = vectors[0].shape[1:]
    out = np.zeros(tuple(dims[::-1]) + tail, dtype)
    for k, v in enumerate(vectors):
        out += v.reshape(v.shape[:1] + (1,) * k + tail)
    return out.reshape((-1,) + tail)


def _columns(dims, starts, strides, shifts, dtype) -> np.ndarray:
    """starts[j] plus the flat position of p + shifts[j] in the lattice with
    strides[j], at every point p of the lattice ``dims``: shape (-1, j)."""
    vectors = [(np.arange(d)[:, None] + shifts[:, k]) * strides[:, k] for k, d in enumerate(dims)]
    vectors[0] += starts
    return _lattice_sum(dims, vectors, dtype)


def build_dof_map(grid: TensorGrid) -> DofMap:
    dim, ne = grid.dim, grid.n_elements
    subs = np.asarray(grid.subdivisions)
    families, family_of, offsets = _families(dim)
    starts = np.cumsum([0] + [int(np.prod(subs + nodal)) for _, nodal in families])
    strides = np.array([flat_strides(subs + nodal) for _, nodal in families])[family_of]
    index = _index_dtype(int(starts[-1]) + 2 * dim * ne)
    element_stress = _columns(subs, starts[family_of], strides, offsets, index)
    element_disp = np.arange(2 * dim * ne, dtype=index).reshape(ne, 2 * dim)

    element_stress.setflags(write=False)
    element_disp.setflags(write=False)
    return DofMap(
        grid=grid,
        n_stress=int(starts[-1]),
        n_disp=2 * dim * ne,
        element_stress=element_stress,
        element_disp=element_disp,
        families=tuple((e, n, int(s)) for (e, n), s in zip(families, starts)),
    )


def _index_dtype(size: int):
    """int32 while every index and the triplet count fit, as scipy chooses."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


@lru_cache(maxsize=None)
def _row_stencils(dim: int, pattern: bytes):
    """The (G, delta) groups of the local nonzeros ``pattern`` (flat indices, as
    bytes) of a stress-stress matrix: whether each nonzero's cell exists at a
    row of each boundary code, the nonzeros sorted by row family F, G and delta
    from its last axis, where each group starts, and per F its groups."""
    _, family_of, offsets = _families(dim)
    nonzero = np.frombuffer(pattern, dtype=np.intp)
    a, b = np.divmod(nonzero, offsets.shape[0])
    # F, G and delta from its last axis, so that rows of ``key`` sort as groups
    key = np.column_stack((family_of[a], family_of[b], (offsets[b] - offsets[a])[:, ::-1]))
    order = np.lexsort(key.T[::-1])
    group, starts = np.unique(key[order], axis=0, return_index=True)
    bounds = np.searchsorted(group[:, 0], np.arange(family_of.max() + 2))
    targets, deltas = group[:, 1], group[:, :1:-1]  # delta from its first axis again
    rows = [(slice(lo, hi), targets[lo:hi], deltas[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    # code_k is 0 at the first point of axis k, 1 at the last of a nodal axis
    # and 2 elsewhere: no cell lies at offset 0 of a code 1 point, or at 1 of 0
    codes = np.array(list(np.ndindex((3,) * dim)))[:, ::-1]  # axis 0 fastest
    exists = (codes[:, None, :] != 1 - offsets[a[order]]).all(axis=2)
    return exists, nonzero[order], starts, rows


def _stress_csr(local: np.ndarray, dofs: DofMap) -> sp.csr_matrix:
    """The stress-stress matrix summed from ``local`` over the cells, row family
    by row family; entries that sum to exactly 0.0 are not stored."""
    grid, n = dofs.grid, dofs.n_stress
    subs = np.asarray(grid.subdivisions)
    exists, pairs, starts, rows = _row_stencils(grid.dim, np.flatnonzero(local).tobytes())
    index = _index_dtype(max(n, grid.n_elements * pairs.size))
    # each group's value at the rows of each boundary code
    table = np.add.reduceat(np.where(exists, local.ravel()[pairs], 0.0), starts, axis=1)
    family_starts = np.array([start for _, _, start in dofs.families])
    strides = np.array([flat_strides(subs + nodal) for _, nodal, _ in dofs.families])

    def codes(nodal):  # each row's boundary code, flat in the family's lattice
        code = [np.array([0] + [2] * (d - 1 - c) + [1] * c) for d, c in zip(subs + nodal, nodal)]
        return _lattice_sum(subs + nodal, [v * 3**k for k, v in enumerate(code)])

    # a row's count of nonzeros is that of its boundary code
    indptr = np.zeros(n + 1, index)
    for (_, nodal, start), (groups, _, _) in zip(dofs.families, rows):
        counts = np.count_nonzero(table[:, groups], axis=1)[codes(nodal)]
        indptr[start + 1 : start + 1 + counts.size] = counts
    np.cumsum(indptr, out=indptr)
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], index)
    for (_, nodal, start), (groups, targets, deltas) in zip(dofs.families, rows):
        values = table[:, groups][codes(nodal)]
        keep = (values != 0).ravel()
        part = slice(indptr[start], indptr[start + values.shape[0]])
        np.compress(keep, values.ravel(), out=data[part])
        cols = _columns(subs + nodal, family_starts[targets], strides[targets], deltas, index)
        np.compress(keep, cols.ravel(), out=indices[part])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _disp_csr(local: np.ndarray, dofs: DofMap) -> sp.csr_matrix:
    """The displacement-stress matrix of ``local``.  Displacement unknowns are
    never shared, so every cell repeats the local nonzeros, each row's columns
    in the order the cell's stress unknowns have on every cell."""
    r, c = np.nonzero(local)
    order = np.lexsort((dofs.element_stress[0, c], r))
    r, c = r[order], c[order]
    ne, n_loc = dofs.element_disp.shape
    index = _index_dtype(max(dofs.n_disp, dofs.n_stress, ne * r.size))
    indptr = np.cumsum(np.r_[0, np.tile(np.bincount(r, minlength=n_loc), ne)], dtype=index)
    indices = np.take(dofs.element_stress, c, axis=1).astype(index, copy=False).ravel()
    data = np.tile(local[r, c], ne)
    return sp.csr_matrix((data, indices, indptr), shape=(dofs.n_disp, dofs.n_stress))


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


def assemble(grid: TensorGrid, material: LameParams, dofs: DofMap) -> SaddleSystem:
    """Assemble the compliance block M and divergence block B on the grid,
    numbered by the caller's DOF map ``dofs`` of that grid."""
    check_grid(grid, dofs)
    m_loc = local_compliance_matrix(grid.spacing, material)
    b_loc = local_div_matrix(grid.spacing)
    M = _stress_csr(m_loc, dofs)
    B = _disp_csr(b_loc, dofs)
    return SaddleSystem(M=M, B=B, dofs=dofs, material=material)


def assemble_load(
    grid: TensorGrid, f: Callable[[np.ndarray], np.ndarray], dofs: DofMap
) -> np.ndarray:
    """Load vector (f, psi_b) by the tensor Gauss rule of QUAD_POINTS per axis.

    ``f`` maps points of shape (m, dim) to vectors of shape (m, dim); these
    moments of any such field are what ``project_displacement`` solves against.
    Each cell's moments come from ``quadrature._cell_moments``: products of
    1D Gauss sums for a separable field, a sum over the quadrature points for
    any other.
    """
    check_grid(grid, dofs)
    load = np.empty(dofs.n_disp)
    # a field too large for float64 gives inf or NaN entries, which ``solve``
    # rejects, so overflow here (and inf - inf in the 1D products) is not
    # worth a warning of its own
    with np.errstate(over="ignore", invalid="ignore"):
        for cells, moments, _ in _cell_moments(grid, f, _disp_terms(grid.dim)):
            load[dofs.element_disp[cells]] = grid.element_volume * moments
    return load
