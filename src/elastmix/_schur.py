"""Fast-diagonalization inverse of the displacement Schur blocks.

The MINRES preconditioner needs the inverse of S = B diag(M)^-1 B^T on the
displacement space.  On a uniform box grid the block of S belonging to
displacement component c is exactly a sum of two Kronecker products,

    S_c = A_c (x) I + C_c (x) L_rest,    L_rest = sum_{j != c} L_j,

where A_c and C_c act on the pair (element index along axis c, moment) and
L_j on the element index along axis j (L_rest is the Kronecker sum over the
other axes).  A_c collects the diagonal stress component s_cc, which only
varies along axis c; C_c (x) L_j collects the shear component s_cj, whose
divergence in component c is a moment along axis c times a difference
along axis j.  diag(M) factorizes the same way, because the number of
elements sharing a stress entity is a product of per-axis multiplicities
(1 on the boundary, 2 inside).  Only the coupling of different components
through the shear unknowns is dropped.

The inverse uses fast diagonalization (Lynch, Rice and Thomas, Numer. Math.
1964).  A_c is SPD but C_c is only semidefinite, so the pair is diagonalized as
C_c V = A_c V diag(phi) with V^T A_c V = I, and each L_j = Q_j diag(lam_j)
Q_j^T.  Then

    S_c^-1 = (V (x) Q) diag(1 / (1 + phi (x) sum_j lam_j)) (V (x) Q)^T,

applied with one tensor contraction per axis.  Storage is one scale per
displacement unknown plus the dense 1D factors; no global matrix is formed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from .grid import TensorGrid
from .material import LameParams, apply_compliance

# Reference-interval integrals behind the 1D factors, t in [0, 1].
# Derivatives of the dual quadratics (face 0, face 1, volume) against the
# displacement moments (1, t), and the squared L2 norms of the quadratics.
_DQ_MOMENTS = np.array([[-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])
_Q_SQ = np.array([2.0 / 15.0, 2.0 / 15.0, 6.0 / 5.0])
# Linear hats (node 0, node 1) against the moments (1, t), and their squared norm.
_HAT_MOMENTS = np.array([[0.5, 0.5], [1.0 / 6.0, 1.0 / 3.0]])
_HAT_SQ = 1.0 / 3.0


def _node_weights(n: int) -> np.ndarray:
    """Elements sharing each of the n + 1 grid planes along one axis."""
    w = np.full(n + 1, 2.0)
    w[[0, -1]] = 1.0
    return w


def _element_by_node(local: np.ndarray, n: int) -> np.ndarray:
    """Scatter an (r, 2) element-by-node block over n elements: shape (r n, n + 1)."""
    e = np.arange(n)
    out = np.zeros((n, local.shape[0], n + 1))
    out[e, :, e] = local[:, 0]
    out[e, :, e + 1] = local[:, 1]
    return out.reshape(-1, n + 1)


def component_factors(
    grid: TensorGrid, material: LameParams, c: int
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The dense 1D factors (A_c, C_c, {j: L_j}) of the Schur block S_c.

    Rows of A_c and C_c are numbered 2 e + m for the element index e along
    axis c and the moment m; L_j is numbered by the element index along j.
    """
    dim = grid.dim
    vol = grid.element_volume
    h = grid.spacing
    # the compliance is isotropic: axes 0 and 1 stand for every axis and pair
    eye = np.eye(dim)
    a_diag = apply_compliance(material, dim, np.outer(eye[0], eye[0]))[0, 0]
    shear = np.outer(eye[0], eye[1]) + np.outer(eye[1], eye[0])
    a_shear = float(np.sum(apply_compliance(material, dim, shear) * shear))

    n = grid.subdivisions[c]
    w = _node_weights(n)
    faces = _element_by_node(_DQ_MOMENTS[:, :2], n)
    volumes = np.kron(np.eye(n), _DQ_MOMENTS[:, 2:])
    A = (vol / (a_diag * h[c] ** 2)) * (
        (faces / (_Q_SQ[0] * w)) @ faces.T + volumes @ volumes.T / _Q_SQ[2]
    )
    hats = _element_by_node(_HAT_MOMENTS, n)
    C = (vol / (a_shear * _HAT_SQ**2)) * (hats / w) @ hats.T

    L = {}
    for j in range(dim):
        if j != c:
            diff = _element_by_node(np.array([[-1.0, 1.0]]), grid.subdivisions[j])
            L[j] = (diff / _node_weights(grid.subdivisions[j])) @ diff.T / h[j] ** 2
    return A, C, L


def _along(x: np.ndarray, axis: int, q: np.ndarray) -> np.ndarray:
    """Multiply every fibre of ``x`` along ``axis`` by the matrix ``q``."""
    shape = x.shape
    pre = int(np.prod(shape[:axis]))
    return np.matmul(q, x.reshape(pre, shape[axis], -1)).reshape(shape)


class SchurInverse:
    """Applies the exact inverse of every S_c to a displacement vector."""

    def __init__(self, grid: TensorGrid, material: LameParams):
        self.grid = grid
        dim = grid.dim
        self._components = []
        for c in range(dim):
            A, C, L = component_factors(grid, material, c)
            phi, V = eigh(C, A)
            # array axes of component c's data after contracting axis c:
            # the other grid axes in reverse order, then the eigen index
            others = [j for j in reversed(range(dim)) if j != c]
            lams, rotations = zip(*(eigh(L[j]) for j in others))
            lam_sum = sum(np.ix_(*lams))
            scale = 1.0 / (1.0 + lam_sum[..., None] * phi)
            self._components.append(
                (V.reshape(grid.subdivisions[c], 2, -1), rotations, scale)
            )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        grid = self.grid
        dim = grid.dim
        # displacement index = 2 dim (flat element) + 2 c + m, axis 0 fastest
        shape = grid.subdivisions[::-1] + (dim, 2)
        r = np.asarray(r).reshape(shape)
        out = np.empty(shape)
        for c, (V, rotations, scale) in enumerate(self._components):
            axis_c = dim - 1 - c
            y = np.tensordot(r[..., c, :], V, axes=([axis_c, dim], [0, 1]))
            for pos, Q in enumerate(rotations):
                y = _along(y, pos, Q.T)
            y *= scale
            for pos, Q in enumerate(rotations):
                y = _along(y, pos, Q)
            y = np.tensordot(y, V, axes=([-1], [2]))
            out[..., c, :] = np.moveaxis(y, -2, axis_c)
        return out.ravel()
