"""Kronecker inverses of the two diagonal blocks of the MINRES preconditioner.

Every shape function is a product of 1D factors, so the block of M coupling
one tensor entry with itself is a Kronecker product of assembled 1D Grams on
the unit interval: vol a_diag G_i (x) I for s_ii, with G_i the chain of the
dual quadratics (faces and volume averages) along axis i, and vol a_shear
P_i (x) P_j (x) I for s_ij, with P_k the Gram of the hats along axis k.  Let
Mb be M restricted to those blocks.  ``StressInverse`` applies Mb^-1: each
volume average is condensed onto the two faces of its cell, leaving one
tridiagonal solve along axis i, and s_ij takes one along each of its axes.

The block of S = B Mb^-1 B^T belonging to displacement component c is then
exactly

    S_c = A_c (x) I + C_c (x) L_rest,    L_rest = sum_{j != c} L_j,

where A_c and C_c act on the pair (element index along axis c, moment) and
L_j on the element index along axis j.  A_c = D G_c^-1 D^T comes from s_cc,
whose divergence D is a moment of the derivative of a quadratic; C_c (x) L_j
comes from s_cj, with C_c = H P_c^-1 H^T (hats against moments along c) and
L_j = Delta P_j^-1 Delta^T (differences along j).  Only the coupling of
different components through the shear unknowns is dropped.  The 1D
integrals are exact integrals of the element's integer factor polynomials,
and every Gram inverse is a tridiagonal solve (LAPACK dpttrf, dpttrs).

S_c is inverted by fast diagonalization (Lynch, Rice and Thomas, Numer.
Math. 1964).  A_c is SPD but C_c is only semidefinite, so the pair is
diagonalized as C_c V = A_c V diag(phi) with V^T A_c V = I, and each L_j =
Q_j diag(lam_j) Q_j^T.  Then

    S_c^-1 = (V (x) Q) diag(1 / (1 + phi (x) sum_j lam_j)) (V (x) Q)^T,

applied with one tensor contraction per axis.  Storage is one scale per
displacement unknown plus the 1D factors; no global matrix is formed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, lapack

from .assembly import DofMap
from .element import _HATS, _ONE, _QUADRATICS, _T, _deriv, _integral
from .grid import TensorGrid
from .material import LameParams, apply_compliance

# Reference-interval integrals behind the 1D factors, t in [0, 1]: the
# derivatives of the dual quadratics (face 0, face 1, volume) and the hats
# (node 0, node 1) against the displacement moments (1, t).
_DQUAD_MOMENTS = np.array(
    [[_integral(_deriv(q), m) for q in _QUADRATICS] for m in (_ONE, _T)]
)
_HAT_MOMENTS = np.array([[_integral(hat, m) for hat in _HATS] for m in (_ONE, _T)])


def _compliance_scales(material: LameParams, dim: int) -> tuple[float, float]:
    """The compliance energy of a unit diagonal entry and of a unit shear pair."""
    # the compliance is isotropic: axes 0 and 1 stand for every axis and pair
    eye = np.eye(dim)
    a_diag = apply_compliance(material, dim, np.outer(eye[0], eye[0]))[0, 0]
    shear = np.outer(eye[0], eye[1]) + np.outer(eye[1], eye[0])
    return a_diag, float(np.sum(apply_compliance(material, dim, shear) * shear))


def _element_by_node(local: np.ndarray, n: int) -> sp.csr_matrix:
    """Scatter an (r, k) element block over n elements, element e taking the
    columns e .. e + k - 1: shape (r n, n + k - 1)."""
    r, k = local.shape
    columns = np.broadcast_to(np.arange(n)[:, None, None] + np.arange(k), (n, r, k)).ravel()
    indptr = np.arange(0, r * n * k + 1, k)
    return sp.csr_matrix((np.tile(local.ravel(), n), columns, indptr), shape=(r * n, n + k - 1))


def _flush(x: np.ndarray) -> np.ndarray:
    """Zero the entries of x below eps^2 of its largest, in place.  The inverse
    Grams decay exponentially, and the denormal floats of a long axis make the
    dense eigensolver about 1.5 times slower."""
    x[np.abs(x) < np.finfo(float).eps ** 2 * np.abs(x).max()] = 0.0
    return x


def _gram(polys) -> np.ndarray:
    return np.array([[_integral(p, q) for q in polys] for p in polys])


def _node_gram(local: np.ndarray, n: int):
    """The solve of a 2 x 2 node-by-node cell block assembled over n cells;
    it overwrites a Fortran-ordered right-hand side."""
    d = np.zeros(n + 1)
    d[:-1] += local[0, 0]
    d[1:] += local[1, 1]
    d, e, info = lapack.dpttrf(d, np.full(n, local[0, 1]))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed (info={info})")
    return lambda b: lapack.dpttrs(d, e, b, overwrite_b=True)[0]


def _hat_solve(n: int):
    """The solve of P, the Gram of the hats on the n + 1 planes of n cells."""
    return _node_gram(_gram(_HATS), n)


def _chain_solve(n: int):
    """The solve of G on n cells, faces and volume averages given apart.

    Each volume average is condensed onto the two faces of its cell (face k
    is face 0 of cell k and face 1 of cell k - 1); both inputs are overwritten.
    """
    g = _gram(_QUADRATICS)
    w = g[:2, 2] / g[2, 2]
    faces_solve = _node_gram(g[:2, :2] - np.outer(g[:2, 2], w), n)

    def solve(faces, volumes):
        faces[:-1] -= w[0] * volumes
        faces[1:] -= w[1] * volumes
        faces = faces_solve(faces)
        volumes -= g[0, 2] * faces[:-1] + g[1, 2] * faces[1:]
        volumes /= g[2, 2]
        return faces, volumes

    return solve


def _solve_along(solve, axis: int, *xs: np.ndarray) -> list[np.ndarray]:
    """Apply ``solve`` to the fibres along ``axis`` of the arrays ``xs``.

    Each array reaches ``solve`` as a Fortran-ordered (length, fibres) matrix,
    a copy unless ``axis`` is already first in a Fortran-ordered array.
    """
    moved = [np.asfortranarray(x.swapaxes(0, axis)) for x in xs]
    out = solve(*(m.reshape(m.shape[0], -1, order="F") for m in moved))
    return [y.reshape(m.shape, order="F").swapaxes(0, axis) for y, m in zip(out, moved)]


class StressInverse:
    """Applies the exact inverse of every per-entry block of M to a stress vector."""

    def __init__(self, dofs: DofMap, material: LameParams):
        grid = dofs.grid
        subs = grid.subdivisions
        a_diag, a_shear = _compliance_scales(material, grid.dim)
        self._chains = [_chain_solve(n) for n in subs]
        self._hats = [_hat_solve(n) for n in subs]
        # per tensor entry: its families as (unknowns, lattice shape), faces
        # before volume averages, and the inverse of its compliance scale
        self._entries: dict[tuple[int, int], tuple[list, float]] = {}
        for entry, nodal, start in sorted(dofs.families, key=lambda family: -sum(family[1])):
            a = a_diag if entry[0] == entry[1] else a_shear
            families, _ = self._entries.setdefault(entry, ([], 1.0 / (grid.element_volume * a)))
            shape = tuple(n + k for n, k in zip(subs, nodal))
            families.append((slice(start, start + int(np.prod(shape))), shape))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)

        def lattice(x, rows, shape):  # a family's unknowns, axis 0 fastest
            return x[rows].reshape(shape, order="F")

        for (i, j), (families, scale) in self._entries.items():
            parts = [scale * lattice(r, *family) for family in families]
            if i == j:
                parts = _solve_along(self._chains[i], i, *parts)
            else:
                for k in (i, j):
                    parts = _solve_along(lambda b: [self._hats[k](b)], k, *parts)
            for family, y in zip(families, parts):
                lattice(out, *family)[...] = y
        return out


def component_factors(
    grid: TensorGrid, material: LameParams, c: int
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The dense 1D factors (A_c, C_c, {j: L_j}) of the Schur block S_c.

    Rows of A_c and C_c are numbered 2 e + m for the element index e along
    axis c and the moment m; L_j is numbered by the element index along j.
    """
    vol = grid.element_volume
    h = grid.spacing
    a_diag, a_shear = _compliance_scales(material, grid.dim)

    def form(d, solve):  # d X^-1 d^T for the X that ``solve`` inverts
        return _flush(d @ solve(d.T.toarray(order="F")))

    n = grid.subdivisions[c]
    faces = _element_by_node(_DQUAD_MOMENTS[:, :2], n)
    volumes = _element_by_node(_DQUAD_MOMENTS[:, 2:], n)
    solved = _chain_solve(n)(faces.T.toarray(order="F"), volumes.T.toarray(order="F"))
    A = _flush((vol / (a_diag * h[c] ** 2)) * (faces @ solved[0] + volumes @ solved[1]))
    C = (vol / a_shear) * form(_element_by_node(_HAT_MOMENTS, n), _hat_solve(n))
    L = {
        j: form(_element_by_node(np.array([[-1.0, 1.0]]), n_j), _hat_solve(n_j)) / h[j] ** 2
        for j, n_j in enumerate(grid.subdivisions)
        if j != c
    }
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
