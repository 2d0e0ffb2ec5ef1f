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
integrals are the element's reference matrices on [0, 1]: G_i is assembled
from ``element.QUAD_GRAM`` and P_k from ``HAT_GRAM``, D from
``DQUAD_MOMENTS``, H from ``HAT_MOMENTS`` and Delta from ``DHAT_MEANS``; the
compliance scales take the one coupling ``LameParams.trace_coupling``.
Every Gram inverse is a tridiagonal solve (LAPACK dpttrf, dpttrs).

S_c is inverted by fast diagonalization (Lynch, Rice and Thomas, Numer.
Math. 1964).  A_c is SPD but C_c is only semidefinite, so the pair is
diagonalized as C_c V = A_c V diag(phi) with V^T A_c V = I, and each L_j =
Q_j diag(lam_j) Q_j^T.  Then

    S_c^-1 = (V (x) Q) diag(1 / (1 + phi (x) sum_j lam_j)) (V (x) Q)^T,

applied with one matrix product per axis.  Storage is one scale per
displacement unknown plus the 1D factors; no global matrix is formed.

Both inverses are plans that group the work sharing its 1D factors: the
diagonal stress entries by N_i, the shear entries by (N_i, N_j), and the
displacement components by (N_c, h_c) and the (N_j, h_j) of the other axes
in contraction order; a box with no equal axes has groups of one.  Each
group computes its factors once and has buffers that hold its members side
by side.  The groups run one after another, so the buffers of all groups
are views of one scratch pool per plan, allocated with it and sized for the
largest group.  An apply copies the members in, makes one LAPACK or matrix
product call per factor and group, and writes into ``out``; an inverse
object is therefore not reentrant.

The Schur factors are computed in float64 and stored in float32, and the
products run in single precision; the solver's float64 residual and
restarts make up the difference.  V, which carries the units of
mu^(-1/2), is scaled by one power of two for the whole plan, and each input
by the power of two of its largest entry; both scalings are exact, and one
final ``ldexp`` undoes them, so float32 neither overflows nor underflows
whatever the units of the material.  ``StressInverse`` stays in float64.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, lapack

from .assembly import DofMap
from .element import DHAT_MEANS, DQUAD_MOMENTS, HAT_GRAM, HAT_MOMENTS, QUAD_GRAM
from .grid import TensorGrid
from .material import LameParams


def _compliance_scales(material: LameParams, dim: int) -> tuple[float, float]:
    """The compliance energy of a unit diagonal entry and of a unit shear pair.

    A s = (s - lam / (2 mu + n lam) tr(s) I) / (2 mu); a shear pair has no
    trace, and its two entries give 2 / (2 mu).
    """
    return (1.0 - material.trace_coupling(dim)) / (2.0 * material.mu), 1.0 / material.mu


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


# each volume average condensed onto the two faces of its cell
_CONDENSE = QUAD_GRAM[:2, 2] / QUAD_GRAM[2, 2]
_FACE_GRAM = QUAD_GRAM[:2, :2] - np.outer(QUAD_GRAM[:2, 2], _CONDENSE)


def _node_factors(local: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The dpttrf factors of a 2 x 2 node-by-node cell block assembled over n cells."""
    d = np.zeros(n + 1)
    d[:-1] += local[0, 0]
    d[1:] += local[1, 1]
    d, e, info = lapack.dpttrf(d, np.full(n, local[0, 1]))
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf failed (info={info})")
    return d, e


def _pttrs(factors, b: np.ndarray) -> None:
    """Overwrite the Fortran-ordered float64 matrix b by the solve with ``factors``."""
    if lapack.dpttrs(*factors, b, overwrite_b=True)[0] is not b:
        raise ValueError("dpttrs needs a Fortran-ordered float64 right-hand side")


def _chain_solve(factors, faces, volumes, t, u) -> None:
    """Overwrite faces and volumes by the solve of G, given the factors of the
    condensed face Gram.  All four arrays are Fortran-ordered (n + 1, columns);
    the last row of volumes is a pad, zeroed here, and t and u are scratch.
    Face k is face 0 of cell k and face 1 of cell k - 1.

    With the pad row zero, each face update is one pass over the flat
    buffers: a column's last face takes w0 times the pad, and the next
    column's first face w1 times it, so the column seams stay exact."""
    g, w = QUAD_GRAM, _CONDENSE
    volumes[-1] = 0.0
    f, v, t, u = (a.ravel(order="F") for a in (faces, volumes, t, u))
    f -= np.multiply(v, w[0], out=t)
    f[1:] -= np.multiply(v[:-1], w[1], out=t[:-1])
    _pttrs(factors, faces)
    np.multiply(f, g[0, 2], out=t)
    t[:-1] += np.multiply(f[1:], g[1, 2], out=u[:-1])
    v -= t
    v /= g[2, 2]


def _views(buffer: np.ndarray, lattices) -> list[np.ndarray]:
    """A view of each (axis, shape) lattice in the Fortran-ordered buffer, side
    by side from its first row, one fibre along ``axis`` per column."""
    views, start = [], 0
    for axis, shape in lattices:
        length = shape[axis]
        width = math.prod(shape) // length
        block = buffer[:length, start : start + width]
        moved = (length,) + shape[:axis] + shape[axis + 1 :]
        views.append(np.moveaxis(block.reshape(moved, order="F"), 0, axis))
        start += width
    return views


class StressInverse:
    """Applies the exact inverse of every per-entry block of M to a stress vector."""

    def __init__(self, dofs: DofMap, material: LameParams):
        grid = dofs.grid
        subs = grid.subdivisions
        a_diag, a_shear = _compliance_scales(material, grid.dim)
        # per group of shared factors, its families as (unknowns, lattice shape,
        # inverse compliance scale, axes solved along, block in each sweep)
        groups: dict[tuple[int, ...], list] = {}
        for (i, j), nodal, start in dofs.families:
            shape = tuple(n + k for n, k in zip(subs, nodal))
            axes = (i,) if i == j else (i, j)
            scale = 1.0 / (grid.element_volume * (a_diag if i == j else a_shear))
            family = (slice(start, start + math.prod(shape)), shape, scale, axes, [])
            groups.setdefault(tuple(subs[k] for k in axes), []).append(family)
        # per group and sweep along n cells: the family lists of its buffers
        # (faces or hats, then volume averages) and every buffer's width; all
        # have n + 1 rows, the volume averages' last one a pad, and the chain
        # solve adds two scratch buffers of their width
        plans = []
        for key, families in groups.items():
            sweeps = []
            for s, n in enumerate(key):
                parts = [[f for f in families if f[1][f[3][s]] == m] for m in (n + 1, n)]
                parts = [part for part in parts if part]
                widths = [sum(math.prod(f[1]) // f[1][f[3][s]] for f in part) for part in parts]
                if len(key) == 1:
                    widths += widths[1:] * 2
                sweeps.append((n, parts, widths))
            plans.append((families, sweeps))
        # the groups run one after another, so their buffers share one pool
        # sized for the largest group
        pool = np.empty(max(sum((n + 1) * sum(w) for n, _, w in sw) for _, sw in plans))
        # per group: its sweeps as (factors, buffers), and its families
        self._groups = []
        for families, sweeps in plans:
            built, start = [], 0
            for s, (n, parts, widths) in enumerate(sweeps):
                buffers = []
                for width in widths:
                    size = (n + 1) * width
                    buffers.append(pool[start : start + size].reshape((n + 1, width), order="F"))
                    start += size
                for part, buffer in zip(parts, buffers):
                    for f, view in zip(part, _views(buffer, [(f[3][s], f[1]) for f in part])):
                        f[4].append(view)
                gram = _FACE_GRAM if len(sweeps) == 1 else HAT_GRAM
                built.append((_node_factors(gram, n), buffers))
            self._groups.append((built, families))

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(r) if out is None else out
        for sweeps, families in self._groups:
            for rows, shape, scale, _, blocks in families:
                np.multiply(r[rows].reshape(shape, order="F"), scale, out=blocks[0])
            for s, (factors, buffers) in enumerate(sweeps):
                if s:
                    for *_, blocks in families:
                        np.copyto(blocks[s], blocks[s - 1])
                (_chain_solve if len(buffers) > 1 else _pttrs)(factors, *buffers)
            for rows, shape, _, _, blocks in families:
                out[rows].reshape(shape, order="F")[...] = blocks[-1]
        return out


def component_factors(
    grid: TensorGrid, material: LameParams, c: int
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """The dense 1D factors (A_c, C_c, {j: L_j}) of the Schur block S_c.

    Rows of A_c and C_c are numbered 2 e + m for the element index e along
    axis c and the moment m; L_j is numbered by the element index along j.
    """
    vol, h = grid.element_volume, grid.spacing
    a_diag, a_shear = _compliance_scales(material, grid.dim)

    def form(d, n):  # d P^-1 d^T for the Gram P of the hats on n cells
        x = d.T.toarray(order="F")
        _pttrs(_node_factors(HAT_GRAM, n), x)
        return _flush(d @ x)

    n = grid.subdivisions[c]
    faces = _element_by_node(DQUAD_MOMENTS[:, :2], n)
    volumes = _element_by_node(DQUAD_MOMENTS[:, 2:], n)
    # faces, volume averages with their pad row, and the two scratch arrays
    solved = [np.zeros((n + 1, 2 * n), order="F") for _ in range(4)]
    solved[0][...] = faces.T.toarray()
    solved[1][:-1] = volumes.T.toarray()
    _chain_solve(_node_factors(_FACE_GRAM, n), *solved)
    A = _flush((vol / (a_diag * h[c] ** 2)) * (faces @ solved[0] + volumes @ solved[1][:-1]))
    C = (vol / a_shear) * form(_element_by_node(HAT_MOMENTS, n), n)
    L = {
        j: form(_element_by_node(DHAT_MEANS, n_j), n_j) / h[j] ** 2
        for j, n_j in enumerate(grid.subdivisions)
        if j != c
    }
    return A, C, L


class SchurInverse:
    """Applies the exact inverse of every S_c to a displacement vector."""

    def __init__(self, grid: TensorGrid, material: LameParams):
        dim, subs, h = grid.dim, grid.subdivisions, grid.spacing
        # displacement index = 2 dim (flat element) + 2 c + m, axis 0 fastest
        self._shape = subs[::-1] + (dim, 2)
        # array axes of component c's data after contracting axis c: the
        # other grid axes in reverse order, then the eigen index
        others = {c: [j for j in reversed(range(dim)) if j != c] for c in range(dim)}
        groups: dict[tuple, list[int]] = {}
        for c in range(dim):
            groups.setdefault(tuple((subs[j], h[j]) for j in [c] + others[c]), []).append(c)
        # the groups run one after another, so their buffers x and y share one
        # pool sized for the largest group: a member holds 2 N_c entries per
        # element fibre along axis c, 2 n_elements in all
        size = 2 * grid.n_elements * max(len(members) for members in groups.values())
        pool = np.empty(2 * size, np.float32)
        eigen = []
        for members in groups.values():
            A, C, L = component_factors(grid, material, members[0])
            eigen.append((eigh(C, A), tuple(zip(*(eigh(L[j]) for j in others[members[0]])))))
        # V^T A_c V = I, so V carries the units of mu^(-1/2) and an apply, which
        # takes V twice, those of 1 / mu: one power of two for all groups keeps
        # V's float32 copy in range, and the apply's final ldexp restores it
        self._shift = max(int(np.frexp(np.abs(V).max())[1]) for (_, V), _ in eigen)
        # per group: its members as (component, array axis order in x, block
        # of x) and one apply's steps as (ufunc, operand, operand, out)
        self._groups = []
        for members, ((phi, V), (lams, Qs)) in zip(groups.values(), eigen):
            c, n = members[0], 2 * subs[members[0]]
            scale = 1.0 / (1.0 + sum(np.ix_(*lams))[..., None] * phi)
            V, *Qs, scale = (f.astype(np.float32) for f in (np.ldexp(V, -self._shift), *Qs, scale))
            lengths = tuple(subs[j] for j in others[c])
            shape = (len(members),) + lengths + (n,)
            x, y = (pool[k * size : k * size + math.prod(shape)].reshape(shape) for k in (0, 1))
            steps = [(np.matmul, x.reshape(-1, n), V, y.reshape(-1, n))]
            src, dst = y, x
            # Q^T along each other axis, the scale, then Q along each again; the
            # products alternate between x and y, and their even count ends in x
            for pos, q in [*enumerate(Q.T for Q in Qs), (None, scale), *enumerate(Qs)]:
                if pos is None:
                    steps.append((np.multiply, src, q, src))
                    continue
                fibres = (math.prod(src.shape[: pos + 1]), src.shape[pos + 1], -1)
                steps.append((np.matmul, q, src.reshape(fibres), dst.reshape(fibres)))
                src, dst = dst, src
            steps.append((np.matmul, src.reshape(-1, n), V.T, dst.reshape(-1, n)))
            blocks = x.reshape((len(members),) + lengths + (n // 2, 2))
            orders = [[dim - 1 - j for j in others[c] + [c]] + [dim] for c in members]
            self._groups.append((list(zip(members, orders, blocks)), steps))

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        r = np.asarray(r).reshape(self._shape)
        result = np.empty(r.size) if out is None else out
        lattice = result.reshape(self._shape)
        exponent = int(np.frexp(max(r.max(), -r.min()))[1])
        for blocks, steps in self._groups:
            for c, order, block in blocks:
                np.ldexp(r[..., c, :].transpose(order), -exponent, out=block)
            for ufunc, a, b, dst in steps:
                ufunc(a, b, out=dst)
            for c, order, block in blocks:
                lattice[..., c, :].transpose(order)[...] = block
        np.ldexp(lattice, exponent + 2 * self._shift, out=lattice)
        return result
