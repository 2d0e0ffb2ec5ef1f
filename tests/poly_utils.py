"""Random polynomial tensor fields with analytic derivatives, used as oracles,
the meshes that exercise partial element blocks, one-cell grids, the full
saddle matrix, the triplet scatter of local matrices (the oracle of the
assembly), the global Grams and displacement mass, dense stability probes,
pointwise error norms and the local matrices by Gauss quadrature."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from elastmix.assembly import assemble, build_dof_map
from elastmix.element import (
    disp_mass,
    eval_disp_basis,
    eval_stress_basis,
    eval_stress_basis_div,
    stress_divdiv_gram,
    stress_l2_gram,
)
from elastmix.grid import TensorGrid
from elastmix.interpolate import StressField, interp_stress
from elastmix.material import apply_compliance
from elastmix.quadrature import QUAD_POINTS, element_blocks, tensor_rule


def partial_block_grid(dim):
    """Anisotropic box (2D N=70, 3D N=17) whose cells take several blocks of
    the volume walk, the last of them partial."""
    n = {2: 70, 3: 17}[dim]
    box = ((0.0, 1.0), (-0.5, 2.0), (0.25, 0.75))[:dim]
    grid = TensorGrid(dim, box, (n,) * dim)
    sizes = [block.stop - block.start for block, _ in element_blocks(grid)]
    assert len(sizes) > 1 and sizes[-1] < sizes[0]
    return grid


def one_cell(box):
    """The grid of one cell on ``box`` = (lo, hi) and its DOF map."""
    lo, hi = box
    grid = TensorGrid(len(lo), tuple(zip(lo, hi)), (1,) * len(lo))
    return grid, build_dof_map(grid)


def local_dofs(field, box):
    """The DOFs of ``field`` on the cell ``box``, in element-table order, as
    interp_stress measures them on a one-cell grid."""
    grid, dofs = one_cell(box)
    return interp_stress(grid, dofs, field).coeffs[dofs.element_stress[0]]


def local_field(coeffs, box):
    """The stress field with local DOFs ``coeffs`` on the cell ``box``, as
    functions of physical points: values (m, dim, dim) and divergence (m, dim)."""
    grid, dofs = one_cell(box)
    glob = np.zeros(dofs.n_stress)
    glob[dofs.element_stress[0]] = coeffs
    field = StressField(dofs, glob)

    def xi(x):
        return (np.atleast_2d(x) - grid.lo) / grid.spacing

    return (
        lambda x: field.eval_elements(xi(x))[0],
        lambda x: field.div_elements(xi(x))[0],
    )


def pointwise_error_norms(grid, exact, sigma_h, u_h):
    """(sigma_l2, sigma_div, u_l2) by the tensor Gauss rule of QUAD_POINTS per
    axis at every quadrature point, block by block: the oracle of error_norms."""
    dim = grid.dim
    pts, w = tensor_rule(QUAD_POINTS, dim)
    sums = np.zeros(3)
    for block, axes in element_blocks(grid):
        x = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, dim)
        cells = (block.stop - block.start, len(w))
        sig = exact.sigma(x).reshape(cells + (dim, dim)) - sigma_h.eval_elements(pts, block)
        div = exact.f(x).reshape(cells + (dim,)) - sigma_h.div_elements(pts, block)
        u = exact.u(x).reshape(cells + (dim,)) - u_h.eval_elements(pts, block)
        sums += [
            np.einsum("eqij,eqij,q->", sig, sig, w),
            np.einsum("eqi,eqi,q->", div, div, w),
            np.einsum("eqi,eqi,q->", u, u, w),
        ]
    return np.sqrt(grid.element_volume * sums)


def full_matrix(system):
    """The assembled saddle matrix [[M, B^T], [B, 0]]."""
    return sp.bmat([[system.M, system.B.T], [system.B, None]], format="csr")


def scatter(local, rows, cols, shape):
    """Scatter the nonzero entries of one local matrix over per-element index
    arrays; duplicates sum, and sums that cancel to exactly 0.0 are not stored.

    The local matrices hold their structural zeros as exact zeros, and the
    div-div Gram also cancels exactly across cells: a face average of s_ii
    meets a shear unknown of the pair (i, j) with opposite signs from the two
    cells on either side of the face.  The triplets carry the index type the
    CSR ends with (int32 while the shape and triplet count fit), so scipy does
    not copy them to downcast.  This is the oracle of ``assemble``.
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


def grams_and_mass(grid, dofs):
    """Global L2 and div-div Grams of the stress space and the displacement
    mass, scattered from the exact local matrices as M and B are."""
    h, stress, disp = grid.spacing, dofs.element_stress, dofs.element_disp
    n_s, n_u = (dofs.n_stress,) * 2, (dofs.n_disp,) * 2
    return (
        scatter(stress_l2_gram(h), stress, stress, n_s),
        scatter(stress_divdiv_gram(h), stress, stress, n_s),
        scatter(disp_mass(h), disp, disp, n_u),
    )


class PolyTensorField:
    """Symmetric tensor field whose components are polynomials of degree <= 2.

    Component (i, j) is c0[i,j] + c1[i,j] . x + x . c2[i,j] . x with c2
    symmetric in its trailing axes, so gradients and divergence are exact.
    """

    def __init__(self, c0, c1, c2):
        self.c0 = np.asarray(c0, dtype=float)
        self.c1 = np.asarray(c1, dtype=float)
        self.c2 = np.asarray(c2, dtype=float)
        self.dim = self.c0.shape[0]

    @classmethod
    def random(cls, dim, rng, degree=2):
        c0 = rng.standard_normal((dim, dim))
        c1 = rng.standard_normal((dim, dim, dim))
        c2 = rng.standard_normal((dim, dim, dim, dim))
        c0 = 0.5 * (c0 + c0.T)
        c1 = 0.5 * (c1 + c1.transpose(1, 0, 2))
        c2 = 0.5 * (c2 + c2.transpose(1, 0, 2, 3))
        c2 = 0.5 * (c2 + c2.transpose(0, 1, 3, 2))
        if degree < 2:
            c2 = np.zeros_like(c2)
        if degree < 1:
            c1 = np.zeros_like(c1)
        return cls(c0, c1, c2)

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (
            self.c0[None]
            + np.einsum("ijk,mk->mij", self.c1, x)
            + np.einsum("ijkl,mk,ml->mij", self.c2, x, x)
        )

    def divergence(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        const = np.einsum("ijj->i", self.c1)
        linear = 2.0 * np.einsum("ijjl,ml->mi", self.c2, x)
        return const[None] + linear

    @property
    def scale(self):
        return max(
            1.0,
            float(np.abs(self.c0).max()),
            float(np.abs(self.c1).max()),
            float(np.abs(self.c2).max()),
        )


def random_box(dim, rng, min_edge=0.2, max_edge=2.0):
    lo = rng.uniform(-1.0, 1.0, size=dim)
    edges = rng.uniform(min_edge, max_edge, size=dim)
    return lo, lo + edges


def random_spacing(dim, rng):
    """The edge lengths of ``random_box(dim, rng)``, from the same draws."""
    lo, hi = random_box(dim, rng)
    return hi - lo


def kernel_basis(b):
    """Orthonormal basis of the numerical null space of a dense matrix."""
    _, svals, vt = scipy.linalg.svd(b, full_matrices=True)
    tol = svals.max(initial=0.0) * max(b.shape) * np.finfo(float).eps
    rank = int((svals > tol).sum())
    return vt[rank:].T


def dense_stability_probes(grid, material):
    """(beta_h, alpha_kernel) from dense eigensolves, as an oracle for the sparse probes.

    beta_h^2 is the smallest eigenvalue of B S^-1 B^T against the displacement
    mass, S the H(div) Gram; alpha_kernel is the smallest eigenvalue of the
    compliance form against S on an SVD basis of the kernel of B.
    """
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    m, b = system.M.toarray(), system.B.toarray()
    g_l2, g_div, mass_v = grams_and_mass(grid, dofs)
    hdiv_gram = (g_l2 + g_div).toarray()
    mass_v = mass_v.toarray()

    schur = b @ scipy.linalg.solve(hdiv_gram, b.T, assume_a="pos")
    eigs = scipy.linalg.eigh(0.5 * (schur + schur.T), mass_v, eigvals_only=True)
    beta = float(np.sqrt(max(eigs[0], 0.0)))

    z = kernel_basis(b)
    a_k = z.T @ m @ z
    s_k = z.T @ hdiv_gram @ z
    eigs = scipy.linalg.eigh(0.5 * (a_k + a_k.T), 0.5 * (s_k + s_k.T), eigvals_only=True)
    return beta, float(eigs[0])


# -- local matrices by quadrature ---------------------------------------------
# Integrands are at most degree 4 per axis (a diagonal quadratic times a
# quadratic), so 3-point Gauss is exact up to rounding: structural zeros come
# out as round-off of about 1e-18, not as 0.0.

QUADRATURE_QPTS = 3


def _quadrature(spacing):
    h = np.asarray(spacing, dtype=float)
    pts, w = tensor_rule(QUADRATURE_QPTS, h.size)
    return h.size, h, pts, float(np.prod(h)) * w


def _symmetric(mat):
    return 0.5 * (mat + mat.T)


def quadrature_compliance_matrix(spacing, material):
    dim, _, pts, w = _quadrature(spacing)
    basis = eval_stress_basis(dim, pts)
    abasis = apply_compliance(material, dim, basis)
    return _symmetric(np.einsum("aqij,bqij,q->ab", abasis, basis, w))


def quadrature_div_matrix(spacing):
    dim, h, pts, w = _quadrature(spacing)
    div = eval_stress_basis_div(dim, pts, h)
    return np.einsum("aqi,bqi,q->ba", div, eval_disp_basis(dim, pts), w)


def quadrature_l2_gram(spacing):
    dim, _, pts, w = _quadrature(spacing)
    basis = eval_stress_basis(dim, pts)
    return _symmetric(np.einsum("aqij,bqij,q->ab", basis, basis, w))


def quadrature_divdiv_gram(spacing):
    dim, h, pts, w = _quadrature(spacing)
    div = eval_stress_basis_div(dim, pts, h)
    return _symmetric(np.einsum("aqi,bqi,q->ab", div, div, w))


def quadrature_disp_mass(spacing):
    dim, _, pts, w = _quadrature(spacing)
    psi = eval_disp_basis(dim, pts)
    return _symmetric(np.einsum("aqi,bqi,q->ab", psi, psi, w))
