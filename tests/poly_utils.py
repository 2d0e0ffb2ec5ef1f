"""Random polynomial tensor fields with analytic derivatives, used as oracles,
the meshes that exercise partial element blocks, dense stability probes and
the local matrices by Gauss quadrature."""

import numpy as np
import scipy.linalg

from elastmix.assembly import assemble, assemble_disp_mass, assemble_stress_gram, build_dof_map
from elastmix.element import (
    box_arrays,
    eval_disp_basis,
    eval_stress_basis,
    eval_stress_basis_div,
)
from elastmix.grid import TensorGrid
from elastmix.material import apply_compliance
from elastmix.quadrature import ELEMENT_BLOCK, tensor_rule


def partial_block_grid(dim):
    """Anisotropic box whose cell count (2D N=70, 3D N=17) ends in a partial block."""
    n = {2: 70, 3: 17}[dim]
    box = ((0.0, 1.0), (-0.5, 2.0), (0.25, 0.75))[:dim]
    grid = TensorGrid(dim, box, (n,) * dim)
    assert grid.n_elements > ELEMENT_BLOCK and grid.n_elements % ELEMENT_BLOCK
    return grid


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
    g_l2, g_div = assemble_stress_gram(grid, dofs)
    hdiv_gram = (g_l2 + g_div).toarray()
    mass_v = assemble_disp_mass(grid, dofs).toarray()

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


def _quadrature(box):
    lo, _, h = box_arrays(box)
    pts, w = tensor_rule(QUADRATURE_QPTS, lo.size)
    return lo.size, h, pts, float(np.prod(h)) * w


def _symmetric(mat):
    return 0.5 * (mat + mat.T)


def quadrature_compliance_matrix(box, material):
    dim, _, pts, w = _quadrature(box)
    basis = eval_stress_basis(dim, pts)
    abasis = apply_compliance(material, dim, basis)
    return _symmetric(np.einsum("aqij,bqij,q->ab", abasis, basis, w))


def quadrature_div_matrix(box):
    dim, h, pts, w = _quadrature(box)
    div = eval_stress_basis_div(dim, pts, h)
    return np.einsum("aqi,bqi,q->ba", div, eval_disp_basis(dim, pts), w)


def quadrature_l2_gram(box):
    dim, _, pts, w = _quadrature(box)
    basis = eval_stress_basis(dim, pts)
    return _symmetric(np.einsum("aqij,bqij,q->ab", basis, basis, w))


def quadrature_divdiv_gram(box):
    dim, h, pts, w = _quadrature(box)
    div = eval_stress_basis_div(dim, pts, h)
    return _symmetric(np.einsum("aqi,bqi,q->ab", div, div, w))


def quadrature_disp_mass(box):
    dim, _, pts, w = _quadrature(box)
    psi = eval_disp_basis(dim, pts)
    return _symmetric(np.einsum("aqi,bqi,q->ab", psi, psi, w))
