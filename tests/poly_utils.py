"""Random polynomial tensor fields with analytic derivatives, used as oracles,
the meshes that exercise partial slabs, one-cell grids, the full saddle
matrix, the triplet scatter of local matrices (the oracle of the assembly),
the global Grams and displacement mass, dense stability probes, pointwise
error norms, the divergence of discrete stresses and the local matrices by
Gauss quadrature.

The pointwise side of the element lives here too, as oracles that share no
code with the integrals they check: tensor Gauss rules, the cells' lower
corners, the stress and displacement bases evaluated with ``np.polynomial``
from the element table, the values of discrete fields at reference points,
and the compliance and stiffness applied to tensors."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from elastmix.assembly import assemble, build_dof_map
from elastmix.element import disp_mass, div_map, element_table, stress_l2_gram
from elastmix.grid import TensorGrid
from elastmix.interpolate import DisplacementField, StressField, interp_stress
from elastmix.quadrature import BLOCK_POINTS, QUAD_POINTS, _walk


def partial_block_grid(dim):
    """Anisotropic box (2D N=70, 3D N=17) whose cells take several slabs of
    the point walk of a plain callable, the last of them partial."""
    n = {2: 70, 3: 17}[dim]
    box = ((0.0, 1.0), (-0.5, 2.0), (0.25, 0.75))[:dim]
    grid = TensorGrid(dim, box, (n,) * dim)
    slab = BLOCK_POINTS // QUAD_POINTS**dim
    sizes = [block.stop - block.start for block, _ in _walk(grid.subdivisions, slab)]
    assert len(sizes) > 1 and sizes[-1] < sizes[0]
    return grid


# -- points, bases and tensors -------------------------------------------------


def multi_index_array(dims):
    """All multi-indices over ``dims``, shape (prod(dims), len(dims)), axis 0 fastest."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        return np.zeros((1, 0), dtype=np.int64)
    axes = np.meshgrid(*[np.arange(d, dtype=np.int64) for d in dims], indexing="ij")
    return np.stack([a.reshape(-1, order="F") for a in axes], axis=-1)


def tensor_rule(npts, dim):
    """Tensor Gauss-Legendre rule on [0, 1]^dim: points (npts**dim, dim), axis 0
    fastest, and weights summing to 1; dim == 0 is the one point of weight 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    index = multi_index_array((npts,) * dim)
    return 0.5 * (x[index] + 1.0), (0.5 * w[index]).prod(axis=1)


def element_origins(grid):
    """Lower corners of all cells in flat order, shape (n_elements, dim)."""
    return grid.lo + multi_index_array(grid.subdivisions) * grid.spacing


def _product(factors, xi, derived=None):
    """The product over the axes of the integer 1D factors at ``xi``, the one
    on axis ``derived`` differentiated."""
    value = np.ones(xi.shape[0])
    for k, p in enumerate(factors):
        factor = np.polynomial.Polynomial(p)
        value *= (factor.deriv() if k == derived else factor)(xi[:, k])
    return value


def eval_stress_basis(dim, xi):
    """Shape-function tensors at reference points ``xi``, shape (nfun, npts, dim,
    dim): each DOF's product of 1D factors in its entry and the transposed one."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    table = element_table(dim)
    out = np.zeros((len(table), xi.shape[0], dim, dim))
    for a, dof in enumerate(table):
        i, j = dof.entry
        out[a, :, i, j] = out[a, :, j, i] = _product(dof.factors, xi)
    return out


def eval_disp_basis(dim, xi):
    """Displacement basis vectors at reference points, shape (2 dim, npts, dim):
    function b is component b // 2 times xi^(b % 2) of that component's axis."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    out = np.zeros((2 * dim, xi.shape[0], dim))
    for i in range(dim):
        out[2 * i, :, i] = 1.0
        out[2 * i + 1, :, i] = xi[:, i]
    return out


def eval_elements(field, xi, elements=slice(None)):
    """Values of a discrete field at reference points ``xi`` on a slice of the
    flat cell order: (ne, m, dim, dim) for a StressField, (ne, m, dim) for a
    DisplacementField."""
    dofs = field.dofs
    if isinstance(field, StressField):
        basis, local = eval_stress_basis(dofs.grid.dim, xi), dofs.element_stress
    else:
        basis, local = eval_disp_basis(dofs.grid.dim, xi), dofs.element_disp
    return np.tensordot(field.coeffs[local[elements]], basis, axes=1)


def _check_symmetric(t, n, what):
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (n, n):
        raise ValueError(f"{what} must have trailing shape ({n}, {n}), got {t.shape}")
    tt = np.swapaxes(t, -1, -2)
    scale = float(np.abs(t).max()) if t.size else 0.0
    if not np.allclose(t, tt, rtol=1e-10, atol=1e-12 * (1.0 + scale)):
        raise ValueError(f"{what} must be symmetric")
    return t


def apply_compliance(params, n, sigma):
    """A sigma = (sigma - lam / (2 mu + n lam) tr(sigma) I) / (2 mu), for one
    tensor or an array of tensors with trailing shape (n, n)."""
    sigma = _check_symmetric(sigma, n, "stress tensor")
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    out = sigma - (params.lam / params.trace_factor(n)) * tr[..., None, None] * np.eye(n)
    return out / (2.0 * params.mu)


def apply_stiffness(params, n, eps):
    """C eps = 2 mu eps + lam tr(eps) I, the inverse of ``apply_compliance``."""
    eps = _check_symmetric(eps, n, "strain tensor")
    tr = np.trace(eps, axis1=-2, axis2=-1)
    return 2.0 * params.mu * eps + params.lam * tr[..., None, None] * np.eye(n)


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


def divergence(sigma_h):
    """div sigma_h as the displacement field of the mapped coefficients."""
    dofs = sigma_h.dofs
    coeffs = np.empty(dofs.n_disp)
    local = sigma_h.coeffs[dofs.element_stress]
    coeffs[dofs.element_disp] = local @ div_map(dofs.grid.spacing).T
    return DisplacementField(dofs, coeffs)


def local_field(coeffs, box):
    """The stress field with local DOFs ``coeffs`` on the cell ``box``, as
    functions of physical points: values (m, dim, dim) and divergence (m, dim)."""
    grid, dofs = one_cell(box)
    glob = np.zeros(dofs.n_stress)
    glob[dofs.element_stress[0]] = coeffs
    field = StressField(dofs, glob)
    div = divergence(field)

    def xi(x):
        return (np.atleast_2d(x) - grid.lo) / grid.spacing

    return (
        lambda x: eval_elements(field, xi(x))[0],
        lambda x: eval_elements(div, xi(x))[0],
    )


def pointwise_error_norms(grid, exact, sigma_h, u_h):
    """(sigma_l2, sigma_div, u_l2) by the tensor Gauss rule of QUAD_POINTS per
    axis at every quadrature point, 4096 cells at a time: the oracle of
    error_norms."""
    dim = grid.dim
    pts, w = tensor_rule(QUAD_POINTS, dim)
    sums = np.zeros(3)
    div_h = divergence(sigma_h)
    origins = element_origins(grid)
    for start in range(0, grid.n_elements, 4096):
        block = slice(start, min(start + 4096, grid.n_elements))
        x = (origins[block, None, :] + pts * grid.spacing).reshape(-1, dim)
        cells = (block.stop - block.start, len(w))
        sig = exact.sigma(x).reshape(cells + (dim, dim)) - eval_elements(sigma_h, pts, block)
        div = exact.f(x).reshape(cells + (dim,)) - eval_elements(div_h, pts, block)
        u = exact.u(x).reshape(cells + (dim,)) - eval_elements(u_h, pts, block)
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

    The local matrices hold their structural zeros as exact zeros.  The
    triplets carry the index type the CSR ends with (int32 while the shape
    and triplet count fit), so scipy does not copy them to downcast.  This is
    the oracle of ``assemble``.
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
    mass, scattered from local matrices as M and B are: the exact L2 Gram and
    mass, and the div-div Gram by quadrature of the pointwise divergence."""
    h, stress, disp = grid.spacing, dofs.element_stress, dofs.element_disp
    n_s, n_u = (dofs.n_stress,) * 2, (dofs.n_disp,) * 2
    return (
        scatter(stress_l2_gram(h), stress, stress, n_s),
        scatter(quadrature_divdiv_gram(h), stress, stress, n_s),
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


# -- the pointwise divergence and local matrices by quadrature -----------------
# Integrands are at most degree 4 per axis (a diagonal quadratic times a
# quadratic), so 3-point Gauss is exact up to rounding: structural zeros come
# out as round-off of about 1e-18, not as 0.0.

QUADRATURE_QPTS = 3


def eval_stress_basis_div(dim, xi, spacing):
    """Physical divergence of each shape function at reference points ``xi``,
    shape (nfun, npts, dim): the 1D factors of the element table differentiated
    one axis at a time, 1/h per derivative.  The oracle of ``div_map``."""
    h = np.asarray(spacing, dtype=float)
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    table = element_table(dim)
    out = np.zeros((len(table), xi.shape[0], dim))
    for a, dof in enumerate(table):
        i, j = dof.entry
        # s_ij adds d/dx_j to component i of the divergence, and s_ji (the
        # same function when i != j) d/dx_i to component j
        for r, s in {(i, j), (j, i)}:
            out[a, :, r] += _product(dof.factors, xi, derived=s) / h[s]
    return out


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
