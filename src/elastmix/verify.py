"""Error norms, superclose norms, rate fitting and stability probes.

Continuous-versus-discrete errors are split cell by cell at the local L2
projection P v of the exact field v: with m_e the moments of v against the
local basis, G the local Gram, g_e = G^-1 m_e its projection and c_e the
discrete coefficients,

    ||v - v_h||_e^2 = max(||v||_e^2 - m_e . g_e, 0) + (g_e - c_e)^T G (g_e - c_e).

The moments and ||v||_e^2 are the tensor Gauss rule (QUAD_POINTS per axis)
of ``quadrature._cell_moments``, products of 1D sums for a separable field.
The split never subtracts two global sums: the first part is the local
projection error, the second a quadratic form of a coefficient difference.
The divergence of the exact stress is taken from the load evaluator, which
is exact for manufactured solutions and avoids differentiating the stress;
div sigma_h lies in the displacement space, with coefficients D c_e for
D = ``element.div_map``, so its split uses the displacement mass.
Discrete-versus-discrete (superclose) norms are quadratic forms of
coefficient differences in the local Gram matrices, hence carry no
quadrature error at all; the superclose div norm is the displacement L2
norm of div(sigma_h - Pi sigma), the form of D (c_e - pi_e) in the
displacement mass.

The stability probes are sparse shift-invert eigensolves: the inf-sup
constant is the square root of the smallest eigenvalue of B S^-1 B^T against
the displacement mass matrix, with S the H(div) Gram of the stress space
(locally the L2 Gram plus D^T disp_mass D),
and the kernel ellipticity ratio is the smallest Rayleigh quotient of the
compliance form over the kernel of B.  Each probe sums the local saddle
block over the cells, factors that one matrix, and lets eigsh in
shift-invert mode about 0 apply a block of its inverse; the metric, also a
cell sum, is only multiplied by.  No global matrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import build_dof_map, check_grid
from .element import (
    _unit_cell,
    disp_mass,
    div_map,
    local_compliance_matrix,
    local_div_matrix,
    stress_l2_gram,
)
from .grid import TensorGrid
from .interpolate import DisplacementField, StressField
from .manufactured import ExactSolution
from .material import LameParams
from .quadrature import BLOCK_POINTS, _cell_moments


@dataclass(frozen=True)
class ErrorRecord:
    """Measured norms for one grid level; unset entries are None.

    The H(div) norm satisfies hdiv^2 = l2^2 + div^2 by definition.
    """

    h: float
    stress_dofs: int
    disp_dofs: int
    sigma_l2: float | None = None
    sigma_div: float | None = None
    sigma_hdiv: float | None = None
    u_l2: float | None = None
    super_sigma_l2: float | None = None
    super_sigma_div: float | None = None
    super_sigma_hdiv: float | None = None
    super_u_l2: float | None = None


def _distance_sq(
    grid: TensorGrid, field, functions, gram: np.ndarray, local: Callable[[slice], np.ndarray]
) -> float:
    """||v - v_h||^2 by the split of the module docstring, slab by slab.

    ``functions`` and ``gram`` are the local basis on the reference cell and
    its Gram; ``local(cells)`` gives v_h's coefficients on those cells.
    """
    inverse = scipy.linalg.inv(gram)
    total = 0.0
    for cells, moments, squares in _cell_moments(grid, field, functions, squares=True):
        projection = moments @ inverse
        best = (moments * projection).sum(axis=1)  # ||P v||_e^2
        total += float(np.maximum(squares - best, 0.0).sum())
        total += _cell_form(projection - local(cells), gram)
    return total * grid.element_volume


def error_norms(
    grid: TensorGrid, exact: ExactSolution, sigma_h: StressField, u_h: DisplacementField
) -> ErrorRecord:
    """L2 and H(div) errors of the stress and L2 error of the displacement."""
    check_grid(grid, sigma_h.dofs)
    check_grid(grid, u_h.dofs)
    stress, disp, gram, _, mass = _unit_cell(grid.dim)  # the reference cell
    div = div_map(grid.spacing).T

    def local_stress(cells):
        return sigma_h.coeffs[sigma_h.dofs.element_stress[cells]]

    sigma_l2_sq = _distance_sq(grid, exact.sigma, stress, gram, local_stress)
    sigma_div_sq = _distance_sq(grid, exact.f, disp, mass, lambda cells: local_stress(cells) @ div)
    u_l2_sq = _distance_sq(
        grid, exact.u, disp, mass, lambda cells: u_h.coeffs[u_h.dofs.element_disp[cells]]
    )

    return ErrorRecord(
        h=grid.max_spacing,
        stress_dofs=sigma_h.dofs.n_stress,
        disp_dofs=u_h.dofs.n_disp,
        sigma_l2=np.sqrt(sigma_l2_sq),
        sigma_div=np.sqrt(sigma_div_sq),
        sigma_hdiv=np.sqrt(sigma_l2_sq + sigma_div_sq),
        u_l2=np.sqrt(u_l2_sq),
    )


def _cell_form(d: np.ndarray, local: np.ndarray) -> float:
    """Sum over the cells of d_e^T local d_e: one matmul and one dot."""
    return float(np.vdot(d @ local, d))


def superclose_norms(
    sigma_h: StressField,
    pi_sigma: StressField,
    u_h: DisplacementField,
    ph_u: DisplacementField,
) -> ErrorRecord:
    """Distances between discrete fields, exact via local Gram matrices."""
    dofs = sigma_h.dofs
    if pi_sigma.dofs is not dofs or u_h.dofs is not dofs or ph_u.dofs is not dofs:
        raise ValueError("fields do not share a DOF map")
    grid = dofs.grid
    h = grid.spacing

    mass, gram, div = disp_mass(h), stress_l2_gram(h), div_map(h).T
    stress, disp = dofs.element_stress, dofs.element_disp
    # the forms are summed over slabs of cells in flat order, as the moments
    # of ``_cell_moments`` are, so no (n_elements, nfun) table is built
    slab = max(1, BLOCK_POINTS // stress.shape[1])
    l2_sq = div_sq = u_sq = 0.0
    for start in range(0, grid.n_elements, slab):
        cells = slice(start, start + slab)
        d_sigma = sigma_h.coeffs[stress[cells]] - pi_sigma.coeffs[stress[cells]]
        l2_sq += _cell_form(d_sigma, gram)
        div_sq += _cell_form(d_sigma @ div, mass)
        u_sq += _cell_form(u_h.coeffs[disp[cells]] - ph_u.coeffs[disp[cells]], mass)

    return ErrorRecord(
        h=grid.max_spacing,
        stress_dofs=dofs.n_stress,
        disp_dofs=dofs.n_disp,
        super_sigma_l2=np.sqrt(l2_sq),
        super_sigma_div=np.sqrt(div_sq),
        super_sigma_hdiv=np.sqrt(l2_sq + div_sq),
        super_u_l2=np.sqrt(u_sq),
    )


def fit_rate(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.shape != errors.shape or hs.size < 3:
        raise ValueError("need at least 3 matching (h, error) pairs")
    if (hs <= 0).any() or (errors <= 0).any():
        raise ValueError("h and error values must be positive")
    if (np.diff(hs) >= 0).any():
        raise ValueError("h values must be strictly decreasing")
    slope, _ = np.polyfit(np.log(hs), np.log(errors), 1)
    return float(slope)


def _cell_sum(local: np.ndarray, cells: np.ndarray, n: int) -> sp.csc_matrix:
    """Sum over the cells of ``local`` on each cell's unknowns ``cells[e]``.

    Every local entry is stored, exact zeros included (COO -> CSC sums
    duplicates and keeps zeros), so the pattern is the element closure: every
    pair of unknowns sharing a cell.  splu orders the columns by COLAMD on the
    stored pattern, and on the exact pattern of M, B and the Grams that order
    fills the LU far more (inf-sup saddle matrix at 2D N=32: nnz(L+U) 5.78 M
    against 0.89 M).
    """
    pairs = (cells.shape[0],) + local.shape
    rows = np.broadcast_to(cells[:, :, None], pairs).ravel()
    cols = np.broadcast_to(cells[:, None, :], pairs).ravel()
    return sp.coo_matrix((np.broadcast_to(local, pairs).ravel(), (rows, cols)), (n, n)).tocsc()


def _smallest_saddle_eigenvalue(
    grid: TensorGrid, material: LameParams, max_dofs: int, on_stress: bool
) -> float:
    """Smallest lam of K x = lam D x, K = [[A, B^T], [B, 0]], D nonzero on one block.

    Stress block: A = M, D = H(div) Gram S.  Displacement block: A = S, D =
    displacement mass.  K and D are cell sums of local matrices, and K is
    factored once.  +-[K^-1]_block is the inverse of the operator whose
    eigenvalues against D are the lam (see the probes), so eigsh in
    shift-invert mode about 0 returns the smallest lam directly and only
    multiplies by D.  Lanczos from a seeded start repeats it to the last bit.
    """
    dofs = build_dof_map(grid)
    if dofs.n_total > max_dofs:
        raise ValueError(f"probe has {dofs.n_total} unknowns, over the budget of {max_dofs}")
    h, stress, disp = grid.spacing, dofs.element_stress, dofs.element_disp
    mass, div = disp_mass(h), div_map(h)
    hdiv = stress_l2_gram(h) + div.T @ mass @ div
    if on_stress:
        a, d, cells, sign = local_compliance_matrix(h, material), hdiv, stress, 1.0
        block = slice(0, dofs.n_stress)
    else:
        a, d, cells, sign = hdiv, mass, disp, -1.0
        block = slice(dofs.n_stress, dofs.n_total)
    b = local_div_matrix(h)
    local = np.block([[a, b.T], [b, np.zeros((b.shape[0],) * 2)]])
    saddle = spla.splu(_cell_sum(local, np.hstack([stress, disp + dofs.n_stress]), dofs.n_total))
    metric = _cell_sum(d, cells, block.stop - block.start)
    rhs = np.zeros(dofs.n_total)

    def inverse(y):
        rhs[block] = y
        return sign * saddle.solve(rhs)[block]

    v0 = np.random.default_rng(0).standard_normal(metric.shape[0])
    op = spla.LinearOperator(metric.shape, matvec=inverse, dtype=float)
    # with OPinv given, shift-invert mode never multiplies by its first
    # argument; the metric stands there for its shape
    lam = spla.eigsh(
        metric, k=1, M=metric, sigma=0.0, OPinv=op, v0=v0, tol=1e-13, return_eigenvectors=False
    )
    return float(lam[0])


def infsup_probe(grid: TensorGrid, material: LameParams, max_dofs: int = 3000) -> float:
    """Discrete inf-sup constant of the divergence coupling.

    For each displacement v the best stress gives sup_tau (div tau, v) /
    ||tau||_Hdiv = sqrt(v^T B S^-1 B^T v); minimizing over ||v||_0 = 1 is a
    generalized eigenvalue problem against the displacement mass matrix.
    The displacement block of [[S, B^T], [B, 0]]^-1 is -(B S^-1 B^T)^-1.
    """
    return float(np.sqrt(_smallest_saddle_eigenvalue(grid, material, max_dofs, on_stress=False)))


def kernel_ellipticity_probe(
    grid: TensorGrid, material: LameParams, max_dofs: int = 3000
) -> float:
    """Smallest Rayleigh quotient of the compliance form on the kernel of B.

    On that kernel the divergence vanishes pointwise, so the H(div) norm in
    the denominator coincides with the L2 norm, and

        (A tau, tau) = |dev tau|^2 / (2 mu) + |tr tau|^2 / (n (2 mu + n lam))
                    >= |tau|^2 / (2 mu + n lam),

    with equality at the constant identity, which is divergence-free and in
    every grid's stress space: the probe returns 1/(2 mu + n lam).
    The stress block of [[M, B^T], [B, 0]]^-1 is Z (Z^T M Z)^-1 Z^T for any
    kernel basis Z, so none is formed.
    """
    return _smallest_saddle_eigenvalue(grid, material, max_dofs, on_stress=True)
