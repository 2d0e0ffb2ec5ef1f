"""Error norms, superclose norms, rate fitting and stability probes.

Continuous-versus-discrete errors are measured by elementwise tensor Gauss
quadrature of the squared pointwise differences; the divergence of the exact
stress is taken from the load evaluator, which is exact for manufactured
solutions and avoids differentiating the stress.  Discrete-versus-discrete
(superclose) norms are quadratic forms of coefficient differences in the
local Gram matrices, hence carry no quadrature error at all.

The stability probes are sparse shift-invert eigensolves: the inf-sup
constant is the square root of the smallest eigenvalue of B S^-1 B^T against
the displacement mass matrix, with S the H(div) Gram of the stress space,
and the kernel ellipticity ratio is the smallest Rayleigh quotient of the
compliance form over the kernel of B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    DofMap,
    assemble,
    assemble_disp_mass,
    assemble_stress_gram,
    build_dof_map,
)
from .element import disp_mass, stress_divdiv_gram, stress_l2_gram
from .grid import TensorGrid
from .interpolate import DisplacementField, StressField
from .manufactured import ExactSolution
from .material import LameParams
from .quadrature import element_blocks, tensor_rule


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


def error_norms(
    grid: TensorGrid,
    exact: ExactSolution,
    sigma_h: StressField,
    u_h: DisplacementField,
    npts: int = 5,
) -> ErrorRecord:
    """L2 and H(div) errors of the stress and L2 error of the displacement."""
    if sigma_h.dofs.grid is not grid or u_h.dofs.grid is not grid:
        raise ValueError("fields do not live on the given grid")
    dim = grid.dim
    pts, w = tensor_rule(npts, dim)
    vol = grid.element_volume
    sigma_l2_sq = sigma_div_sq = u_l2_sq = 0.0
    for block, x in element_blocks(grid, pts):
        flat = x.reshape(-1, dim)
        sig_diff = exact.sigma(flat).reshape(x.shape + (dim,)) - sigma_h.eval_elements(pts, block)
        sigma_l2_sq += float(np.einsum("eqij,eqij,q->", sig_diff, sig_diff, w))
        div_diff = exact.f(flat).reshape(x.shape) - sigma_h.div_elements(pts, block)
        sigma_div_sq += float(np.einsum("eqi,eqi,q->", div_diff, div_diff, w))
        u_diff = exact.u(flat).reshape(x.shape) - u_h.eval_elements(pts, block)
        u_l2_sq += float(np.einsum("eqi,eqi,q->", u_diff, u_diff, w))
    sigma_l2_sq *= vol
    sigma_div_sq *= vol
    u_l2_sq *= vol

    return ErrorRecord(
        h=grid.max_spacing,
        stress_dofs=sigma_h.dofs.n_stress,
        disp_dofs=u_h.dofs.n_disp,
        sigma_l2=np.sqrt(sigma_l2_sq),
        sigma_div=np.sqrt(sigma_div_sq),
        sigma_hdiv=np.sqrt(sigma_l2_sq + sigma_div_sq),
        u_l2=np.sqrt(u_l2_sq),
    )


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
    box = grid.element_box((0,) * grid.dim)

    d_sigma = (sigma_h.coeffs - pi_sigma.coeffs)[dofs.element_stress]
    l2_sq = float(np.einsum("el,lk,ek->", d_sigma, stress_l2_gram(box), d_sigma))
    div_sq = float(np.einsum("el,lk,ek->", d_sigma, stress_divdiv_gram(box), d_sigma))

    d_u = (u_h.coeffs - ph_u.coeffs)[dofs.element_disp]
    u_sq = float(np.einsum("el,lk,ek->", d_u, disp_mass(box), d_u))

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


def _closure_saddle(a: sp.csr_matrix, b: sp.csr_matrix, dofs: DofMap) -> sp.csc_matrix:
    """[[a, b^T], [b, 0]] stored on the element closure of its blocks.

    splu orders the columns by COLAMD on the stored pattern.  On the exact
    pattern of M, B and the Grams that order fills the LU far more than on
    the closure pattern, where every pair of unknowns sharing a cell is
    stored (inf-sup saddle matrix at 2D N=32: nnz(L+U) 5.78 M against
    1.00 M).  So every closure position of the a, b and b^T blocks is
    carried as an explicit zero; COO -> CSC sums duplicates and keeps zeros.
    """
    s, u = dofs.element_stress, dofs.element_disp + dofs.n_stress
    k = sp.bmat([[a, b.T], [b, None]], format="coo")
    rows, cols = [k.row], [k.col]
    for r, c in ((s, s), (u, s), (s, u)):
        pairs = (r.shape[0], r.shape[1], c.shape[1])
        rows.append(np.broadcast_to(r[:, :, None], pairs).ravel())
        cols.append(np.broadcast_to(c[:, None, :], pairs).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = np.zeros(rows.size)
    data[: k.nnz] = k.data
    return sp.coo_matrix((data, (rows, cols)), shape=k.shape).tocsc()


def _smallest_saddle_eigenvalue(
    grid: TensorGrid, material: LameParams, max_dofs: int, on_stress: bool
) -> float:
    """Smallest lam of K x = lam D x, K = [[A, B^T], [B, 0]], D nonzero on one block.

    Stress block: A = M, D = H(div) Gram S.  Displacement block: A = S, D =
    displacement mass.  x -> +-D [K^-1 D x]_block has largest eigenvalue 1/lam
    in the metric D; Lanczos from a seeded start repeats it to the last bit.
    """
    dofs = build_dof_map(grid)
    if dofs.n_total > max_dofs:
        raise ValueError(f"probe has {dofs.n_total} unknowns, over the budget of {max_dofs}")
    system = assemble(grid, material, dofs)
    g_l2, g_div = assemble_stress_gram(grid, dofs)
    if on_stress:
        a, d, block, sign = system.M, g_l2 + g_div, slice(0, dofs.n_stress), 1.0
    else:
        d, block, sign = assemble_disp_mass(grid, dofs), slice(dofs.n_stress, None), -1.0
        a = g_l2 + g_div
    saddle = spla.splu(_closure_saddle(a, system.B, dofs))
    rhs = np.zeros(dofs.n_total)

    def apply(x):
        rhs[block] = d @ x
        return sign * (d @ saddle.solve(rhs)[block])

    v0 = np.random.default_rng(0).standard_normal(d.shape[0])
    op = spla.LinearOperator(d.shape, matvec=apply, dtype=float)
    nu = spla.eigsh(op, k=1, M=d, which="LA", v0=v0, tol=1e-13, return_eigenvectors=False)
    return float(1.0 / nu[0])


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
    the denominator coincides with the L2 norm and the ratio is bounded below
    by the smallest eigenvalue of the compliance tensor, 1/(2 mu + n lam).
    The stress block of [[M, B^T], [B, 0]]^-1 is Z (Z^T M Z)^-1 Z^T for any
    kernel basis Z, so none is formed.
    """
    return _smallest_saddle_eigenvalue(grid, material, max_dofs, on_stress=True)
