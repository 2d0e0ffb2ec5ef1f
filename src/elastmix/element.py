"""Reference-element bases and local matrices for the stress/displacement pair.

On an element K the discrete spaces are

* stress: symmetric tensors with diagonal entries s_ii in span{1, x_i, x_i^2}
  and off-diagonal entries s_ij in span{1, x_i, x_j, x_i x_j};
* displacement: vectors with component v_i in span{1, x_i}.

The stress degrees of freedom are, per diagonal component i, the averages
over the two faces of K perpendicular to x_i plus the volume average, and,
per off-diagonal pair (i, j), the averages over the four (n-2)-subfaces of K
perpendicular to the (x_i, x_j) plane (point values at the vertices in 2D).
Shape functions here are dual to those functionals in scaled coordinates
xi = (x - lo) / h, so gluing elements is pure coefficient sharing.

Dual quadratics on [0, 1] (face at 0, face at 1, volume average):

    q0 = 1 - 4 xi + 3 xi^2,   q1 = -2 xi + 3 xi^2,   qv = 6 xi - 6 xi^2,

and the off-diagonal corner functions are the bilinear nodal basis on the
unit square in (xi_i, xi_j), numbered counterclockwise from the origin:
corner 0 -> (0,0), 1 -> (1,0), 2 -> (1,1), 3 -> (0,1).

The divergence of every shape function lands in the displacement space:
d(q)/dx_i is linear in x_i, and for a corner function f(xi_i, xi_j) the
component i of the divergence is (df/dxi_j)/h_j which is linear in xi_i
(and vice versa).  This inclusion is what makes the discrete divergence-free
space pointwise divergence free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .material import LameParams
from .quadrature import tensor_rule

# Points per axis for degree-of-freedom functionals of smooth fields.
DOF_QPTS = 5

# Monomial coefficients [1, xi, xi^2] of the dual quadratics (q0, q1, qv).
_Q_DIAG = np.array(
    [
        [1.0, -4.0, 3.0],
        [0.0, -2.0, 3.0],
        [0.0, 6.0, -6.0],
    ]
)

# Corner coordinates of the bilinear nodal functions, counterclockwise.
CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))


class StressDof(NamedTuple):
    """Tag of one local stress degree of freedom.

    kind is "diag_face", "diag_volume" or "shear_corner"; component is (i, i)
    or (i, j) with i < j; entity is the face side (0 lower, 1 upper), 0 for
    the volume, or the corner number 0..3.
    """

    kind: str
    component: tuple[int, int]
    entity: int


class DispDof(NamedTuple):
    """Tag of one local displacement degree of freedom: component and moment.

    moment 0 is the constant, moment 1 the linear term in the component's axis.
    """

    component: int
    moment: int


@lru_cache(maxsize=None)
def stress_dof_tags(dim: int) -> tuple[StressDof, ...]:
    tags: list[StressDof] = []
    for i in range(dim):
        tags.append(StressDof("diag_face", (i, i), 0))
        tags.append(StressDof("diag_face", (i, i), 1))
        tags.append(StressDof("diag_volume", (i, i), 0))
    for i, j in combinations(range(dim), 2):
        for k in range(4):
            tags.append(StressDof("shear_corner", (i, j), k))
    return tuple(tags)


@lru_cache(maxsize=None)
def disp_dof_tags(dim: int) -> tuple[DispDof, ...]:
    return tuple(DispDof(i, m) for i in range(dim) for m in range(2))


def n_stress_dofs(dim: int) -> int:
    """2 dim^2 + dim: three per diagonal component, four per off-diagonal pair."""
    return 2 * dim * dim + dim


def n_disp_dofs(dim: int) -> int:
    return 2 * dim


# -- scalar building blocks ---------------------------------------------------


def _diag_row(tag: StressDof) -> int:
    if tag.kind == "diag_face":
        return tag.entity
    return 2


def _p2_value(row: int, t: np.ndarray) -> np.ndarray:
    c = _Q_DIAG[row]
    return c[0] + t * (c[1] + t * c[2])


def _p2_deriv(row: int, t: np.ndarray) -> np.ndarray:
    c = _Q_DIAG[row]
    return c[1] + 2.0 * c[2] * t


def _corner_value(k: int, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    a, b = CORNERS[k]
    return (s if a else 1.0 - s) * (t if b else 1.0 - t)


def _corner_grad(k: int, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = CORNERS[k]
    ds = (1.0 if a else -1.0) * (t if b else 1.0 - t)
    dt = (s if a else 1.0 - s) * (1.0 if b else -1.0)
    return ds, dt


# -- basis evaluation ---------------------------------------------------------


def eval_stress_basis(dim: int, xi: np.ndarray) -> np.ndarray:
    """Shape-function tensors at reference points, shape (nfun, npts, dim, dim)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    tags = stress_dof_tags(dim)
    out = np.zeros((len(tags), xi.shape[0], dim, dim))
    for a, tag in enumerate(tags):
        if tag.kind == "shear_corner":
            i, j = tag.component
            vals = _corner_value(tag.entity, xi[:, i], xi[:, j])
            out[a, :, i, j] = vals
            out[a, :, j, i] = vals
        else:
            i = tag.component[0]
            out[a, :, i, i] = _p2_value(_diag_row(tag), xi[:, i])
    return out


def eval_stress_basis_div(dim: int, xi: np.ndarray, spacing: Sequence[float]) -> np.ndarray:
    """Physical divergence of each shape function, shape (nfun, npts, dim).

    ``spacing`` holds the element edge lengths; derivatives in scaled
    coordinates pick up a 1/h factor per axis.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    h = np.asarray(spacing, dtype=float)
    tags = stress_dof_tags(dim)
    out = np.zeros((len(tags), xi.shape[0], dim))
    for a, tag in enumerate(tags):
        if tag.kind == "shear_corner":
            i, j = tag.component
            ds, dt = _corner_grad(tag.entity, xi[:, i], xi[:, j])
            out[a, :, i] = dt / h[j]
            out[a, :, j] = ds / h[i]
        else:
            i = tag.component[0]
            out[a, :, i] = _p2_deriv(_diag_row(tag), xi[:, i]) / h[i]
    return out


def eval_disp_basis(dim: int, xi: np.ndarray) -> np.ndarray:
    """Displacement basis vectors at reference points, shape (2*dim, npts, dim)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    tags = disp_dof_tags(dim)
    out = np.zeros((len(tags), xi.shape[0], dim))
    for b, tag in enumerate(tags):
        out[b, :, tag.component] = 1.0 if tag.moment == 0 else xi[:, tag.component]
    return out


# -- element boxes ------------------------------------------------------------


def box_arrays(box) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize an element box to (lo, hi, spacing) arrays; reject degenerate ones."""
    lo, hi = box
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("element box must be a (lo, hi) pair of equal-length vectors")
    h = hi - lo
    if (h <= 0).any():
        raise ValueError(f"degenerate element box: spacing {h}")
    return lo, hi, h


# -- degrees of freedom ------------------------------------------------------


def stress_dofs(field: Callable[[np.ndarray], np.ndarray], box, npts: int = DOF_QPTS) -> np.ndarray:
    """Local stress coefficients of a smooth symmetric-tensor field on ``box``.

    ``field`` maps points of shape (m, dim) to tensors of shape (m, dim, dim).
    Entity averages use ``npts``-point Gauss per free axis; 2D corner
    functionals are point evaluations.
    """
    lo, hi, h = box_arrays(box)
    dim = lo.size
    coeffs = np.zeros(n_stress_dofs(dim))
    for a, tag in enumerate(stress_dof_tags(dim)):
        if tag.kind == "diag_face":
            i = tag.component[0]
            free = [k for k in range(dim) if k != i]
            pts, w = tensor_rule(npts, dim - 1)
            x = np.empty((pts.shape[0], dim))
            x[:, free] = lo[free] + pts * h[free]
            x[:, i] = lo[i] + tag.entity * h[i]
            coeffs[a] = w @ field(x)[:, i, i]
        elif tag.kind == "diag_volume":
            i = tag.component[0]
            pts, w = tensor_rule(npts, dim)
            x = lo + pts * h
            coeffs[a] = w @ field(x)[:, i, i]
        else:
            i, j = tag.component
            ci, cj = CORNERS[tag.entity]
            free = [k for k in range(dim) if k not in (i, j)]
            pts, w = tensor_rule(npts, dim - 2)
            x = np.empty((pts.shape[0], dim))
            x[:, free] = lo[free] + pts * h[free]
            x[:, i] = lo[i] + ci * h[i]
            x[:, j] = lo[j] + cj * h[j]
            coeffs[a] = w @ field(x)[:, i, j]
    return coeffs


@dataclass(frozen=True)
class LocalStressPolynomial:
    """A member of the local stress space on one element, given by coefficients."""

    lo: np.ndarray
    hi: np.ndarray
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.lo.size

    def _xi(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.lo) / (self.hi - self.lo)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        basis = eval_stress_basis(self.dim, self._xi(x))
        return np.einsum("a,amij->mij", self.coeffs, basis)

    def divergence(self, x: np.ndarray) -> np.ndarray:
        div = eval_stress_basis_div(self.dim, self._xi(x), self.hi - self.lo)
        return np.einsum("a,ami->mi", self.coeffs, div)


def local_from_dofs(coeffs: Sequence[float], box) -> LocalStressPolynomial:
    """Rebuild the local stress polynomial whose DOFs equal ``coeffs``."""
    lo, hi, _ = box_arrays(box)
    dim = lo.size
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n_stress_dofs(dim),):
        raise ValueError(
            f"expected {n_stress_dofs(dim)} coefficients for dim {dim}, "
            f"got shape {coeffs.shape}"
        )
    return LocalStressPolynomial(lo, hi, coeffs)


# -- local matrices -----------------------------------------------------------
#
# Every shape function is a product of 1D factors, one per axis, and so is
# every component of its divergence and every displacement function.  An
# entry of a local matrix is therefore the element volume times a short sum,
# over the tensor entries or vector components two functions share, of
# products of 1D integrals on [0, 1].  Those are exact rationals
# (int t^k dt = 1/(k+1)), rounded once, so a structural zero -- the zero mean
# of a face quadratic, a moment a derivative does not see, two different
# components -- is an exact 0.0 for every box and material.

_ONE = (1,)
_T = (0, 1)
# Integer monomial coefficients of the dual quadratics and the hats 1 - t, t.
_QUADRATICS = tuple(tuple(int(c) for c in row) for row in _Q_DIAG)
_HATS = ((1, -1), (0, 1))


def _deriv(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * c for k, c in enumerate(p))[1:] or (0,)


@lru_cache(maxsize=None)
def _integral(p: tuple[int, ...], q: tuple[int, ...]) -> float:
    """int_0^1 p(t) q(t) dt of two integer polynomials, exact up to one rounding."""
    return float(
        sum(Fraction(a * b, i + j + 1) for i, a in enumerate(p) for j, b in enumerate(q))
    )


def _factors(dim: int, polys: dict[int, tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """One 1D factor per axis: ``polys`` on the axes it names, 1 on the others."""
    return tuple(polys.get(k, _ONE) for k in range(dim))


def _stress_terms(dim: int, h: np.ndarray):
    """The shape functions as sums of products of 1D factors.

    Returns three lists with one entry per shape function, each a list of
    (key, scale, factors) terms: the tensor entries (key (i, j)), the trace
    (key None) and the divergence components (key i, scale the 1/h of the
    differentiated axis).
    """
    value, trace, div = [], [], []
    for tag in stress_dof_tags(dim):
        if tag.kind == "shear_corner":
            i, j = tag.component
            a, b = (_HATS[c] for c in CORNERS[tag.entity])
            f = _factors(dim, {i: a, j: b})
            value.append([((i, j), 1.0, f), ((j, i), 1.0, f)])
            trace.append([])
            div.append(
                [
                    (i, 1.0 / h[j], _factors(dim, {i: a, j: _deriv(b)})),
                    (j, 1.0 / h[i], _factors(dim, {i: _deriv(a), j: b})),
                ]
            )
        else:
            i = tag.component[0]
            q = _QUADRATICS[_diag_row(tag)]
            f = _factors(dim, {i: q})
            value.append([(tag.component, 1.0, f)])
            trace.append([(None, 1.0, f)])
            div.append([(i, 1.0 / h[i], _factors(dim, {i: _deriv(q)}))])
    return value, trace, div


def _disp_terms(dim: int):
    return [[(c, 1.0, _factors(dim, {c: (_ONE, _T)[m]}))] for c, m in disp_dof_tags(dim)]


def _inner(rows, cols) -> np.ndarray:
    """Unit-volume inner products of two families of functions given as terms."""
    out = np.zeros((len(rows), len(cols)))
    for a, terms_a in enumerate(rows):
        for b, terms_b in enumerate(cols):
            out[a, b] = sum(
                sa * sb * math.prod(map(_integral, fa, fb))
                for ka, sa, fa in terms_a
                for kb, sb, fb in terms_b
                if ka == kb
            )
    return out


def local_compliance_matrix(box, material: LameParams) -> np.ndarray:
    """(A phi_a, phi_b) over the element; symmetric positive definite.

    A s = (s - lam / (2 mu + n lam) tr(s) I) / (2 mu), so the matrix is the
    Frobenius Gram minus a multiple of the Gram of the traces.
    """
    lo, hi, h = box_arrays(box)
    dim = lo.size
    value, trace, _ = _stress_terms(dim, h)
    coupling = material.lam / material.trace_factor(dim)
    mat = _inner(value, value) - coupling * _inner(trace, trace)
    return (float(np.prod(h)) / (2.0 * material.mu)) * mat


def local_div_matrix(box) -> np.ndarray:
    """(div phi_a, psi_b) over the element, shape (2*dim, nfun); exact."""
    lo, hi, h = box_arrays(box)
    _, _, div = _stress_terms(lo.size, h)
    return float(np.prod(h)) * _inner(_disp_terms(lo.size), div)


def stress_l2_gram(box) -> np.ndarray:
    """(phi_a, phi_b) Frobenius Gram of the stress basis; exact."""
    lo, hi, h = box_arrays(box)
    value, _, _ = _stress_terms(lo.size, h)
    return float(np.prod(h)) * _inner(value, value)


def stress_divdiv_gram(box) -> np.ndarray:
    """(div phi_a, div phi_b) Gram of the stress basis; exact."""
    lo, hi, h = box_arrays(box)
    _, _, div = _stress_terms(lo.size, h)
    return float(np.prod(h)) * _inner(div, div)


def disp_mass(box) -> np.ndarray:
    """(psi_a, psi_b) Gram of the displacement basis; exact."""
    lo, hi, h = box_arrays(box)
    psi = _disp_terms(lo.size)
    return float(np.prod(h)) * _inner(psi, psi)
