"""The element table and the local matrices.

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

Every shape function is a product of 1D factors with integer monomial
coefficients, one per axis.  A diagonal entry carries a dual quadratic on
[0, 1] along its own axis (face at 0, face at 1, volume average),

    q0 = 1 - 4 xi + 3 xi^2,   q1 = -2 xi + 3 xi^2,   qv = 6 xi - 6 xi^2,

and a shear entry carries the hats 1 - xi and xi along its two axes, one
per corner of the unit square in (xi_i, xi_j), counterclockwise from the
origin.  ``element_table`` lists, for each local stress DOF, its tensor
entry, its factor on each axis and where its entity sits on the cell; the
local matrices, the weights of the data integrals, the DOF map and the
Schur factors all read it.  Nothing here evaluates a basis at points: the
integrals take the factors axis by axis, and the pointwise bases are the
tests' oracles.  The 1D integrals on [0, 1] behind the global matrices are
module constants: the Grams of the quadratics (``QUAD_GRAM``) and of the
hats (``HAT_GRAM``), the displacement moments (1, xi) of the quadratics'
derivatives (``DQUAD_MOMENTS``) and of the hats (``HAT_MOMENTS``), and the
hats' derivatives against 1 (``DHAT_MEANS``).  M and B are short sums of
Kronecker products of them, and the preconditioner inverses of ``_schur``
read nothing else of the element.
Local displacement DOF b is component b // 2 times the moment xi^(b % 2) of
the component's own axis.

The divergence of every shape function lands in the displacement space:
d(q)/dx_i is linear in x_i, and for a corner function f(xi_i, xi_j) the
component i of the divergence is (df/dxi_j)/h_j which is linear in xi_i
(and vice versa).  This inclusion is what makes the discrete divergence-free
space pointwise divergence free, and ``div_map`` gives every divergence as
displacement coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .material import LameParams

_ONE = (1,)
_T = (0, 1)
# Integer monomial coefficients of the dual quadratics (q0, q1, qv) and of
# the hats 1 - t, t.
_QUADRATICS = ((1, -4, 3), (0, -2, 3), (0, 6, -6))
_HATS = ((1, -1), (0, 1))


class LocalDof(NamedTuple):
    """One local stress degree of freedom and its shape function.

    The shape function is the product over the axes k of ``factors[k]`` at
    xi_k, placed in the tensor entries (i, j) and (j, i) of ``entry``.  Its
    entity lies on the grid plane ``offset[k]`` of the cell (0 lower, 1
    upper) along the axes with ``nodal[k]`` = 1 and spans the cell along the
    others; cells sharing that entity share the coefficient.
    """

    entry: tuple[int, int]
    factors: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    nodal: tuple[int, ...]


def _per_axis(dim: int, values: dict, default):
    return tuple(values.get(k, default) for k in range(dim))


@lru_cache(maxsize=None)
def element_table(dim: int) -> tuple[LocalDof, ...]:
    """The 2 dim^2 + dim local stress DOFs in local order: per axis i the
    faces at xi_i = 0 and 1 and the volume of s_ii, then per pair i < j the
    four corners of s_ij counterclockwise."""

    def dof(entry, polys, offset, nodal):
        return LocalDof(
            entry, _per_axis(dim, polys, _ONE), _per_axis(dim, offset, 0), _per_axis(dim, nodal, 0)
        )

    table = []
    for i in range(dim):
        table += [dof((i, i), {i: _QUADRATICS[side]}, {i: side}, {i: 1}) for side in (0, 1)]
        table.append(dof((i, i), {i: _QUADRATICS[2]}, {}, {}))
    for i, j in combinations(range(dim), 2):
        table += [
            dof((i, j), {i: _HATS[a], j: _HATS[b]}, {i: a, j: b}, {i: 1, j: 1})
            for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))
        ]
    return tuple(table)


def _deriv(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * c for k, c in enumerate(p))[1:] or (0,)


def _derived(factors: tuple[tuple[int, ...], ...], axis: int) -> tuple[tuple[int, ...], ...]:
    """The factors with the one on ``axis`` differentiated."""
    return tuple(_deriv(p) if k == axis else p for k, p in enumerate(factors))


def _entries(entry: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The tensor entries (r, s) a shape function of ``entry`` fills.  Each
    adds the derivative along x_s to component r of the divergence."""
    i, j = entry
    return ((i, j), (j, i)) if i != j else ((i, i),)


# -- factors at points --------------------------------------------------------


def _eval_factors(factors: tuple[tuple[int, ...], ...], xi: np.ndarray):
    """Product over the axes of the 1D factors at ``xi``, each by Horner."""
    value = 1
    for k, p in enumerate(factors):
        if p != _ONE:
            f = p[-1]
            for c in p[-2::-1]:
                f = f * xi[:, k] + c
            value = value * f
    return value


# -- local matrices -----------------------------------------------------------
#
# Every shape function is a product of 1D factors, one per axis, and so is
# every component of its divergence and every displacement function.  An
# entry of a local matrix is therefore the element volume times a short sum,
# over the tensor entries or vector components two functions share, of
# products of 1D integrals on [0, 1].  Those are exact rationals
# (int t^k dt = 1/(k+1)), rounded once, so a structural zero -- the zero mean
# of a face quadratic, a moment a derivative does not see, two different
# components -- is an exact 0.0 for every spacing and material.


@lru_cache(maxsize=None)
def _integral(p: tuple[int, ...], q: tuple[int, ...]) -> float:
    """int_0^1 p(t) q(t) dt of two integer polynomials, exact up to one rounding."""
    return float(
        sum(Fraction(a * b, i + j + 1) for i, a in enumerate(p) for j, b in enumerate(q))
    )


def _integrals(rows, cols) -> np.ndarray:
    """The read-only matrix of ``_integral`` over two lists of polynomials."""
    out = np.array([[_integral(p, q) for q in cols] for p in rows])
    out.setflags(write=False)
    return out


# The 1D reference matrices on [0, 1] of which M, B and both preconditioner
# inverses are sums of Kronecker products; rows and columns in the order of
# the dual quadratics (q0, q1, qv), the hats (1 - t, t) and the displacement
# moments (1, t).  On every other axis both factors are 1, of integral 1.
QUAD_GRAM = _integrals(_QUADRATICS, _QUADRATICS)
HAT_GRAM = _integrals(_HATS, _HATS)
DQUAD_MOMENTS = _integrals((_ONE, _T), [_deriv(q) for q in _QUADRATICS])
HAT_MOMENTS = _integrals((_ONE, _T), _HATS)
# a hat is differentiated only across a displacement component's axis,
# where that component is constant: the difference (-1, 1)
DHAT_MEANS = _integrals((_ONE,), [_deriv(hat) for hat in _HATS])


def _stress_terms(h: np.ndarray):
    """The shape functions on a cell of edge lengths h as sums of products of 1D factors.

    Returns three lists with one entry per shape function, each a list of
    (key, scale, factors) terms: the tensor entries (key (i, j)), the trace
    (key None) and the divergence components (key i, scale the 1/h of the
    differentiated axis).
    """
    value, trace, div = [], [], []
    for dof in element_table(h.size):
        f = dof.factors
        entries = _entries(dof.entry)
        value.append([(e, 1.0, f) for e in entries])
        trace.append([(None, 1.0, f)] if len(entries) == 1 else [])
        div.append([(r, 1.0 / h[s], _derived(f, s)) for r, s in entries])
    return value, trace, div


def _disp_terms(dim: int):
    return [
        [(b // 2, 1.0, _per_axis(dim, {b // 2: (_ONE, _T)[b % 2]}, _ONE))]
        for b in range(2 * dim)
    ]


def _inner(rows, cols) -> np.ndarray:
    """Unit-volume inner products of two families of functions given as terms, read-only."""
    out = np.zeros((len(rows), len(cols)))
    for a, terms_a in enumerate(rows):
        for b, terms_b in enumerate(cols):
            out[a, b] = sum(
                sa * sb * math.prod(map(_integral, fa, fb))
                for ka, sa, fa in terms_a
                for kb, sb, fb in terms_b
                if ka == kb
            )
    out.setflags(write=False)
    return out


def _positive(spacing: Sequence[float]) -> np.ndarray:
    """The cell edge lengths as an array; reject nonpositive and infinite ones."""
    h = np.asarray(spacing, dtype=float)
    if h.ndim != 1 or not ((h > 0) & (h < np.inf)).all():
        raise ValueError(f"cell spacing must be a vector of finite positive lengths, got {spacing}")
    return h


@lru_cache(maxsize=None)
def _unit_cell(dim: int):
    """The stress and displacement shape functions as terms, the Frobenius Gram
    of the stress basis, the Gram of its traces and the displacement mass, all
    on a cell of unit volume: values, unlike derivatives, do not scale with
    the edge lengths."""
    value, trace, _ = _stress_terms(np.ones(dim))
    psi = _disp_terms(dim)
    return value, psi, _inner(value, value), _inner(trace, trace), _inner(psi, psi)


def local_compliance_matrix(spacing: Sequence[float], material: LameParams) -> np.ndarray:
    """(A phi_a, phi_b) over a cell of edge lengths ``spacing``; symmetric positive definite.

    A s = (s - lam / (2 mu + n lam) tr(s) I) / (2 mu), so the matrix is the
    Frobenius Gram minus a multiple of the Gram of the traces.
    """
    h = _positive(spacing)
    _, _, value, trace, _ = _unit_cell(h.size)
    coupling = material.trace_coupling(h.size)
    return (float(np.prod(h)) / (2.0 * material.mu)) * (value - coupling * trace)


def local_div_matrix(spacing: Sequence[float]) -> np.ndarray:
    """(div phi_a, psi_b) over the cell, shape (2*dim, nfun); exact."""
    h = _positive(spacing)
    _, _, div = _stress_terms(h)
    return float(np.prod(h)) * _inner(_disp_terms(h.size), div)


def stress_l2_gram(spacing: Sequence[float]) -> np.ndarray:
    """(phi_a, phi_b) Frobenius Gram of the stress basis; exact."""
    h = _positive(spacing)
    return float(np.prod(h)) * _unit_cell(h.size)[2]


def disp_mass(spacing: Sequence[float]) -> np.ndarray:
    """(psi_a, psi_b) Gram of the displacement basis; exact."""
    h = _positive(spacing)
    return float(np.prod(h)) * _unit_cell(h.size)[4]


def div_map(spacing: Sequence[float]) -> np.ndarray:
    """The displacement coefficients of div phi_a, shape (2*dim, nfun).

    The divergence lies in the displacement space, so it is its own L2
    projection: disp_mass^-1 times the divergence matrix.
    """
    return scipy.linalg.solve(disp_mass(spacing), local_div_matrix(spacing), assume_a="pos")
