"""Manufactured exact solutions on the unit box with zero boundary displacement.

Every solution is separable and the same in every component, u_i = U(x) =
prod_k phi(x_k), with a one-dimensional factor phi vanishing at 0 and 1.
The builder writes only u and derives the other fields from the two
equations of the Hellinger-Reissner system, A sigma = eps(u) and
div sigma = f:

    sigma = mu (grad u^T + grad u) + lam (div u) I,
    f = (mu + lam) grad(div u) + mu Laplace(u).

Each field is an ``AxisField``: per component, a short list of terms, each
a scale times a sum of products of phi, phi' or phi'' along every axis.  A
derivative along axis k raises the order of every product on that axis
(``_d``), and a coefficient times a sum of such derivatives is one term
(``_times``).  Each factory only names phi, phi' and phi''.  The data
integrals take these terms axis by axis (``quadrature._cell_moments``); on
points the same terms are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .material import LameParams

# A product of 1D factors: the derivative order of phi along each axis.
Orders = tuple[int, ...]
# One term of a component: its scale and the products it multiplies.
Term = tuple[float, tuple[Orders, ...]]


class AxisField:
    """One field of a separable solution, as per-component sums of products of 1D factors.

    ``factors`` are the 1D functions phi, phi' and phi''; ``shape`` is the
    value shape, (n,) or (n, n); ``terms`` maps every component index to its
    terms (scale, products), and the component is the sum over its terms of
    scale * sum_p prod_k factors[p[k]](x_k).  A term groups the products of
    one scale, so sigma evaluates as mu (d_i u_j + d_j u_i) + lam (div u)
    delta_ij, bit for bit the stiffness applied to the strain of grad_u.

    ``on_axes(axes)`` takes one coordinate array per axis, arrays that
    broadcast against each other, and returns the values on their broadcast
    shape with the value axes last; each factor runs once per axis and
    each product once.  Called on points of shape (m, dim), the field does
    the same on the columns x[:, k].
    """

    def __init__(
        self,
        factors: Sequence[Callable[[np.ndarray], np.ndarray]],
        shape: tuple[int, ...],
        terms: dict[tuple[int, ...], tuple[Term, ...]],
    ):
        self.factors = tuple(factors)
        self.shape = shape
        self.terms = terms

    def on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        @cache
        def factor(k: int, order: int) -> np.ndarray:
            return self.factors[order](axes[k])

        @cache
        def evaluate(orders: Orders) -> np.ndarray:
            return math.prod(factor(k, order) for k, order in enumerate(orders))

        out = np.empty(np.broadcast_shapes(*(np.shape(x) for x in axes)) + self.shape)
        for index, terms in self.terms.items():
            out[(Ellipsis,) + index] = sum(scale * sum(map(evaluate, ps)) for scale, ps in terms)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return self.on_axes([x[:, k] for k in range(x.shape[1])])


@dataclass(frozen=True)
class ExactSolution:
    """Evaluators for displacement u, its gradient, stress sigma and load f.

    All evaluators are vectorized over points of shape (m, dim); u and f
    return (m, dim), grad_u and sigma return (m, dim, dim).  The solutions
    here pass ``AxisField``s, whose integrals ``quadrature._cell_moments``
    takes axis by axis.
    """

    name: str
    dim: int
    material: LameParams
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]


def _d(terms: tuple[Term, ...], k: int) -> tuple[Term, ...]:
    """The derivative along axis k: every product one order higher there."""
    return tuple((s, tuple(p[:k] + (p[k] + 1,) + p[k + 1 :] for p in ps)) for s, ps in terms)


def _times(c: float, *parts: tuple[Term, ...]) -> Term:
    """c times the sum of ``parts``, whose terms have scale 1, as one term."""
    return c, tuple(p for part in parts for _, products in part for p in products)


def _separable(
    name: str,
    n: int,
    material: LameParams,
    phi: Callable[[np.ndarray], np.ndarray],
    dphi: Callable[[np.ndarray], np.ndarray],
    ddphi: Callable[[np.ndarray], np.ndarray],
) -> ExactSolution:
    """The solution of the module docstring, from phi, phi' and phi''."""
    if n < 2:
        raise ValueError(f"manufactured solutions need dimension n >= 2, got {n}")
    mu, lam = material.mu, material.lam
    pairs = list(product(range(n), repeat=2))
    u = {(i,): ((1.0, ((0,) * n,)),) for i in range(n)}
    grad_u = {(i, j): _d(u[i,], j) for i, j in pairs}  # d_j u_i
    div = [grad_u[k, k] for k in range(n)]
    sigma = {
        (i, j): (_times(mu, grad_u[j, i], grad_u[i, j]),) + ((_times(lam, *div),) if i == j else ())
        for i, j in pairs
    }
    f = {
        (i,): (  # d_i div u, with d_i d_i u_i first, and Laplace u_i
            _times(mu + lam, *(_d(div[k], i) for k in sorted(range(n), key=lambda k: k != i))),
            _times(mu, *(_d(grad_u[i, j], j) for j in range(n))),
        )
        for i in range(n)
    }
    factors = (phi, dphi, ddphi)
    return ExactSolution(
        name, n, material, AxisField(factors, (n,), u), AxisField(factors, (n, n), grad_u),
        AxisField(factors, (n,), f), AxisField(factors, (n, n), sigma),
    )


def sine_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k sin(pi x_k) in every component."""
    return _separable(
        "sine", n, material,
        lambda x: np.sin(np.pi * x),
        lambda x: np.pi * np.cos(np.pi * x),
        lambda x: -np.pi**2 * np.sin(np.pi * x),
    )


def polynomial_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k x_k (1 - x_k); all derived fields are polynomial."""
    return _separable(
        "polynomial", n, material,
        lambda x: x * (1.0 - x),
        lambda x: 1.0 - 2.0 * x,
        lambda x: np.full_like(x, -2.0),
    )


SOLUTIONS = {
    "sine": sine_solution,
    "polynomial": polynomial_solution,
}


def solution_by_name(name: str, n: int, material: LameParams) -> ExactSolution:
    try:
        factory = SOLUTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown solution {name!r}; available: {sorted(SOLUTIONS)}"
        ) from None
    return factory(n, material)
