"""Manufactured exact solutions on the unit box with zero boundary displacement.

Every solution is separable and the same in every component, u_i = U(x) =
prod_k phi(x_k), with a one-dimensional factor phi vanishing at 0 and 1.
Writing G_j = dU/dx_j, the gradient rows are identical, (grad u)_{ij} = G_j, so

    eps_ij = (G_i + G_j) / 2,
    sigma_ij = mu (G_i + G_j) + lam (sum_k G_k) delta_ij,
    f_i = mu (d_i G_i + sum_j d_j G_j) + mu sum_{j != i} d_j G_i
          + lam d_i (sum_k G_k).

With P_S the product of phi(x_k) over the axes k not in S, G_j = phi'(x_j) P_j,
d_j G_j = phi''(x_j) P_j and the mixed terms H_ij = d_j G_i = phi'(x_i) phi'(x_j)
P_ij, so in any dimension n >= 2

    f_i = (mu + lam) * (d_i G_i + sum_{j != i} H_ij) + mu * sum_j d_j G_j.

One builder implements this; each factory only names phi, phi' and phi''.
Each field is one formula over per-axis coordinates (``AxisField``): on a
tensor-product block of quadrature points phi, phi' and phi'' run once per
axis coordinate and the products broadcast, and on (m, n) points the same
formula runs on the columns x[:, k].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .material import LameParams


class AxisField:
    """One field of a separable solution, written once over per-axis coordinates.

    ``on_axes(axes)`` takes one coordinate array per axis, arrays that
    broadcast against each other, and returns the values on their broadcast
    shape with the ``rank`` value axes last.  On a tensor-product block of
    points (``quadrature.element_blocks``) each axis holds only its own
    coordinates, so phi, phi' and phi'' run on O(N q) values per axis and
    the products broadcast.  The formula builds each component as one
    contiguous array, so the result is a view with the value axes moved
    last.  Called on points of shape (m, dim), the field applies the same
    formula to the columns x[:, k] and returns a contiguous array.
    """

    def __init__(self, formula: Callable[[list[np.ndarray]], np.ndarray], rank: int):
        self._formula = formula
        self._rank = rank

    def on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        rank = self._rank
        return np.moveaxis(self._formula(list(axes)), range(rank), range(-rank, 0))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.ascontiguousarray(self.on_axes([x[:, k] for k in range(x.shape[1])]))


@dataclass(frozen=True)
class ExactSolution:
    """Evaluators for displacement u, its gradient, stress sigma and load f.

    All evaluators are vectorized over points of shape (m, dim); u and f
    return (m, dim), grad_u and sigma return (m, dim, dim).  The solutions
    here pass ``AxisField``s, which ``quadrature.evaluate`` runs per axis.
    """

    name: str
    dim: int
    material: LameParams
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]


def _separable(
    name: str,
    n: int,
    material: LameParams,
    phi: Callable[[np.ndarray], np.ndarray],
    dphi: Callable[[np.ndarray], np.ndarray],
    ddphi: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ExactSolution:
    """The solution of the module docstring; ``ddphi(x, phi(x))`` gives phi''.

    Every formula takes the list of per-axis coordinates x_k (see AxisField).
    """
    if n < 2:
        raise ValueError(f"manufactured solutions need dimension n >= 2, got {n}")
    mu, lam = material.mu, material.lam

    def rest(values: list, *skip: int) -> np.ndarray:  # P_skip
        return math.prod(v for k, v in enumerate(values) if k not in skip)

    def gradient(x: list) -> list:  # G_j = phi'(x_j) P_j
        p = [phi(xk) for xk in x]
        return [dphi(xj) * rest(p, j) for j, xj in enumerate(x)]

    # each formula returns its value axes first: component i is out[i]
    def u(x: list) -> np.ndarray:
        value = rest([phi(xk) for xk in x])
        return np.broadcast_to(value, (n,) + value.shape)

    def grad_u(x: list) -> np.ndarray:  # identical rows (G_0, ..., G_{n-1})
        g = np.stack(gradient(x))
        return np.broadcast_to(g, (n,) + g.shape)

    def sigma(x: list) -> np.ndarray:  # mu (G_i + G_j) + lam (sum_k G_k) delta_ij
        g = gradient(x)
        trace = sum(g)
        out = np.empty((n, n) + trace.shape)
        for i in range(n):
            for j in range(i, n):
                entry = np.add(g[i], g[j], out=out[i, j])
                entry *= mu
                if i == j:
                    entry += lam * trace
                else:
                    out[j, i] = entry
        return out

    def f(x: list) -> np.ndarray:
        p = [phi(xk) for xk in x]
        d = [dphi(xk) for xk in x]
        own = [ddphi(xj, p[j]) * rest(p, j) for j, xj in enumerate(x)]  # d_j G_j
        mixed = {}
        for i in range(n):
            for j in range(i + 1, n):
                mixed[i, j] = mixed[j, i] = d[i] * d[j] * rest(p, i, j)  # H_ij
        out = np.empty((n,) + own[0].shape)
        for i in range(n):  # d_i G_i + sum_{j != i} H_ij
            np.add(own[i], sum(mixed[i, j] for j in range(n) if j != i), out=out[i])
        out *= mu + lam
        out += mu * sum(own)
        return out

    return ExactSolution(
        name, n, material, AxisField(u, 1), AxisField(grad_u, 2), AxisField(f, 1),
        AxisField(sigma, 2),
    )


def sine_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k sin(pi x_k) in every component."""
    return _separable(
        "sine", n, material,
        lambda x: np.sin(np.pi * x),
        lambda x: np.pi * np.cos(np.pi * x),
        lambda x, p: -np.pi**2 * p,
    )


def polynomial_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k x_k (1 - x_k); all derived fields are polynomial."""
    return _separable(
        "polynomial", n, material,
        lambda x: x * (1.0 - x),
        lambda x: 1.0 - 2.0 * x,
        lambda x, p: np.full_like(x, -2.0),
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
