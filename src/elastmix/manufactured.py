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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .material import LameParams


@dataclass(frozen=True)
class ExactSolution:
    """Evaluators for displacement u, its gradient, stress sigma and load f.

    All evaluators are vectorized over points of shape (m, dim); u and f
    return (m, dim), grad_u and sigma return (m, dim, dim).
    """

    name: str
    dim: int
    material: LameParams
    u: Callable[[np.ndarray], np.ndarray]
    grad_u: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]

    def strain(self, x: np.ndarray) -> np.ndarray:
        g = self.grad_u(x)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """C eps = mu (g + g^T) + lam tr(g) I with g = grad u.

        The strain of a gradient is symmetric by construction, so this skips
        the symmetry check of ``apply_stiffness`` and gives the same values.
        """
        g = self.grad_u(x)
        out = self.material.mu * (g + np.swapaxes(g, -1, -2))
        diag = np.arange(self.dim)
        out[..., diag, diag] += self.material.lam * np.trace(g, axis1=-2, axis2=-1)[..., None]
        return out


def _separable(
    name: str,
    n: int,
    material: LameParams,
    phi: Callable[[np.ndarray], np.ndarray],
    dphi: Callable[[np.ndarray], np.ndarray],
    ddphi: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ExactSolution:
    """The solution of the module docstring; ``ddphi(x, phi(x))`` gives phi''."""
    if n < 2:
        raise ValueError(f"manufactured solutions need dimension n >= 2, got {n}")

    def rest(p: np.ndarray, *skip: int) -> np.ndarray:  # P_skip
        return math.prod(p[:, k] for k in range(n) if k not in skip)

    def rest_columns(p: np.ndarray) -> np.ndarray:  # P_j in column j
        return np.stack([rest(p, j) for j in range(n)], axis=-1)

    def u(x: np.ndarray) -> np.ndarray:
        return np.repeat(rest(phi(np.atleast_2d(x)))[:, None], n, axis=-1)

    def grad_u(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        g = dphi(x) * rest_columns(phi(x))
        return np.repeat(g[:, None, :], n, axis=1)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        p, d = phi(x), dphi(x)
        own = rest_columns(p)
        own *= ddphi(x, p)  # d_j G_j
        out = own + np.stack(  # d_i G_i + sum_{j != i} H_ij
            [sum(d[:, i] * d[:, j] * rest(p, i, j) for j in range(n) if j != i) for i in range(n)],
            axis=-1,
        )
        out *= material.mu + material.lam
        out += material.mu * sum(own.T)[:, None]
        return out

    return ExactSolution(name, n, material, u, grad_u, f)


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
