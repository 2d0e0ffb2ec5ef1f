"""Manufactured exact solutions on the unit box with zero boundary displacement.

Both families use the same displacement in every component, u_i = U(x) with
U a product of one-dimensional factors vanishing at 0 and 1.  Writing
G_j = dU/dx_j, the gradient rows are identical, (grad u)_{ij} = G_j, so

    eps_ij = (G_i + G_j) / 2,
    sigma_ij = mu (G_i + G_j) + lam (sum_k G_k) delta_ij,
    f_i = mu (d_i G_i + sum_j d_j G_j) + mu sum_{j != i} d_j G_i
          + lam d_i (sum_k G_k).

With second derivatives d_i G_i = U'' along axis i and the mixed terms
H_ij = d_j G_i (symmetric), this collapses to

    f_i = (mu + lam) * (d_i G_i + sum_{j != i} H_ij) + mu * sum_j d_j G_j,

which is what the closed forms below implement; tests cross-check them with
central finite differences of the stress.
"""

from __future__ import annotations

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


def _check_dim(n: int) -> None:
    if n not in (2, 3):
        raise ValueError(f"manufactured solutions support dimensions 2 and 3, got {n}")


def _prod_except(factors: np.ndarray, skip: tuple[int, ...]) -> np.ndarray:
    """Product of per-axis factor columns, omitting the listed axes."""
    keep = [k for k in range(factors.shape[-1]) if k not in skip]
    return np.prod(factors[..., keep], axis=-1)


def sine_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k sin(pi x_k) in every component."""
    _check_dim(n)
    mu, lam = material.mu, material.lam
    pi = np.pi

    def u(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.repeat(np.prod(np.sin(pi * x), axis=-1)[:, None], n, axis=-1)

    def grad_u(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = np.sin(pi * x)
        c = np.cos(pi * x)
        g = np.empty((x.shape[0], n))
        for j in range(n):
            g[:, j] = pi * c[:, j] * _prod_except(s, (j,))
        return np.repeat(g[:, None, :], n, axis=1)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = np.sin(pi * x)
        c = np.cos(pi * x)
        big_s = np.prod(s, axis=-1)
        out = np.empty((x.shape[0], n))
        for i in range(n):
            mixed = np.zeros(x.shape[0])
            for j in range(n):
                if j != i:
                    mixed += c[:, i] * c[:, j] * _prod_except(s, (i, j))
            out[:, i] = (
                -(mu * (n + 1) + lam) * pi**2 * big_s
                + (mu + lam) * pi**2 * mixed
            )
        return out

    return ExactSolution("sine", n, material, u, grad_u, f)


def polynomial_solution(n: int, material: LameParams) -> ExactSolution:
    """u_i = prod_k x_k (1 - x_k); all derived fields are polynomial."""
    _check_dim(n)
    mu, lam = material.mu, material.lam

    def u(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.repeat(np.prod(x * (1.0 - x), axis=-1)[:, None], n, axis=-1)

    def grad_u(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g_fac = x * (1.0 - x)
        g = np.empty((x.shape[0], n))
        for j in range(n):
            g[:, j] = (1.0 - 2.0 * x[:, j]) * _prod_except(g_fac, (j,))
        return np.repeat(g[:, None, :], n, axis=1)

    def f(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        g_fac = x * (1.0 - x)
        d_fac = 1.0 - 2.0 * x
        out = np.empty((x.shape[0], n))
        lap = np.zeros(x.shape[0])
        for j in range(n):
            lap += -2.0 * _prod_except(g_fac, (j,))
        for i in range(n):
            own = -2.0 * _prod_except(g_fac, (i,))
            mixed = np.zeros(x.shape[0])
            for j in range(n):
                if j != i:
                    mixed += d_fac[:, i] * d_fac[:, j] * _prod_except(g_fac, (i, j))
            out[:, i] = (mu + lam) * (own + mixed) + mu * lap
        return out

    return ExactSolution("polynomial", n, material, u, grad_u, f)


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
