"""Isotropic linear elasticity: Lame parameters, compliance A and stiffness C = A^-1.

The compliance acting on a symmetric n x n tensor is

    A s = (s - lam / (2 mu + n lam) * tr(s) * I) / (2 mu),

its inverse is C e = 2 mu e + lam tr(e) I.  On symmetric tensors A is SPD with
spectrum {1/(2 mu), 1/(2 mu + n lam)}, the smaller eigenvalue attained on
multiples of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LameParams:
    """Shear modulus ``mu`` > 0 and first Lame constant ``lam`` >= 0, both finite."""

    mu: float
    lam: float

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError(f"shear modulus must be positive and finite, got {self.mu}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"first Lame constant must be nonnegative and finite, got {self.lam}")

    def trace_factor(self, n: int) -> float:
        """The modulus 2 mu + n lam appearing in the trace coupling."""
        return 2.0 * self.mu + n * self.lam


def _check_symmetric(t: np.ndarray, n: int, what: str) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (n, n):
        raise ValueError(f"{what} must have trailing shape ({n}, {n}), got {t.shape}")
    tt = np.swapaxes(t, -1, -2)
    scale = float(np.abs(t).max()) if t.size else 0.0
    if not np.allclose(t, tt, rtol=1e-10, atol=1e-12 * (1.0 + scale)):
        raise ValueError(f"{what} must be symmetric")
    return t


def apply_compliance(params: LameParams, n: int, sigma: np.ndarray) -> np.ndarray:
    """A sigma for one tensor or an array of tensors with trailing shape (n, n)."""
    sigma = _check_symmetric(sigma, n, "stress tensor")
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    eye = np.eye(n)
    out = sigma - (params.lam / params.trace_factor(n)) * tr[..., None, None] * eye
    return out / (2.0 * params.mu)


def apply_stiffness(params: LameParams, n: int, eps: np.ndarray) -> np.ndarray:
    """C eps = 2 mu eps + lam tr(eps) I, the inverse of ``apply_compliance``."""
    eps = _check_symmetric(eps, n, "strain tensor")
    tr = np.trace(eps, axis1=-2, axis2=-1)
    eye = np.eye(n)
    return 2.0 * params.mu * eps + params.lam * tr[..., None, None] * eye
