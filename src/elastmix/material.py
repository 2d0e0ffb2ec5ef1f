"""Isotropic linear elasticity: the Lame parameters.

The compliance acting on a symmetric n x n tensor is

    A s = (s - lam / (2 mu + n lam) * tr(s) * I) / (2 mu),

its inverse is C e = 2 mu e + lam tr(e) I.  On symmetric tensors A is SPD with
spectrum {1/(2 mu), 1/(2 mu + n lam)}, the smaller eigenvalue attained on
multiples of the identity.  Only its cell integrals are formed
(``element.local_compliance_matrix``); the manufactured stresses apply C
term by term.
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
