"""Direct and iterative solution of the assembled saddle-point system.

The system [[M, B^T], [B, 0]] is symmetric indefinite but nonsingular: M is
positive definite on the whole stress space and B has full row rank.  Up to a
size threshold a sparse LU factorization with a few steps of iterative
refinement is used; beyond it MINRES with the block-diagonal preconditioner
of Silvester and Wathen (SIAM J. Numer. Anal. 1994): diag(M)^-1 on the
stress block and, on the displacement block, the exact inverse of each
component's block of the Schur complement S = B diag(M)^-1 B^T.  Those
blocks are short sums of Kronecker products of 1D matrices on the uniform
grid and are inverted by fast diagonalization (see ``_schur``), so the
iteration count stays flat under mesh refinement.  The contract is only the
relative residual

    || K x - [0, F] || / ||F|| <= tol,

measured with the assembled matrix; the strategy is an implementation detail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ._schur import SchurInverse
from .assembly import SaddleSystem
from .interpolate import DisplacementField, StressField

DIRECT_SIZE_LIMIT = 200_000
_REFINE_STEPS = 5


class SolverError(RuntimeError):
    """Base class for solver failures."""


class SingularSystemError(SolverError):
    """The factorization detected an exactly singular matrix."""


class ConvergenceError(SolverError):
    """The requested residual tolerance was not reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``setup_time`` is the part of ``wall_time`` spent building the LU factors
    or the preconditioner; ``restarts`` counts MINRES restarts after the
    first run.
    """

    method: str
    residual: float
    iterations: int
    wall_time: float
    setup_time: float = 0.0
    restarts: int = 0


def solve(
    system: SaddleSystem,
    load: np.ndarray,
    tol: float = 1e-11,
    method: str = "auto",
) -> tuple[StressField, DisplacementField, SolveReport]:
    """Solve for the stress and displacement coefficient vectors.

    ``load`` is the displacement-block right-hand side; the stress block of
    the right-hand side is zero.  Raises ConvergenceError with the achieved
    residual on non-convergence and SingularSystemError if the factorization
    breaks down.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    dofs = system.dofs
    load = np.asarray(load, dtype=float)
    if load.shape != (dofs.n_disp,):
        raise ValueError(f"load vector must have length {dofs.n_disp}, got {load.shape}")

    start = time.perf_counter()
    rhs = np.concatenate([np.zeros(dofs.n_stress), load])
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        report = SolveReport("trivial", 0.0, 0, time.perf_counter() - start)
        return (
            StressField(dofs, np.zeros(dofs.n_stress)),
            DisplacementField(dofs, np.zeros(dofs.n_disp)),
            report,
        )

    matrix = system.full_matrix()
    if method == "auto":
        method = "direct" if matrix.shape[0] <= DIRECT_SIZE_LIMIT else "minres"

    if method == "direct":
        x, residual, iterations, setup_time, restarts = _solve_direct(
            matrix, rhs, rhs_norm, tol
        )
    elif method == "minres":
        x, residual, iterations, setup_time, restarts = _solve_minres(
            system, matrix, rhs, rhs_norm, tol
        )
    else:
        raise ValueError(f"unknown solve method {method!r}")

    if residual > tol:
        raise ConvergenceError(
            f"{method} solve reached relative residual {residual:.3e} > tol {tol:.3e}",
            residual,
        )
    report = SolveReport(
        method, residual, iterations, time.perf_counter() - start, setup_time, restarts
    )
    return (
        StressField(dofs, x[: dofs.n_stress]),
        DisplacementField(dofs, x[dofs.n_stress :]),
        report,
    )


def _relative_residual(matrix, x, rhs, rhs_norm) -> float:
    return float(np.linalg.norm(matrix @ x - rhs)) / rhs_norm


def _solve_direct(matrix, rhs, rhs_norm, tol):
    start = time.perf_counter()
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularSystemError(str(exc)) from exc
        raise
    setup_time = time.perf_counter() - start
    x = lu.solve(rhs)
    residual = _relative_residual(matrix, x, rhs, rhs_norm)
    steps = 0
    while residual > tol and steps < _REFINE_STEPS:
        x = x + lu.solve(rhs - matrix @ x)
        residual = _relative_residual(matrix, x, rhs, rhs_norm)
        steps += 1
    return x, residual, steps, setup_time, 0


def _solve_minres(system, matrix, rhs, rhs_norm, tol):
    start = time.perf_counter()
    n_stress = system.dofs.n_stress
    inv_m_diag = 1.0 / system.M.diagonal()
    schur_inverse = SchurInverse(system.dofs.grid, system.material)

    def apply(r):
        r = np.ravel(r)
        return np.concatenate([inv_m_diag * r[:n_stress], schur_inverse(r[n_stress:])])

    precond = spla.LinearOperator(matrix.shape, matvec=apply)
    setup_time = time.perf_counter() - start

    counter = {"n": 0}

    def count(_):
        counter["n"] += 1

    # the solver's internal test uses preconditioned norms, which can report
    # convergence well before the true residual meets the contract; restart
    # with a tighter inner tolerance until the measured residual does
    x = None
    rtol = max(tol / 10.0, 1e-15)
    residual = np.inf
    for run in range(8):
        x, info = spla.minres(
            matrix, rhs, x0=x, rtol=rtol, maxiter=20 * matrix.shape[0],
            M=precond, callback=count,
        )
        if info < 0:
            raise SolverError(
                f"minres reported illegal input or breakdown (info={info})"
            )
        previous = residual
        residual = _relative_residual(matrix, x, rhs, rhs_norm)
        if residual <= tol or residual >= previous:
            break
        rtol = max(rtol * min(0.1, 0.1 * tol / residual), 1e-16)
    return x, residual, counter["n"], setup_time, run
