"""Iterative solution of the assembled saddle-point system.

The system [[M, B^T], [B, 0]] is symmetric indefinite but nonsingular: M is
positive definite on the whole stress space and B has full row rank.  It is
solved by MINRES with the block-diagonal preconditioner of Silvester and
Wathen (SIAM J. Numer. Anal. 1994).  Let Mb be M restricted to pairs of
unknowns of the same tensor entry.  The stress block is Mb^-1, and the
displacement block is the exact inverse of each component's block of the
Schur complement S = B Mb^-1 B^T.  On the uniform grid every block of Mb is
a Kronecker product of 1D Grams, inverted by tridiagonal solves, and every
component block of S is a short sum of Kronecker products of 1D matrices,
inverted by fast diagonalization (see ``_schur``), so the iteration count
stays flat under mesh refinement.  The contract is only the relative
residual

    || K x - [0, F] || / ||F|| <= tol,

measured with the assembled matrix; the strategy is an implementation detail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from ._schur import SchurInverse, StressInverse
from .assembly import SaddleSystem
from .interpolate import DisplacementField, StressField

# read and set only by the benchmark harness (perfbench); the solver ignores it
DIRECT_SIZE_LIMIT = 200_000
_METHODS = ("auto", "minres")


class SolverError(RuntimeError):
    """Base class for solver failures."""


class ConvergenceError(SolverError):
    """The requested residual tolerance was not reached."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``setup_time`` is the part of ``wall_time`` spent building the
    preconditioner; ``restarts`` counts MINRES restarts after the first run.
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
    the right-hand side is zero.  ``method`` is ``"auto"`` or ``"minres"``,
    which both run the preconditioned MINRES.  Raises SolverError on a load
    with a NaN or inf entry, and ConvergenceError with the achieved residual
    unless it is at most ``tol``; a NaN or inf entry of M or B makes every
    residual NaN, so it raises ConvergenceError with residual NaN before
    iterating.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if method not in _METHODS:
        raise ValueError(f"unknown solve method {method!r}; available: {_METHODS}")
    dofs = system.dofs
    load = np.asarray(load, dtype=float)
    if load.shape != (dofs.n_disp,):
        raise ValueError(f"load vector must have length {dofs.n_disp}, got {load.shape}")
    if not np.isfinite(load).all():
        raise SolverError("load vector has non-finite entries")
    if not (np.isfinite(system.M.data).all() and np.isfinite(system.B.data).all()):
        raise ConvergenceError("system matrix has non-finite entries", np.nan)

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

    x, residual, iterations, setup_time, restarts = _solve_minres(system, rhs, rhs_norm, tol)
    if not residual <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"minres solve reached relative residual {residual:.3e} > tol {tol:.3e}",
            residual,
        )
    report = SolveReport(
        "minres", residual, iterations, time.perf_counter() - start, setup_time, restarts
    )
    return (
        StressField(dofs, x[: dofs.n_stress]),
        DisplacementField(dofs, x[dofs.n_stress :]),
        report,
    )


def _solve_minres(system, rhs, rhs_norm, tol):
    start = time.perf_counter()
    n_stress = system.dofs.n_stress
    M, B, BT = system.M, system.B, system.B.T
    stress_inverse = StressInverse(system.dofs, system.material)
    schur_inverse = SchurInverse(system.dofs.grid, system.material)

    # [[M, B^T], [B, 0]] applied block by block, so no copy of the whole
    # matrix is built next to M and B
    def multiply(x):
        x = np.ravel(x)
        s, u = x[:n_stress], x[n_stress:]
        return np.concatenate([M @ s + BT @ u, B @ s])

    def apply(r):
        r = np.ravel(r)
        return np.concatenate([stress_inverse(r[:n_stress]), schur_inverse(r[n_stress:])])

    shape = (rhs.size, rhs.size)
    matrix = spla.LinearOperator(shape, matvec=multiply, dtype=float)
    precond = spla.LinearOperator(shape, matvec=apply, dtype=float)
    setup_time = time.perf_counter() - start

    counter = {"n": 0}

    def count(_):
        counter["n"] += 1

    def minres(b, x0, rtol):
        x, info = spla.minres(
            matrix, b, x0=x0, rtol=rtol, maxiter=20 * matrix.shape[0],
            M=precond, callback=count,
        )
        if info < 0:
            raise SolverError(f"minres reported illegal input or breakdown (info={info})")
        return x

    # the solver's internal test uses preconditioned norms, which can report
    # convergence well before the true residual meets the contract; restart
    # from the current iterate with a tighter inner tolerance while the
    # measured residual falls.  Once it stalls, scipy's test is dominated by
    # the size of the whole iterate, so solve for the correction from zero.
    inner_rtol = rtol = max(tol / 10.0, 1e-15)
    x = None
    residual = np.inf
    stalled = False
    for run in range(8):
        if stalled:
            x = x + minres(r, None, inner_rtol)
        else:
            x = minres(rhs, x, rtol)
        r = rhs - matrix @ x
        previous = residual
        residual = float(np.linalg.norm(r)) / rhs_norm
        if residual <= tol or not np.isfinite(residual) or (stalled and residual >= previous):
            break
        stalled = stalled or residual >= previous
        rtol = max(rtol * min(0.1, 0.1 * tol / residual), 1e-16)
    return x, residual, counter["n"], setup_time, run
