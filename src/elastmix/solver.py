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
inverted by fast diagonalization (see ``_schur``; single-precision
contractions on an input scaled by a power of two), so the iteration count
stays flat under mesh refinement.  The iteration is scipy's MINRES (Paige
and Saunders, SIAM J. Numer. Anal. 1975) run in place; each run ends with
the residual measured in float64 and restarts from it, a mixed-precision
refinement (Carson and Higham, SIAM J. Sci. Comput. 2018).  The contract is
only the relative residual

    || K x - [0, F] || / ||F|| <= tol,

measured with the assembled matrix; the strategy is an implementation detail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  unused; perfbench's tracer swaps it

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


def _saddle_operators(system):
    """The saddle matrix and the block preconditioner, each ``f(x, out)``."""
    n_stress = system.dofs.n_stress
    M, B, BT = system.M, system.B, system.B.T
    stress_inverse = StressInverse(system.dofs, system.material)
    schur_inverse = SchurInverse(system.dofs.grid, system.material)

    # [[M, B^T], [B, 0]] applied block by block, so no copy of the whole
    # matrix is built next to M and B
    def multiply(x, out):
        s, u = x[:n_stress], x[n_stress:]
        np.add(M @ s, BT @ u, out=out[:n_stress])
        out[n_stress:] = B @ s

    def apply(r, out):
        out[:n_stress] = stress_inverse(r[:n_stress])
        out[n_stress:] = schur_inverse(r[n_stress:])

    return multiply, apply


def _solve_minres(system, rhs, rhs_norm, tol):
    start = time.perf_counter()
    multiply, apply = _saddle_operators(system)
    setup_time = time.perf_counter() - start

    counter = {"n": 0}

    def count(_):
        counter["n"] += 1

    def minres(b, x0, rtol):
        return _minres(multiply, apply, b, x0, rtol, 20 * b.size, count)

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
        r = np.empty_like(rhs)
        multiply(x, r)
        np.subtract(rhs, r, out=r)
        previous = residual
        residual = float(np.linalg.norm(r)) / rhs_norm
        if residual <= tol or not np.isfinite(residual) or (stalled and residual >= previous):
            break
        stalled = stalled or residual >= previous
        rtol = max(rtol * min(0.1, 0.1 * tol / residual), 1e-16)
    return x, residual, counter["n"], setup_time, run


def _minres(multiply, apply, b, x0, rtol, maxiter, callback):
    """Preconditioned MINRES for the symmetric system A x = b.

    ``multiply(x, out)`` writes A x and ``apply(r, out)`` the preconditioner
    times r into ``out``; ``callback(x)`` runs after every iteration.  The
    recurrences and stop tests are scipy's ``minres``, so the iterates agree
    with scipy's up to rounding; they run in place on vectors allocated once.
    """
    eps = np.finfo(float).eps
    # the iterate is allocated last: it outlives the work vectors, whose
    # space the next run can then reuse
    r1, r2, y, v, w1 = (np.empty_like(b) for _ in range(5))
    w, w2 = np.zeros_like(b), np.zeros_like(b)
    x = np.zeros_like(b) if x0 is None else x0.copy()
    r1[:] = b
    if x0 is not None:
        multiply(x, y)
        r1 -= y
    apply(r1, y)
    beta1 = float(np.inner(r1, y))
    if beta1 < 0:
        raise SolverError("minres breakdown: indefinite preconditioner")
    if beta1 == 0:
        return x
    r2[:] = r1
    beta = phibar = beta1 = math.sqrt(beta1)
    oldb = dbar = epsln = tnorm2 = gmax = sn = 0.0
    gmin, cs = math.inf, -1.0
    for itn in range(1, maxiter + 1):
        # Lanczos step: basis vector v, next residual r2 and y = P r2; r1 and
        # w1 are dead until overwritten, so they serve as scratch
        np.multiply(y, 1.0 / beta, out=v)
        multiply(v, y)
        if itn >= 2:
            r1 *= beta / oldb
            y -= r1
        alfa = float(np.inner(v, y))
        y -= np.multiply(r2, alfa / beta, out=w1)
        r1, r2, y = r2, y, r1
        apply(r2, y)
        oldb, beta = beta, float(np.inner(r2, y))
        if beta < 0:
            raise SolverError("minres breakdown: non-symmetric matrix or preconditioner")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # beta2 = 0: the first basis vector spans an invariant subspace
        lucky = itn == 1 and beta / beta1 <= 10 * eps

        # apply the previous plane rotation, then compute the next one
        oldeps, delta, gbar = epsln, cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma, x += phi w; v is then dead
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= np.multiply(w2, delta, out=v)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=v)

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm, ynorm = math.sqrt(tnorm2), float(np.linalg.norm(x))
        # ||r|| / (||A|| ||x||) and ||A r|| / (||A|| ||r||)
        tests = (phibar / (anorm * ynorm) if ynorm > 0 else math.inf, root / anorm)
        callback(x)
        if (
            lucky
            or any(test <= rtol or 1.0 + test <= 1.0 for test in tests)  # rtol may be < eps
            or gmax / gmin >= 0.1 / eps  # the estimate of cond(A)
            or anorm * ynorm * eps >= beta1
        ):
            break
    return x
