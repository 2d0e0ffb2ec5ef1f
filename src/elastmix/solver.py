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
contractions, kept in range by powers of two), so the iteration count
stays flat under mesh refinement.  Both inverses are plans built once per
solve; each apply writes into the iteration's work vector in place, from
one scratch pool per plan, with no vector-sized temporaries.  The products
with M, B and B^T are summed into their output in place too.  The
iteration is MINRES (Paige and Saunders, SIAM J. Numer. Anal. 1975) with
scipy's recurrences, run in place from zero on seven work vectors: the
first run reads the load F alone as the right-hand side [0, F], and the
residual's vector is allocated only after it, once the work vectors are
freed.  A solve thus holds MINRES's seven vectors and the plans' scratch,
and a correction run two more: the residual it solves for and the running
sum of the iterates.  It stops on the contract's own
residual: when its running estimate of the residual in the preconditioner's
norm reaches the bound, the true residual is measured once, and a miss
rescales the estimate's target by the measured gap.  No part of the rule
depends on the units of the material; the contract below does when the
moduli are small.  Only a run that ends at its rounding
floor or its cap is followed by a run for the correction of the residual
measured in float64, a mixed-precision refinement (Carson and Higham, SIAM
J. Sci. Comput. 2018); the runs end when the contract holds or the residual
no longer falls.  The contract is only the relative residual

    || K x - [0, F] || / ||F|| <= tol,

measured with the assembled matrix; the strategy is an implementation detail.
The stress block of the residual, M sigma + B^T u, is a difference of terms of
size ||B^T u||, and u does not scale with the moduli while ||F|| falls in
proportion to mu.  Rounding alone leaves about eps ||B^T u|| there, so at
small moduli no solver meets the contract: at 2D N=4 an exact sparse LU
reaches 2.35e-9 at mu = lam = 1e-8, against a displacement block of 6e-13.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  unused; perfbench's tracer swaps it
from scipy.sparse import _sparsetools

from ._schur import SchurInverse, StressInverse
from .assembly import SaddleSystem
from .interpolate import DisplacementField, StressField

# read and set only by the benchmark harness (perfbench); the solver ignores it
DIRECT_SIZE_LIMIT = 200_000
_METHODS = ("auto", "minres")
# The iteration count does not grow with the mesh (34-137 in every case
# measured), so the cap per run is fixed: a cap that grows with the size lets
# an inconsistent singular system run as long.
_MAX_RUN_ITERATIONS = 1000


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
    preconditioner; ``iterations`` sums the MINRES iterations of all runs,
    and ``restarts`` counts the runs after the first.  A zero load reads 0
    for both, and for ``setup_time``.
    """

    residual: float
    iterations: int
    wall_time: float
    setup_time: float
    restarts: int


def solve(
    system: SaddleSystem,
    load: np.ndarray,
    tol: float = 1e-11,
    method: str = "auto",
) -> tuple[StressField, DisplacementField, SolveReport]:
    """Solve for the stress and displacement coefficient vectors.

    ``load`` is the displacement-block right-hand side; the stress block of
    the right-hand side is zero.  ``method`` is accepted and checked only
    because the benchmark harness passes it: ``"auto"`` and ``"minres"`` both
    run the preconditioned MINRES.  Raises ValueError unless
    0 < ``tol`` < 1, SolverError on a load with a NaN or inf entry or a norm
    that overflows, and ConvergenceError with the achieved residual unless
    it is at most ``tol``; a NaN or inf entry of M or B makes every residual
    NaN, so it raises ConvergenceError with residual NaN before iterating.
    """
    if not 0 < tol < 1:  # NaN too; the zero vector meets a tolerance of 1
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    if method not in _METHODS:
        raise ValueError(f"unknown solve method {method!r}; available: {_METHODS}")
    dofs = system.dofs
    load = np.asarray(load, dtype=float)
    if load.shape != (dofs.n_disp,):
        raise ValueError(f"load vector must have length {dofs.n_disp}, got {load.shape}")
    with np.errstate(over="ignore"):
        rhs_norm = float(np.linalg.norm(load))
    if not math.isfinite(rhs_norm):  # NaN or inf entries, or finite ones that overflow
        raise SolverError("load vector has non-finite entries or norm")
    if not (np.isfinite(system.M.data).all() and np.isfinite(system.B.data).all()):
        raise ConvergenceError("system matrix has non-finite entries", np.nan)

    start = time.perf_counter()
    if rhs_norm == 0.0:
        report = SolveReport(0.0, 0, time.perf_counter() - start, 0.0, 0)
        return (
            StressField(dofs, np.zeros(dofs.n_stress)),
            DisplacementField(dofs, np.zeros(dofs.n_disp)),
            report,
        )
    n_stress = dofs.n_stress
    multiply, apply = _saddle_operators(system)
    setup_time = time.perf_counter() - start
    # each run solves for the correction of the residual measured in float64
    # and stops on the contract's bound, whose 2-norm is the same for every
    # correction; a further run follows one that ended at its rounding floor.
    # A run that spent its whole cap found no way down: on an inconsistent
    # system every further run ends at the cap too, lowering the residual in
    # its fifth digit (2D N=16 with one zero row of B: 3 runs of 1000)
    atol, x, b = tol * rhs_norm, None, None
    residual, iterations = 1.0, 0
    for restarts in range(8):
        if x is None:  # the first run takes [0, F] as the load alone
            x, run = _minres(multiply, apply, load, system.n_total, atol, _MAX_RUN_ITERATIONS)
            # the residual's vector, allocated once the work vectors are freed
            b = np.empty_like(x)
        else:  # a correction run holds the running sum as one more vector
            correction, run = _minres(multiply, apply, b, system.n_total, atol, _MAX_RUN_ITERATIONS)
            # the sum goes into the correction's vector, so that no third
            # vector outlives the run
            x = np.add(x, correction, out=correction)
        iterations += run
        capped = run == _MAX_RUN_ITERATIONS
        # b = [0, F] - K x
        multiply(x, b)
        np.negative(b[:n_stress], out=b[:n_stress])
        np.subtract(load, b[n_stress:], out=b[n_stress:])
        previous, residual = residual, float(np.linalg.norm(b)) / rhs_norm
        # a NaN residual stops too
        if residual <= tol or capped or not residual < previous:
            break
    if not residual <= tol:  # a NaN residual fails too
        raise ConvergenceError(
            f"minres solve reached relative residual {residual:.3e} > tol {tol:.3e}",
            residual,
        )
    report = SolveReport(residual, iterations, time.perf_counter() - start, setup_time, restarts)
    return (
        StressField(dofs, x[:n_stress]),
        DisplacementField(dofs, x[n_stress:]),
        report,
    )


def _add_product(A, x: np.ndarray, out: np.ndarray) -> None:
    """Add A x to ``out`` in place, for a CSR or CSC matrix A.

    The kernels are scipy's private ``scipy.sparse._sparsetools.csr_matvec``
    and ``csc_matvec`` (y += A x), the ones behind ``A @ x``, which allocates
    its result.  Being private, they are pinned by a test against ``A @ x``.
    They check no lengths, and write only into a contiguous float64 ``out``,
    so both are checked here.
    """
    if x.shape != (A.shape[1],) or out.shape != (A.shape[0],):
        raise ValueError(f"shapes {x.shape} -> {out.shape} do not fit {A.shape}")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("the product needs a contiguous float64 output")
    kernel = _sparsetools.csr_matvec if A.format == "csr" else _sparsetools.csc_matvec
    kernel(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)


def _saddle_operators(system):
    """The saddle matrix and the block preconditioner, each ``f(x, out)``."""
    n_stress = system.dofs.n_stress
    M, B, BT = system.M, system.B, system.B.T
    stress_inverse = StressInverse(system.dofs, system.material)
    schur_inverse = SchurInverse(system.dofs.grid, system.material)

    # [[M, B^T], [B, 0]] applied block by block and summed into out, so no
    # copy of the whole matrix and no vector-sized temporary is built
    def multiply(x, out):
        s, u = x[:n_stress], x[n_stress:]
        out.fill(0.0)
        _add_product(M, s, out[:n_stress])
        _add_product(BT, u, out[:n_stress])
        _add_product(B, s, out[n_stress:])

    def apply(r, out):
        stress_inverse(r[:n_stress], out[:n_stress])
        schur_inverse(r[n_stress:], out[n_stress:])

    return multiply, apply


def _minres(multiply, apply, b, size, atol, maxiter):
    """Preconditioned MINRES for the symmetric system A x = [0, b], from x = 0.

    The right-hand side has ``size`` entries, of which ``b`` is the trailing
    block and the rest are zero; ``b`` may be the whole of it.
    ``multiply(x, out)`` writes A x and ``apply(r, out)`` the preconditioner
    P times r into ``out``.  Returns ``(x, iterations)``, the run's count of
    iterations, which is ``maxiter`` when the run ends at its cap.  The
    recurrences are scipy's ``minres``, run in place on seven vectors
    allocated once, so the iterates agree with scipy's up to rounding.

    The run stops once ``||[0, b] - A x|| <= atol`` in the 2-norm.  That norm
    is measured only where phibar, the P-norm of the residual of the current
    iterate, falls to a target, at first ``atol / ||b||`` times beta1, the
    P-norm of the right-hand side, and never below the rounding floor
    ``eps * beta1``.  A measurement above ``atol`` scales the target by the
    gap it shows and the run goes on in the same Krylov space; a target
    below the floor stops it, and so does a Lanczos breakdown (beta = 0, so
    phibar = 0).  No part of the rule depends on the scale of A, x or b.
    """
    eps = np.finfo(float).eps
    lead = size - b.size  # the zero block of the right-hand side
    # the iterate is allocated last: it outlives the work vectors, whose
    # space the next run can then reuse
    r1, r2, y, v = (np.empty(size) for _ in range(4))
    w1, w2, x = (np.zeros(size) for _ in range(3))
    r1[:lead] = 0.0
    r1[lead:] = b
    apply(r1, y)
    beta1 = float(np.inner(r1, y))
    if beta1 < 0:
        raise SolverError("minres breakdown: indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    r2[:] = r1
    beta = phibar = beta1 = math.sqrt(beta1)
    target = max(atol / float(np.linalg.norm(r1)), eps) * beta1
    oldb = dbar = epsln = sn = 0.0
    cs = -1.0
    for itn in range(1, maxiter + 1):
        # Lanczos step: basis vector v, next residual r2 and y = P r2; r1 is
        # dead once it is subtracted, so it holds the step's scratch
        np.multiply(y, 1.0 / beta, out=v)
        multiply(v, y)
        if itn >= 2:
            r1 *= beta / oldb
            y -= r1
        alfa = float(np.inner(v, y))
        y -= np.multiply(r2, alfa / beta, out=r1)
        r1, r2, y = r2, y, r1
        apply(r2, y)
        oldb, beta = beta, float(np.inner(r2, y))
        if beta < 0:
            raise SolverError("minres breakdown: non-symmetric matrix or preconditioner")
        beta = math.sqrt(beta)

        # apply the previous plane rotation, then compute the next one
        oldeps, delta, gbar = epsln, cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma over w1, the oldest direction,
        # then x += phi w; v is then dead
        np.subtract(v, np.multiply(w1, oldeps, out=w1), out=w1)
        w1 -= np.multiply(w2, delta, out=v)
        w1 *= 1.0 / gamma
        x += np.multiply(w1, phi, out=v)
        w1, w2 = w2, w1
        if phibar <= target:
            # measure the 2-norm residual [0, b] - A x in v, dead until the
            # next step
            multiply(x, v)
            np.negative(v[:lead], out=v[:lead])
            np.subtract(b, v[lead:], out=v[lead:])
            norm = float(np.linalg.norm(v))
            if norm <= atol:
                break
            # scale the target by the measured gap; below the rounding floor
            # (or at a breakdown, phibar = 0) only a correction run can close it
            target = phibar * atol / norm
            if target < eps * beta1:
                break
    return x, itn
