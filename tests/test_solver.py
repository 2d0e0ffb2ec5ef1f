import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from elastmix.assembly import SaddleSystem, assemble, assemble_load, build_dof_map
from elastmix.element import local_compliance_matrix, local_div_matrix
from elastmix.grid import TensorGrid, unit_grid
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.solver import (
    DIRECT_SIZE_LIMIT,
    _MAX_RUN_ITERATIONS,
    ConvergenceError,
    SolveReport,
    SolverError,
    _add_product,
    _minres,
    _saddle_operators,
    solve,
)
from poly_utils import (
    apply_compliance,
    eval_elements,
    eval_stress_basis_div,
    full_matrix,
    tensor_rule,
)

MAT = LameParams(mu=0.5, lam=1.0)


def _assembled(n=2, dim=2, material=MAT):
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    exact = sine_solution(dim, material)
    load = assemble_load(grid, exact.f, dofs)
    return grid, dofs, system, load


def _count_minres_iterations(monkeypatch):
    """A list that grows by one entry per MINRES iteration of later solves."""
    import elastmix.solver

    iterations = []
    minres = elastmix.solver._minres

    def counting_minres(*args):
        *args, callback = args

        def count(xk):
            iterations.append(1)
            callback(xk)

        return minres(*args, count)

    monkeypatch.setattr(elastmix.solver, "_minres", counting_minres)
    return iterations


def test_zero_load_gives_zero_solution():
    _, dofs, system, _ = _assembled()
    sigma, u, report = solve(system, np.zeros(dofs.n_disp))
    assert np.abs(sigma.coeffs).max() == 0.0
    assert np.abs(u.coeffs).max() == 0.0
    assert report.residual == 0.0


def test_matches_dense_factorization_oracle():
    _, dofs, system, load = _assembled(n=2)
    assert system.n_total == 45
    sigma, u, _ = solve(system, load)
    dense = np.linalg.solve(
        full_matrix(system).toarray(),
        np.concatenate([np.zeros(dofs.n_stress), load]),
    )
    x = np.concatenate([sigma.coeffs, u.coeffs])
    assert np.linalg.norm(x - dense) / np.linalg.norm(dense) <= 1e-9


def test_residual_against_independently_rebuilt_matrix():
    # rebuild the block matrix from local matrices with plain python loops
    grid, dofs, system, load = _assembled(n=3)
    sigma, u, report = solve(system, load, tol=1e-11)
    n_s, n_u = dofs.n_stress, dofs.n_disp
    m_loc = local_compliance_matrix(grid.spacing, MAT)
    b_loc = local_div_matrix(grid.spacing)
    full = np.zeros((n_s + n_u, n_s + n_u))
    for e in range(grid.n_elements):
        s_idx = dofs.element_stress[e]
        d_idx = dofs.element_disp[e] + n_s
        for a, ga in enumerate(s_idx):
            for b, gb in enumerate(s_idx):
                full[ga, gb] += m_loc[a, b]
            for b, gb in enumerate(d_idx):
                full[gb, ga] += b_loc[b, a]
                full[ga, gb] += b_loc[b, a]
    x = np.concatenate([sigma.coeffs, u.coeffs])
    rhs = np.concatenate([np.zeros(n_s), load])
    residual = np.linalg.norm(full @ x - rhs) / np.linalg.norm(load)
    assert residual <= 1e-11
    assert report.residual <= 1e-11


def test_energy_identity():
    _, dofs, system, load = _assembled(n=4)
    sigma, u, _ = solve(system, load)
    energy = sigma.coeffs @ (system.M @ sigma.coeffs)
    work = load @ u.coeffs
    assert abs(energy + work) / abs(energy) <= 1e-9


def test_solution_invariant_under_permutation():
    _, dofs, system, load = _assembled(n=2)
    matrix = full_matrix(system).tocsr()
    rhs = np.concatenate([np.zeros(dofs.n_stress), load])
    rng = np.random.default_rng(29)
    perm = rng.permutation(matrix.shape[0])
    pmat = matrix[perm][:, perm].tocsc()
    import scipy.sparse.linalg as spla

    x_perm = spla.splu(pmat).solve(rhs[perm])
    x_unperm = np.empty_like(x_perm)
    x_unperm[perm] = x_perm
    sigma, u, _ = solve(system, load)
    x = np.concatenate([sigma.coeffs, u.coeffs])
    assert np.linalg.norm(x - x_unperm) / np.linalg.norm(x) <= 1e-9


def test_minres_agrees_with_direct():
    _, dofs, system, load = _assembled(n=2)
    dense = np.linalg.solve(
        full_matrix(system).toarray(),
        np.concatenate([np.zeros(dofs.n_stress), load]),
    )
    sigma_m, u_m, report = solve(system, load, tol=1e-9, method="minres")
    assert report.method == "minres"
    assert report.iterations > 0
    assert report.residual <= 1e-9
    x_m = np.concatenate([sigma_m.coeffs, u_m.coeffs])
    assert np.linalg.norm(dense - x_m) / np.linalg.norm(dense) <= 1e-6


def test_unreachable_tolerance_reports_achieved_residual():
    _, dofs, system, load = _assembled(n=2)
    with pytest.raises(ConvergenceError) as info:
        solve(system, load, tol=1e-30)
    assert 0 < info.value.residual < 1e-10


def test_singular_system_detected():
    _, dofs, system, load = _assembled(n=2)
    broken = SaddleSystem(
        M=system.M,
        B=sp.csr_matrix(system.B.shape),
        dofs=system.dofs,
        material=system.material,
    )
    # with B = 0 no displacement can balance the load: the residual stays
    # at the size of the load and is reported
    with pytest.raises(ConvergenceError) as info:
        solve(broken, load)
    assert info.value.residual == pytest.approx(1.0)


def test_inconsistent_singular_system_stops_within_the_run_cap(monkeypatch):
    # one zero row of B leaves a load entry that nothing can balance; MINRES
    # never meets its stop rule, and a cap that grew with the size (20 n per
    # run) spent 49 000 iterations here
    _, _, system, load = _assembled(n=16)
    row = int(np.argmax(np.abs(load)))
    b = system.B.copy()
    b.data[b.indptr[row] : b.indptr[row + 1]] = 0.0
    broken = dataclasses.replace(system, B=b)
    iterations = _count_minres_iterations(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        solve(broken, load)
    assert info.value.residual >= abs(load[row]) / np.linalg.norm(load) * (1 - 1e-9)
    assert 0 < len(iterations) <= 2 * _MAX_RUN_ITERATIONS


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_load_rejected_before_iterating(bad):
    # such a load used to run eight MINRES runs to maxiter (19 s at N=8) and
    # return residual nan, which passed the check residual > tol; an entry
    # of 1e300 is finite, but the norm of the load overflows
    _, dofs, system, load = _assembled(n=8)
    load = load.copy()
    load[3] = bad
    start = time.perf_counter()
    with pytest.raises(SolverError, match="non-finite"):
        solve(system, load)
    assert time.perf_counter() - start < 1.0


def test_nan_residual_fails_the_contract():
    # a NaN in the matrix makes the residual NaN, which must not pass
    _, dofs, system, load = _assembled(n=2)
    m = system.M.copy()
    m.data[5] = np.nan
    broken = SaddleSystem(M=m, B=system.B, dofs=system.dofs, material=system.material)
    with pytest.raises(ConvergenceError) as info:
        solve(broken, load)
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize("block", ["M", "B"])
def test_non_finite_matrix_rejected_before_iterating(block, monkeypatch):
    # a NaN in M or B used to run a whole MINRES to maxiter (2.5 s at N=8)
    _, _, system, load = _assembled(n=8)
    matrix = getattr(system, block).copy()
    matrix.data[5] = np.nan
    broken = dataclasses.replace(system, **{block: matrix})
    iterations = _count_minres_iterations(monkeypatch)
    with pytest.raises(SolverError, match="non-finite"):
        solve(broken, load)
    assert len(iterations) == 0


def _linear_operator(f, size):
    """``f(x, out)`` as a scipy LinearOperator."""
    import scipy.sparse.linalg as spla

    def matvec(x):
        out = np.empty(size)
        f(np.ravel(x), out)
        return out

    return spla.LinearOperator((size, size), matvec=matvec, dtype=float)


@pytest.mark.parametrize("dim, n", [(2, 8), (3, 3)])
def test_in_place_minres_matches_scipy(dim, n):
    import scipy.sparse.linalg as spla

    _, dofs, system, load = _assembled(n=n, dim=dim)
    rhs = np.concatenate([np.zeros(dofs.n_stress), load])
    multiply, apply = _saddle_operators(system)
    matrix, precond = _linear_operator(multiply, rhs.size), _linear_operator(apply, rhs.size)

    atol = 1e-12 * np.linalg.norm(rhs)
    # a first run reads the load alone as the right-hand side [0, F], a
    # correction run a whole right-hand side; both run the same iterates
    runs = {}
    for b in (load, rhs):
        steps = []
        x = _minres(multiply, apply, b, rhs.size, atol, 1000, steps.append)
        stop = len(steps)
        # the stop rule: the 2-norm residual of the last iterate is at most atol
        out = np.empty_like(x)
        multiply(x, out)
        assert np.linalg.norm(rhs - out) <= atol
        # scipy with rtol 0 runs exactly maxiter iterations of the same recurrences
        for maxiter in (5, stop):
            ours, theirs = [], []
            x = _minres(multiply, apply, b, rhs.size, atol, maxiter, ours.append)
            expected, _ = spla.minres(
                matrix, rhs, rtol=0.0, maxiter=maxiter, M=precond, callback=theirs.append
            )
            assert len(ours) == len(theirs) == maxiter
            assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
        runs[b.size] = (stop, x)
    (stop_load, x_load), (stop_rhs, x_rhs) = runs.values()
    assert stop_load == stop_rhs and np.array_equal(x_load, x_rhs)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("dim, n", [(2, 6), (3, 3)])
def test_saddle_product_sums_blocks_in_place(dim, n, index_dtype):
    # multiply writes [[M, B^T], [B, 0]] x into out through scipy's private
    # csr_matvec and csc_matvec; this pins them against the public products,
    # on both index widths that assembly writes
    _, dofs, system, _ = _assembled(n=n, dim=dim)

    def reindexed(A):
        A = A.copy()
        A.indices, A.indptr = A.indices.astype(index_dtype), A.indptr.astype(index_dtype)
        return A

    system = dataclasses.replace(system, M=reindexed(system.M), B=reindexed(system.B))
    assert system.M.indices.dtype == system.B.indptr.dtype == index_dtype
    multiply, _ = _saddle_operators(system)
    x = np.random.default_rng(dim).standard_normal(system.n_total)
    kept = x.copy()
    out = np.full_like(x, np.nan)
    multiply(x, out)
    assert np.array_equal(x, kept)
    s, u = x[: dofs.n_stress], x[dofs.n_stress :]
    M, B = system.M, system.B
    for got, expected in ((out[: dofs.n_stress], M @ s + B.T @ u), (out[dofs.n_stress :], B @ s)):
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)
    # the kernels check no lengths, so the helper does
    with pytest.raises(ValueError):
        _add_product(M, s[:-1], out[: dofs.n_stress])
    with pytest.raises(ValueError):
        _add_product(M, s, np.empty(2 * dofs.n_stress)[::2])


@pytest.mark.parametrize("dim, n", [(2, 150), (3, 12)])
def test_solve_working_set_is_seven_vectors_and_plans(dim, n):
    # MINRES's seven vectors and the plans' pooled scratch: the first run
    # reads the load alone, the residual's vector comes after the work
    # vectors are freed, and the products write into their output, so an
    # iteration allocates no vector-sized temporary (10.7-10.8 vectors with a
    # whole right-hand side and eight work vectors, 14.1 with three of solve's
    # own and allocating products)
    _, _, system, load = _assembled(n=n, dim=dim)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, _, report = solve(system, load)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.restarts == 0
    assert peak - before <= 9.0 * 8 * system.n_total


@pytest.mark.parametrize(
    "dim, n, tol", [(2, 32, 1e-11), (3, 8, 1e-11), (4, 6, 1e-11), (3, 12, 1e-13)]
)
def test_stop_does_not_overshoot_the_contract(dim, n, tol):
    # a fixed margin on the preconditioned residual stopped one run at tol / 48,
    # tol / 83 and tol / 16 here; the measured stop ended above tol / 4 in
    # every case measured up to 2D N=512
    _, _, system, load = _assembled(n=n, dim=dim)
    sigma_h, u_h, report = solve(system, load, tol=tol)
    residual = np.concatenate(
        [system.M @ sigma_h.coeffs + system.B.T @ u_h.coeffs, system.B @ sigma_h.coeffs - load]
    )
    assert tol / 10 < np.linalg.norm(residual) / np.linalg.norm(load) <= tol
    assert tol / 10 < report.residual <= tol
    assert report.restarts == 0


@pytest.mark.parametrize("dim, n", [(2, 32), (3, 8), (4, 6)])
def test_single_precision_schur_meets_contract_nearly_incompressible(dim, n):
    grid = unit_grid(dim, n)
    material = LameParams(mu=0.5, lam=1e8)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    load = assemble_load(grid, sine_solution(dim, material).f, dofs)
    sigma_h, u_h, report = solve(system, load, tol=1e-11)
    residual = np.concatenate(
        [system.M @ sigma_h.coeffs + system.B.T @ u_h.coeffs, system.B @ sigma_h.coeffs - load]
    )
    assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load)
    assert report.residual <= 1e-11


@pytest.mark.parametrize(
    "mu, lam",
    [(1e10, 1.0), (1e20, 1.0), (8e10, 1.2e11), (1e60, 1.0), (1e100, 1e100)],
    ids=["mu1e10", "mu1e20", "steel", "mu1e60", "mu_lam1e100"],
)
@pytest.mark.parametrize("dim, n", [(2, 128), (3, 8)])
def test_contract_independent_of_material_scale(dim, n, mu, lam):
    # stop tests measured against ||K|| ||x|| move with the units of mu:
    # they stopped at residuals of 1e-9 to 2e-4 here. The float32 Schur
    # factors carry the units of 1 / mu: unscaled, they leave float32's range
    # from mu = 1e44 on, where MINRES breaks down or stops at residual 1.0
    _, _, system, load = _assembled(n=n, dim=dim, material=LameParams(mu=mu, lam=lam))
    sigma_h, u_h, report = solve(system, load, tol=1e-11)
    residual = np.concatenate(
        [system.M @ sigma_h.coeffs + system.B.T @ u_h.coeffs, system.B @ sigma_h.coeffs - load]
    )
    assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load)
    assert report.restarts == 0


def test_weak_form_consistent_with_pointwise_quadrature():
    # evaluate the two bilinear forms by field evaluation and quadrature,
    # independently of the assembled matrices
    from elastmix.interpolate import DisplacementField, StressField

    grid, dofs, system, load = _assembled(n=2)
    sigma_h, u_h, _ = solve(system, load)
    rng = np.random.default_rng(77)
    tau = StressField(dofs, rng.standard_normal(dofs.n_stress))
    v = DisplacementField(dofs, rng.standard_normal(dofs.n_disp))

    pts, w = tensor_rule(3, 2)
    vol = grid.element_volume
    div_basis = eval_stress_basis_div(2, pts, grid.spacing)

    def div_values(field):
        return np.einsum("el,lqi->eqi", field.coeffs[dofs.element_stress], div_basis)

    a_vals = apply_compliance(MAT, 2, eval_elements(sigma_h, pts))
    form_a = vol * np.einsum("eqij,eqij,q->", a_vals, eval_elements(tau, pts), w)
    form_div_tau = vol * np.einsum("eqi,eqi,q->", div_values(tau), eval_elements(u_h, pts), w)
    # first equation: (A sigma_h, tau) + (div tau, u_h) = 0
    scale = abs(form_a) + abs(form_div_tau)
    assert abs(form_a + form_div_tau) <= 1e-10 * max(1.0, scale)
    # matrix route agrees with the quadrature route
    assert form_a == pytest.approx(tau.coeffs @ (system.M @ sigma_h.coeffs), rel=1e-11)
    # second equation: (div sigma_h, v) = (f, v)
    form_div_sigma = vol * np.einsum("eqi,eqi,q->", div_values(sigma_h), eval_elements(v, pts), w)
    assert form_div_sigma == pytest.approx(load @ v.coeffs, rel=1e-10)


def test_discrete_divergence_is_projected_load():
    # div sigma_h lies in the displacement space, so the second equation
    # forces it to equal the L2 projection of f pointwise
    from elastmix.interpolate import project_displacement
    from elastmix.manufactured import sine_solution

    grid, dofs, system, load = _assembled(n=4)
    sigma_h, _, _ = solve(system, load)
    ph_f = project_displacement(grid, dofs, sine_solution(2, MAT).f)
    pts, _ = tensor_rule(3, 2)
    div_basis = eval_stress_basis_div(2, pts, grid.spacing)
    div_h = np.einsum("el,lqi->eqi", sigma_h.coeffs[dofs.element_stress], div_basis)
    gap = np.abs(div_h - eval_elements(ph_f, pts)).max()
    scale = np.abs(eval_elements(ph_f, pts)).max()
    assert gap <= 1e-9 * scale


def test_deterministic_for_fixed_inputs():
    _, dofs, system, load = _assembled(n=3)
    sigma_a, u_a, _ = solve(system, load)
    sigma_b, u_b, _ = solve(system, load)
    assert (sigma_a.coeffs == sigma_b.coeffs).all()
    assert (u_a.coeffs == u_b.coeffs).all()


def test_input_validation():
    _, dofs, system, load = _assembled(n=2)
    # a bad tolerance is rejected before any product: the blocks are not matrices
    blockless = dataclasses.replace(system, M=None, B=None)
    # the zero vector meets a tolerance of 1 or more
    for tol in (0.0, -1e-11, np.nan, 1.0, 2.0, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            solve(blockless, load, tol=tol)
    with pytest.raises(ValueError):
        solve(system, load[:-1])
    for method in ("cg", "direct"):
        with pytest.raises(ValueError):
            solve(system, load, method=method)


def _minres_iterations(dim, n, lam=1.0):
    grid = unit_grid(dim, n)
    material = LameParams(mu=0.5, lam=lam)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    load = assemble_load(grid, sine_solution(dim, material).f, dofs)
    _, _, report = solve(system, load, tol=1e-11, method="minres")
    assert report.residual <= 1e-11
    return report.iterations


@pytest.mark.parametrize("dim, sizes", [(2, (16, 32, 64)), (3, (6, 8, 10))])
def test_minres_iterations_flat_under_refinement(dim, sizes):
    counts = np.array([_minres_iterations(dim, n) for n in sizes])
    assert np.abs(counts - counts.mean()).max() <= 0.15 * counts.mean()


def test_minres_iterations_robust_in_lambda():
    assert _minres_iterations(2, 16, lam=1e4) <= 2 * _minres_iterations(2, 16)


def test_auto_minres_meets_contract_past_direct_limit():
    # 2D N=150 is the first mesh past DIRECT_SIZE_LIMIT
    grid, dofs, system, load = _assembled(n=150)
    assert system.n_total > DIRECT_SIZE_LIMIT
    _, _, report = solve(system, load, tol=1e-11, method="auto")
    assert report.method == "minres"
    assert report.residual <= 1e-11


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 10)])
def test_entry_block_preconditioner_iterations(dim, n):
    # diag(M) in the stress block and its Schur complement took 127 and 119
    assert _minres_iterations(dim, n) <= 85


def test_anisotropic_box_meets_contract():
    grid = TensorGrid(2, ((0.0, 1.0), (0.0, 1.0)), (256, 16))
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    load = assemble_load(grid, sine_solution(2, MAT).f, dofs)
    _, _, report = solve(system, load, tol=1e-11)
    assert report.residual <= 1e-11
    assert report.restarts == 0


def test_tight_tolerance_meets_contract_in_3d():
    _, _, system, load = _assembled(n=12, dim=3)
    _, _, report = solve(system, load, tol=1e-13)
    assert report.residual <= 1e-13


def test_tight_tolerance_meets_contract():
    # restarts that continued from MINRES's own iterate stalled at 2.7e-13
    # here; runs for the correction of the measured residual do not
    _, _, system, load = _assembled(n=64)
    _, _, report = solve(system, load, tol=1e-13)
    assert report.residual <= 1e-13


def test_report_setup_time_and_restarts():
    _, dofs, system, load = _assembled(n=4)
    _, _, minres = solve(system, load, method="minres")
    assert 0 < minres.setup_time <= minres.wall_time
    assert 0 <= minres.restarts < 8
    # the two trailing fields default, so four-field constructions still work
    four = SolveReport("direct", 0.0, 0, 1.0)
    assert four == SolveReport("direct", 0.0, 0, 1.0, 0.0, 0)


def test_solve_builds_no_full_matrix(monkeypatch):
    # MINRES applies [[M, B^T], [B, 0]] block by block; the assembled copy is
    # only for tests
    _, _, system, load = _assembled(n=8)

    def copy_not_allowed(*args, **kwargs):
        raise AssertionError("solve built the full block matrix")

    monkeypatch.setattr(sp, "bmat", copy_not_allowed)
    sigma_h, u_h, report = solve(system, load)
    residual = np.concatenate(
        [system.M @ sigma_h.coeffs + system.B.T @ u_h.coeffs, system.B @ sigma_h.coeffs - load]
    )
    assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load)
    assert report.residual <= 1e-11
