import numpy as np
import pytest
import scipy.sparse as sp

from elastmix.assembly import SaddleSystem, assemble, assemble_load, build_dof_map
from elastmix.element import local_compliance_matrix, local_div_matrix
from elastmix.grid import unit_grid
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.solver import (
    DIRECT_SIZE_LIMIT,
    ConvergenceError,
    SolveReport,
    solve,
)

MAT = LameParams(mu=0.5, lam=1.0)


def _assembled(n=2, dim=2):
    grid = unit_grid(dim, n)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    exact = sine_solution(dim, MAT)
    load = assemble_load(grid, exact.f, dofs)
    return grid, dofs, system, load


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
        system.full_matrix().toarray(),
        np.concatenate([np.zeros(dofs.n_stress), load]),
    )
    x = np.concatenate([sigma.coeffs, u.coeffs])
    assert np.linalg.norm(x - dense) / np.linalg.norm(dense) <= 1e-9


def test_residual_against_independently_rebuilt_matrix():
    # rebuild the block matrix from local matrices with plain python loops
    grid, dofs, system, load = _assembled(n=3)
    sigma, u, report = solve(system, load, tol=1e-11)
    n_s, n_u = dofs.n_stress, dofs.n_disp
    box = grid.element_box((0,) * grid.dim)
    m_loc = local_compliance_matrix(box, MAT)
    b_loc = local_div_matrix(box)
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
    matrix = system.full_matrix().tocsr()
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
        system.full_matrix().toarray(),
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


def test_weak_form_consistent_with_pointwise_quadrature():
    # evaluate the two bilinear forms by field evaluation and quadrature,
    # independently of the assembled matrices
    from elastmix.interpolate import DisplacementField, StressField
    from elastmix.material import apply_compliance
    from elastmix.quadrature import tensor_rule

    grid, dofs, system, load = _assembled(n=2)
    sigma_h, u_h, _ = solve(system, load)
    rng = np.random.default_rng(77)
    tau = StressField(dofs, rng.standard_normal(dofs.n_stress))
    v = DisplacementField(dofs, rng.standard_normal(dofs.n_disp))

    pts, w = tensor_rule(3, 2)
    vol = grid.element_volume
    a_vals = apply_compliance(MAT, 2, sigma_h.eval_elements(pts))
    form_a = vol * np.einsum("eqij,eqij,q->", a_vals, tau.eval_elements(pts), w)
    form_div_tau = vol * np.einsum(
        "eqi,eqi,q->", tau.div_elements(pts), u_h.eval_elements(pts), w
    )
    # first equation: (A sigma_h, tau) + (div tau, u_h) = 0
    scale = abs(form_a) + abs(form_div_tau)
    assert abs(form_a + form_div_tau) <= 1e-10 * max(1.0, scale)
    # matrix route agrees with the quadrature route
    assert form_a == pytest.approx(tau.coeffs @ (system.M @ sigma_h.coeffs), rel=1e-11)
    # second equation: (div sigma_h, v) = (f, v)
    form_div_sigma = vol * np.einsum(
        "eqi,eqi,q->", sigma_h.div_elements(pts), v.eval_elements(pts), w
    )
    assert form_div_sigma == pytest.approx(load @ v.coeffs, rel=1e-10)


def test_discrete_divergence_is_projected_load():
    # div sigma_h lies in the displacement space, so the second equation
    # forces it to equal the L2 projection of f pointwise
    from elastmix.interpolate import project_displacement
    from elastmix.manufactured import sine_solution
    from elastmix.quadrature import tensor_rule

    grid, dofs, system, load = _assembled(n=4)
    sigma_h, _, _ = solve(system, load)
    ph_f = project_displacement(grid, dofs, sine_solution(2, MAT).f)
    pts, _ = tensor_rule(3, 2)
    gap = np.abs(sigma_h.div_elements(pts) - ph_f.eval_elements(pts)).max()
    scale = np.abs(ph_f.eval_elements(pts)).max()
    assert gap <= 1e-9 * scale


def test_deterministic_for_fixed_inputs():
    _, dofs, system, load = _assembled(n=3)
    sigma_a, u_a, _ = solve(system, load)
    sigma_b, u_b, _ = solve(system, load)
    assert (sigma_a.coeffs == sigma_b.coeffs).all()
    assert (u_a.coeffs == u_b.coeffs).all()


def test_input_validation():
    _, dofs, system, load = _assembled(n=2)
    with pytest.raises(ValueError):
        solve(system, load, tol=0.0)
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


def test_tight_tolerance_meets_contract():
    # restarts that only continue from MINRES's own iterate stall at 2.7e-13 here
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
    # only for export and tests
    _, _, system, load = _assembled(n=8)

    def copy_not_allowed(self):
        raise AssertionError("solve built the full block matrix")

    monkeypatch.setattr(SaddleSystem, "full_matrix", copy_not_allowed)
    sigma_h, u_h, report = solve(system, load)
    residual = np.concatenate(
        [system.M @ sigma_h.coeffs + system.B.T @ u_h.coeffs, system.B @ sigma_h.coeffs - load]
    )
    assert np.linalg.norm(residual) <= 1e-11 * np.linalg.norm(load)
    assert report.residual <= 1e-11
