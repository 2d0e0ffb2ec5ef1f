import numpy as np
import pytest
import scipy.linalg

from elastmix.assembly import (
    assemble_disp_mass,
    assemble_stress_gram,
    build_dof_map,
)
from elastmix.grid import build_grid, unit_grid
from elastmix.interpolate import (
    DisplacementField,
    StressField,
    project_displacement,
)
from elastmix.manufactured import sine_solution
from elastmix.material import LameParams
from elastmix.quadrature import tensor_rule
from elastmix.verify import (
    error_norms,
    fit_rate,
    infsup_probe,
    kernel_ellipticity_probe,
    superclose_norms,
)
from poly_utils import dense_stability_probes, partial_block_grid

MAT = LameParams(mu=0.5, lam=1.0)


def test_fit_rate_pure_power_laws():
    hs = [0.25, 0.125, 0.0625, 0.03125]
    assert fit_rate(hs, [3.0 * h for h in hs]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rate(hs, [0.7 * h**1.5 for h in hs]) == pytest.approx(1.5, abs=1e-12)


def test_fit_rate_with_multiplicative_noise():
    hs = np.array([0.25, 0.125, 0.0625, 0.03125])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noise = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=hs.size)
        rate = fit_rate(hs, 2.0 * hs**1.5 * noise)
        assert 1.35 <= rate <= 1.65


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25, 0.125], [1.0, -0.5, 0.25])
    with pytest.raises(ValueError):
        fit_rate([0.25, 0.5, 0.125], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        fit_rate([0.5, 0.25, 0.0], [1.0, 0.5, 0.25])


def _solved_level(n=4):
    from elastmix.assembly import assemble, assemble_load
    from elastmix.solver import solve

    grid = unit_grid(2, n)
    dofs = build_dof_map(grid)
    exact = sine_solution(2, MAT)
    system = assemble(grid, MAT, dofs)
    load = assemble_load(grid, exact.f, dofs)
    sigma_h, u_h, _ = solve(system, load)
    return grid, dofs, exact, sigma_h, u_h


def test_hdiv_norm_pythagoras():
    grid, dofs, exact, sigma_h, u_h = _solved_level()
    rec = error_norms(grid, exact, sigma_h, u_h)
    assert rec.sigma_hdiv**2 == pytest.approx(
        rec.sigma_l2**2 + rec.sigma_div**2, rel=1e-13
    )


def test_error_norms_of_projection():
    # one element, u_1 = x1^2: distance to its linear projection is
    # sqrt(integral of (x^2 - x + 1/6)^2) = sqrt(1/180)
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)
    exact = sine_solution(2, MAT)

    def u(x):
        x = np.atleast_2d(x)
        out = np.zeros_like(x)
        out[:, 0] = x[:, 0] ** 2
        return out

    fake_exact = type(exact)(
        name="quadratic", dim=2, material=MAT, u=u, grad_u=exact.grad_u, f=exact.f
    )
    ph_u = project_displacement(grid, dofs, u)
    rec = error_norms(grid, fake_exact, StressField(dofs, np.zeros(dofs.n_stress)), ph_u)
    assert rec.u_l2 == pytest.approx(np.sqrt(1.0 / 180.0), rel=1e-12)


def test_error_norms_zero_fields_give_exact_norms():
    # with zero discrete fields the errors are the norms of the exact
    # solution; for mu = 1/2, lam = 0 these have closed forms
    material = LameParams(mu=0.5, lam=0.0)
    grid = unit_grid(2, 4)
    dofs = build_dof_map(grid)
    exact = sine_solution(2, material)
    rec = error_norms(
        grid,
        exact,
        StressField(dofs, np.zeros(dofs.n_stress)),
        DisplacementField(dofs, np.zeros(dofs.n_disp)),
    )
    assert rec.u_l2 == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert rec.sigma_l2 == pytest.approx(np.pi * np.sqrt(3.0) / 2.0, rel=1e-9)
    assert rec.sigma_div == pytest.approx(np.pi**2 * np.sqrt(5.0) / 2.0, rel=1e-9)


@pytest.mark.parametrize("dim", [2, 3])
def test_blocked_error_norms_match_whole_array(dim):
    grid = partial_block_grid(dim)
    dofs = build_dof_map(grid)
    exact = sine_solution(dim, MAT)
    rng = np.random.default_rng(dim)
    sigma_h = StressField(dofs, rng.standard_normal(dofs.n_stress))
    u_h = DisplacementField(dofs, rng.standard_normal(dofs.n_disp))
    rec = error_norms(grid, exact, sigma_h, u_h)

    pts, w = tensor_rule(5, dim)
    x = grid.element_origins()[:, None, :] + pts[None, :, :] * grid.spacing
    flat = x.reshape(-1, dim)
    sig = exact.sigma(flat).reshape(x.shape + (dim,)) - sigma_h.eval_elements(pts)
    div = exact.f(flat).reshape(x.shape) - sigma_h.div_elements(pts)
    u = exact.u(flat).reshape(x.shape) - u_h.eval_elements(pts)
    vol = grid.element_volume
    expected = {
        "sigma_l2": np.sqrt(vol * np.einsum("eqij,eqij,q->", sig, sig, w)),
        "sigma_div": np.sqrt(vol * np.einsum("eqi,eqi,q->", div, div, w)),
        "u_l2": np.sqrt(vol * np.einsum("eqi,eqi,q->", u, u, w)),
    }
    for name, value in expected.items():
        assert getattr(rec, name) == pytest.approx(value, rel=1e-13)


def test_superclose_unit_volume_coefficient():
    # a unit coefficient on one diagonal volume DOF has L2 norm
    # sqrt(int (6 xi - 6 xi^2)^2) = sqrt(6/5) on the unit element
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)
    base = np.zeros(dofs.n_stress)
    bumped = base.copy()
    bumped[dofs.diag_volume_index(0, (0, 0))] = 1.0
    zeros_u = DisplacementField(dofs, np.zeros(dofs.n_disp))
    rec = superclose_norms(
        StressField(dofs, bumped), StressField(dofs, base), zeros_u, zeros_u
    )
    assert rec.super_sigma_l2 == pytest.approx(np.sqrt(6.0 / 5.0), rel=1e-14)


def test_superclose_matches_global_gram_matvec():
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(44)
    a = rng.standard_normal(dofs.n_stress)
    b = rng.standard_normal(dofs.n_stress)
    ua = rng.standard_normal(dofs.n_disp)
    ub = rng.standard_normal(dofs.n_disp)
    rec = superclose_norms(
        StressField(dofs, a),
        StressField(dofs, b),
        DisplacementField(dofs, ua),
        DisplacementField(dofs, ub),
    )
    g_l2, g_div = assemble_stress_gram(grid, dofs)
    mass = assemble_disp_mass(grid, dofs)
    d, du = a - b, ua - ub
    assert rec.super_sigma_l2**2 == pytest.approx(d @ (g_l2 @ d), rel=1e-12)
    assert rec.super_sigma_hdiv**2 == pytest.approx(
        d @ ((g_l2 + g_div) @ d), rel=1e-12
    )
    assert rec.super_u_l2**2 == pytest.approx(du @ (mass @ du), rel=1e-12)


def test_superclose_identical_fields_zero():
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    s = StressField(dofs, np.random.default_rng(9).standard_normal(dofs.n_stress))
    u = DisplacementField(dofs, np.zeros(dofs.n_disp))
    rec = superclose_norms(s, s, u, u)
    assert rec.super_sigma_hdiv == 0.0
    assert rec.super_u_l2 == 0.0


def test_mismatched_maps_rejected():
    grid_a = unit_grid(2, 2)
    grid_b = unit_grid(2, 3)
    dofs_a = build_dof_map(grid_a)
    dofs_b = build_dof_map(grid_b)
    exact = sine_solution(2, MAT)
    sig_b = StressField(dofs_b, np.zeros(dofs_b.n_stress))
    u_b = DisplacementField(dofs_b, np.zeros(dofs_b.n_disp))
    with pytest.raises(ValueError):
        error_norms(grid_a, exact, sig_b, u_b)
    sig_a = StressField(dofs_a, np.zeros(dofs_a.n_stress))
    u_a = DisplacementField(dofs_a, np.zeros(dofs_a.n_disp))
    with pytest.raises(ValueError):
        superclose_norms(sig_a, sig_b, u_a, u_b)


def test_infsup_probe_positive_and_mesh_stable():
    betas = [infsup_probe(unit_grid(2, n), MAT) for n in (2, 4)]
    assert all(b > 0 for b in betas)
    assert betas[1] > 0.9 * betas[0]


def test_kernel_ellipticity_bounded_below():
    alpha = kernel_ellipticity_probe(unit_grid(2, 2), MAT)
    assert alpha >= MAT.compliance_floor(2) - 1e-10


def test_probe_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        infsup_probe(unit_grid(2, 32), MAT, max_dofs=3000)
    with pytest.raises(ValueError, match="budget"):
        kernel_ellipticity_probe(unit_grid(2, 32), MAT, max_dofs=100)


ANISO_BOX = ((0.0, 1.0), (-0.5, 1.5), (0.2, 0.9), (0.0, 0.5))


@pytest.mark.parametrize("lam", [1.0, 1e4])
@pytest.mark.parametrize("dim,n", [(2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (4, 2)])
def test_sparse_probes_match_dense_oracle(dim, n, lam):
    grid = build_grid(dim, ANISO_BOX[:dim], [n] * dim)
    mu = float(np.random.default_rng(10 * dim + n).uniform(0.3, 2.0))
    material = LameParams(mu=mu, lam=lam)
    beta, alpha = dense_stability_probes(grid, material)
    assert infsup_probe(grid, material) == pytest.approx(beta, rel=1e-10)
    assert kernel_ellipticity_probe(grid, material) == pytest.approx(alpha, rel=1e-10)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_probes_uniform_in_lambda(dim, n):
    grid = unit_grid(dim, n)
    betas = []
    for lam in (1.0, 1e4, 1e8):
        material = LameParams(mu=0.7, lam=lam)
        alpha = kernel_ellipticity_probe(grid, material)
        assert alpha == pytest.approx(material.compliance_floor(dim), rel=1e-6)
        betas.append(infsup_probe(grid, material))
    # B, the Grams and the displacement mass do not depend on the material
    assert betas[0] == betas[1] == betas[2]


def test_probes_need_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.linalg, "svd", refuse)
    grid = unit_grid(2, 12)
    assert infsup_probe(grid, MAT) > 0.9
    assert kernel_ellipticity_probe(grid, MAT) >= MAT.compliance_floor(2) - 1e-10


def test_infsup_probe_past_default_budget():
    assert build_dof_map(unit_grid(2, 32)).n_total == 9345
    beta = infsup_probe(unit_grid(2, 32), MAT, max_dofs=10_000)
    assert 0.9 <= beta <= 1.0


def test_probe_lu_fill_on_closure_pattern(monkeypatch):
    # COLAMD on the exact pattern of the Grams fills the inf-sup LU 3.5x
    # more (471k at 2D N=16); the closure pattern gives 133k for it and
    # 107k for the kernel probe's LU
    import scipy.sparse.linalg as spla

    fills = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    grid = unit_grid(2, 16)
    infsup_probe(grid, MAT)
    kernel_ellipticity_probe(grid, MAT)
    assert len(fills) == 2
    assert max(fills) < 200_000


def test_superclose_rate_exceeds_plain_rate():
    from elastmix.study import run_level

    hs, plain, close = [], [], []
    for n in (4, 8, 16):
        level = run_level(unit_grid(2, n), MAT, "sine")
        hs.append(level.record.h)
        plain.append(level.record.sigma_hdiv)
        close.append(level.record.super_sigma_hdiv)
    assert fit_rate(hs, close) >= fit_rate(hs, plain) + 0.35
