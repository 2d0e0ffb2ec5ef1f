import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from elastmix.assembly import build_dof_map
from elastmix.grid import TensorGrid, unit_grid
from elastmix.interpolate import (
    DisplacementField,
    StressField,
    interp_stress,
    project_displacement,
)
from elastmix.manufactured import AxisField, sine_solution
from elastmix.material import LameParams
import elastmix.verify
from elastmix.verify import (
    error_norms,
    fit_rate,
    infsup_probe,
    kernel_ellipticity_probe,
    superclose_norms,
)
from poly_utils import (
    dense_stability_probes,
    divergence,
    element_origins,
    eval_elements,
    grams_and_mass,
    partial_block_grid,
    pointwise_error_norms,
    random_box,
    tensor_rule,
)

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

    fake_exact = dataclasses.replace(exact, name="quadratic", u=u)
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
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    flat = x.reshape(-1, dim)
    sig = exact.sigma(flat).reshape(x.shape + (dim,)) - eval_elements(sigma_h, pts)
    div = exact.f(flat).reshape(x.shape) - eval_elements(divergence(sigma_h), pts)
    u = exact.u(flat).reshape(x.shape) - eval_elements(u_h, pts)
    vol = grid.element_volume
    expected = {
        "sigma_l2": np.sqrt(vol * np.einsum("eqij,eqij,q->", sig, sig, w)),
        "sigma_div": np.sqrt(vol * np.einsum("eqi,eqi,q->", div, div, w)),
        "u_l2": np.sqrt(vol * np.einsum("eqi,eqi,q->", u, u, w)),
    }
    for name, value in expected.items():
        assert getattr(rec, name) == pytest.approx(value, rel=1e-13)


def _interpolated(grid, exact):
    dofs = build_dof_map(grid)
    return interp_stress(grid, dofs, exact.sigma), project_displacement(grid, dofs, exact.u)


def test_error_norms_of_the_interpolants_match_pointwise_quadrature():
    # sigma_h = Pi sigma and u_h = P_h u at 2D N=128: the errors are 1e-3 to
    # 1e-2 of the norms, so the split cancels the most here of the levels
    # the tests run
    grid = unit_grid(2, 128)
    exact = sine_solution(2, MAT)
    pi_sigma, ph_u = _interpolated(grid, exact)
    rec = error_norms(grid, exact, pi_sigma, ph_u)
    oracle = pointwise_error_norms(grid, exact, pi_sigma, ph_u)
    for name, expected in zip(("sigma_l2", "sigma_div", "u_l2"), oracle):
        assert abs(getattr(rec, name) - expected) <= 1e-10 * expected, name


def test_error_norms_nearly_incompressible_are_finite():
    # sigma and f grow as lam; nothing may overflow or turn into NaN
    material = LameParams(mu=0.5, lam=1e8)
    grid = unit_grid(2, 16)
    exact = sine_solution(2, material)
    pi_sigma, ph_u = _interpolated(grid, exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = error_norms(grid, exact, pi_sigma, ph_u)
    values = [rec.sigma_l2, rec.sigma_div, rec.sigma_hdiv, rec.u_l2]
    assert all(0 < v < np.inf for v in values), values


def _constant_stress(dim, value):
    """sigma = value everywhere, as a separable field (phi = 1 on every axis)."""
    one = lambda x: np.ones_like(x)  # noqa: E731
    terms = {
        (i, j): ((float(value[i, j]), ((0,) * dim,)),) for i in range(dim) for j in range(dim)
    }
    return AxisField((one, one, one), (dim, dim), terms)


@pytest.mark.parametrize("path", ["separable", "points"])
def test_error_norms_of_a_constant_stress_vanish(path):
    # a constant stress lies in the discrete space, so its interpolant is
    # exact and the first part of the split cancels to rounding; the clamp
    # keeps its square root real
    dim = 2
    grid = TensorGrid(dim, ((0.0, 1.0), (-0.5, 2.0)), (9, 7))
    value = np.array([[3.0, -1.5], [-1.5, 0.25]])
    sigma = _constant_stress(dim, value)
    if path == "points":
        sigma = (lambda field: lambda x: field(x))(sigma)
    exact = dataclasses.replace(sine_solution(dim, MAT), sigma=sigma)
    dofs = build_dof_map(grid)
    pi_sigma = interp_stress(grid, dofs, sigma)
    rec = error_norms(grid, exact, pi_sigma, DisplacementField(dofs, np.zeros(dofs.n_disp)))
    norm = np.sqrt(np.sum(value**2) * np.prod(grid.hi - grid.lo))
    assert np.isfinite(rec.sigma_l2)
    assert rec.sigma_l2 <= 1e-7 * norm


def test_superclose_unit_volume_coefficient():
    # a unit coefficient on one diagonal volume DOF has L2 norm
    # sqrt(int (6 xi - 6 xi^2)^2) = sqrt(6/5) on the unit element
    grid = unit_grid(2, 1)
    dofs = build_dof_map(grid)
    base = np.zeros(dofs.n_stress)
    bumped = base.copy()
    bumped[dofs.element_stress[0, 2]] = 1.0  # local DOF 2: the volume DOF of s_00
    zeros_u = DisplacementField(dofs, np.zeros(dofs.n_disp))
    rec = superclose_norms(
        StressField(dofs, bumped), StressField(dofs, base), zeros_u, zeros_u
    )
    assert rec.super_sigma_l2 == pytest.approx(np.sqrt(6.0 / 5.0), rel=1e-14)


def test_superclose_matches_global_gram_matvec(monkeypatch):
    grid = unit_grid(2, 3)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(44)
    a = rng.standard_normal(dofs.n_stress)
    b = rng.standard_normal(dofs.n_stress)
    ua = rng.standard_normal(dofs.n_disp)
    ub = rng.standard_normal(dofs.n_disp)
    fields = (
        StressField(dofs, a),
        StressField(dofs, b),
        DisplacementField(dofs, ua),
        DisplacementField(dofs, ub),
    )
    g_l2, g_div, mass = grams_and_mass(grid, dofs)
    d, du = a - b, ua - ub
    # the forms are summed over slabs of cells: one slab, then slabs of 7
    # cells, the last one partial
    for block_points in (None, 70):
        if block_points is not None:
            monkeypatch.setattr(elastmix.verify, "BLOCK_POINTS", block_points)
        rec = superclose_norms(*fields)
        assert rec.super_sigma_l2**2 == pytest.approx(d @ (g_l2 @ d), rel=1e-12)
        assert rec.super_sigma_hdiv**2 == pytest.approx(
            d @ ((g_l2 + g_div) @ d), rel=1e-12
        )
        assert rec.super_u_l2**2 == pytest.approx(du @ (mass @ du), rel=1e-12)


@pytest.mark.parametrize("dim, subs", [(2, (5, 3)), (3, (3, 2, 4))], ids=["2d", "3d"])
def test_superclose_div_norm_matches_quadrature_form(dim, subs):
    # the div norm reads the mapped coefficients in the displacement mass;
    # the oracle integrates the pointwise divergence of the basis
    rng = np.random.default_rng(50 + dim)
    grid = TensorGrid(dim, list(zip(*random_box(dim, rng))), subs)
    dofs = build_dof_map(grid)
    a, b = rng.standard_normal((2, dofs.n_stress))
    u = DisplacementField(dofs, np.zeros(dofs.n_disp))
    rec = superclose_norms(StressField(dofs, a), StressField(dofs, b), u, u)
    _, g_div, _ = grams_and_mass(grid, dofs)
    d = a - b
    assert rec.super_sigma_div**2 == pytest.approx(d @ (g_div @ d), rel=1e-12)


def test_superclose_norms_peak_memory_by_cell_slabs():
    # whole-mesh (n_elements, nfun) difference tables took 40 MiB here
    grid = unit_grid(2, 512)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(61)
    a, b = rng.standard_normal((2, dofs.n_stress))
    ua, ub = rng.standard_normal((2, dofs.n_disp))
    fields = (
        StressField(dofs, a),
        StressField(dofs, b),
        DisplacementField(dofs, ua),
        DisplacementField(dofs, ub),
    )
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        rec = superclose_norms(*fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(rec.super_sigma_hdiv) and np.isfinite(rec.super_u_l2)
    assert peak - before < 8 * 2**20


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
    betas = [infsup_probe(unit_grid(2, n)) for n in (2, 4)]
    assert all(b > 0 for b in betas)
    assert betas[1] > 0.9 * betas[0]


def test_kernel_ellipticity_bounded_below():
    # on the kernel of B the bound 1/(2 mu + n lam) of the compliance is
    # attained by the constant identity, which every grid's stress space
    # holds; the probe returns that closed form, so the dense eigensolve on
    # an SVD basis of the kernel is what is checked against it
    grids = [
        unit_grid(2, 4), unit_grid(2, 12), unit_grid(3, 4),
        TensorGrid(2, ((0.0, 3.0), (0.0, 1.0)), (9, 4)),
    ]
    for grid in grids:
        for mu, lam in [(0.5, 1.0), (0.5, 1e4), (3.0, 0.0), (0.2, 7.0), (0.7, 2.0)]:
            material = LameParams(mu=mu, lam=lam)
            _, alpha = dense_stability_probes(grid, material)
            assert alpha == pytest.approx(1 / material.trace_factor(grid.dim), rel=1e-10, abs=0)


def test_probe_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        infsup_probe(unit_grid(2, 32), max_dofs=3000)


ANISO_BOX = ((0.0, 1.0), (-0.5, 1.5), (0.2, 0.9), (0.0, 0.5))


@pytest.mark.parametrize("lam", [1.0, 1e4])
@pytest.mark.parametrize("dim,n", [(2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (4, 2)])
def test_sparse_probes_match_dense_oracle(dim, n, lam):
    grid = TensorGrid(dim, ANISO_BOX[:dim], (n,) * dim)
    mu = float(np.random.default_rng(10 * dim + n).uniform(0.3, 2.0))
    material = LameParams(mu=mu, lam=lam)
    beta, alpha = dense_stability_probes(grid, material)
    assert infsup_probe(grid) == pytest.approx(beta, rel=1e-10)
    assert kernel_ellipticity_probe(grid, material) == pytest.approx(alpha, rel=1e-10, abs=0)
    assert alpha == pytest.approx(1 / material.trace_factor(dim), rel=1e-10, abs=0)


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 2)])
def test_probes_uniform_in_lambda(dim, n):
    # B, the Grams and the displacement mass do not depend on the material,
    # so infsup_probe takes none; the dense oracle's beta and alpha are
    # formed from the assembled system at each lam
    grid = unit_grid(dim, n)
    beta_h = infsup_probe(grid)
    for lam in (1.0, 1e4, 1e8):
        material = LameParams(mu=0.7, lam=lam)
        beta, alpha = dense_stability_probes(grid, material)
        assert kernel_ellipticity_probe(grid, material) == pytest.approx(alpha, rel=1e-6, abs=0)
        assert beta_h == pytest.approx(beta, rel=1e-10)


def test_probes_need_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.linalg, "svd", refuse)
    grid = unit_grid(2, 12)
    assert infsup_probe(grid) > 0.9
    assert kernel_ellipticity_probe(grid, MAT) >= 1 / MAT.trace_factor(2) - 1e-10


def test_infsup_probe_past_default_budget():
    assert build_dof_map(unit_grid(2, 32)).n_total == 9345
    beta = infsup_probe(unit_grid(2, 32), max_dofs=10_000)
    assert 0.9 <= beta <= 1.0


def test_probe_lu_fill_on_closure_pattern(monkeypatch):
    # COLAMD on the exact pattern of the Grams fills the inf-sup LU 3.5x
    # more (471k at 2D N=16); the cell sum of the local saddle blocks stores
    # every local entry, the element-closure pattern, which gives 140k.  It
    # is the one LU of a probed level: the kernel probe is a closed form
    import scipy.sparse.linalg as spla

    fills = []
    splu = spla.splu

    def recording_splu(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    grid = unit_grid(2, 16)
    infsup_probe(grid)
    kernel_ellipticity_probe(grid, MAT)
    assert len(fills) == 1
    assert max(fills) < 200_000


def test_kernel_ellipticity_is_closed_form(monkeypatch):
    import scipy.sparse.linalg as spla

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel probe factored or eigensolved")

    monkeypatch.setattr(spla, "splu", refuse)
    monkeypatch.setattr(spla, "eigsh", refuse)
    for dim in (2, 3, 4):
        for mu, lam in [(0.5, 1.0), (0.7, 1e8), (3.0, 0.0)]:
            material = LameParams(mu=mu, lam=lam)
            alpha = kernel_ellipticity_probe(unit_grid(dim, 64), material)
            assert alpha == 1.0 / material.trace_factor(dim)


def test_probes_assemble_nothing_and_never_factor_the_metric(monkeypatch):
    # the saddle matrix and the metric are cell sums of local matrices, and
    # shift-invert eigsh only multiplies by the metric: no global assembly
    # and no second LU, which eigsh's regular generalized mode would take
    import importlib

    import elastmix.assembly

    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")

    def refuse(*args, **kwargs):
        raise AssertionError("global assembly or a factorization of the metric")

    monkeypatch.setattr(elastmix.assembly, "_stress_csr", refuse)
    monkeypatch.setattr(elastmix.assembly, "_disp_csr", refuse)
    monkeypatch.setattr(arpack, "get_inv_matvec", refuse)
    grid = unit_grid(2, 8)
    assert 0.9 <= infsup_probe(grid) <= 1.0
    assert kernel_ellipticity_probe(grid, MAT) == pytest.approx(1 / MAT.trace_factor(2), rel=1e-9)


def test_superclose_rate_exceeds_plain_rate():
    from elastmix.study import run_level

    hs, plain, close = [], [], []
    for n in (4, 8, 16):
        level = run_level(unit_grid(2, n), MAT, "sine")
        hs.append(level.record.h)
        plain.append(level.record.sigma_hdiv)
        close.append(level.record.super_sigma_hdiv)
    assert fit_rate(hs, close) >= fit_rate(hs, plain) + 0.35


@pytest.mark.filterwarnings("error")
def test_superclose_norms_finite_nearly_incompressible():
    # the div-div form of sigma_h - Pi sigma is zero in exact arithmetic and
    # rounded below zero here, which made super_sigma_div NaN
    from elastmix.study import run_level

    for n in (8, 16, 32):
        record = run_level(unit_grid(2, n), LameParams(mu=0.5, lam=1e8), "sine").record
        assert np.isfinite(record.super_sigma_div)
        assert np.isfinite(record.super_sigma_hdiv)
