"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities (visible under pytest -s and in
failure output)."""

import time

import numpy as np
import pytest

from elastmix.assembly import assemble, assemble_load, build_dof_map
from elastmix.element import disp_mass, element_table
from elastmix.grid import TensorGrid, unit_grid
from elastmix.interpolate import interp_stress
from elastmix.material import LameParams
from elastmix.solver import solve
from elastmix.study import StudyConfig, run_level, run_study
from elastmix.verify import fit_rate, infsup_probe, kernel_ellipticity_probe
from poly_utils import (
    PolyTensorField,
    element_origins,
    eval_disp_basis,
    eval_elements,
    eval_stress_basis_div,
    full_matrix,
    local_dofs,
    local_field,
    random_box,
    random_spacing,
    tensor_rule,
)

MAT = LameParams(mu=0.5, lam=1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def study_2d(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "study2d.csv"
    start = time.perf_counter()
    result = run_study(
        StudyConfig(
            dim=2, levels=(4, 8, 16, 32), mu=0.5, lam=1.0,
            solution="sine", output=str(out),
        )
    )
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_3d(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance3d") / "study3d.csv"
    start = time.perf_counter()
    result = run_study(
        StudyConfig(
            dim=3, levels=(2, 4, 8), mu=0.5, lam=1.0,
            solution="sine", output=str(out),
        )
    )
    return result, time.perf_counter() - start


def test_criterion_1_divergence_orthogonality():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        rng = np.random.default_rng(1000 + dim)
        pts, w = tensor_rule(3, dim)
        psi = eval_disp_basis(dim, pts)
        for _ in range(100):
            box = random_box(dim, rng)
            lo, hi = box
            vol = float(np.prod(hi - lo))
            field = PolyTensorField.random(dim, rng, degree=2)
            _, interp_div = local_field(local_dofs(field, box), box)
            x = lo + pts * (hi - lo)
            div_diff = field.divergence(x) - interp_div(x)
            moments = vol * np.einsum("qi,bqi,q->b", div_diff, psi, w)
            raw = vol * np.einsum("qi,bqi,q->b", field.divergence(x), psi, w)
            scale = max(1.0, float(np.abs(raw).max()))
            worst = max(worst, float(np.abs(moments).max()) / scale)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (divergence moments of interpolation error vanish)",
        worst <= 1e-12 and elapsed < 5.0,
        f"max scaled moment {worst:.2e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_2_shear_orthogonality():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        rng = np.random.default_rng(2000 + dim)
        pts, w = tensor_rule(3, dim)
        for _ in range(100):
            box = random_box(dim, rng)
            lo, hi = box
            h = hi - lo
            vol = float(np.prod(h))
            field = PolyTensorField.random(dim, rng, degree=1)
            interp, _ = local_field(local_dofs(field, box), box)
            x = lo + pts * h
            xi = (x - lo) / h
            diff = field(x) - interp(x)
            for i in range(dim):
                for j in range(i + 1, dim):
                    scale = max(1.0, vol * float(np.abs(field(x)[:, i, j]).max()))
                    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
                        test_fn = (xi[:, i] ** a) * (xi[:, j] ** b)
                        inner = vol * float(
                            np.einsum("q,q,q->", diff[:, i, j], test_fn, w)
                        )
                        worst = max(worst, abs(inner) / scale)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (shear interpolation error L2-orthogonal to bilinears)",
        worst <= 1e-12 and elapsed < 5.0,
        f"max scaled inner product {worst:.2e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_3_kernel_inclusion():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4):
        h = random_spacing(dim, np.random.default_rng(3000 + dim))
        vol = float(np.prod(h))
        pts, w = tensor_rule(3, dim)
        div = eval_stress_basis_div(dim, pts, h)
        psi = eval_disp_basis(dim, pts)
        gram = disp_mass(h)
        for a in range(len(element_table(dim))):
            moments = vol * np.einsum("qi,bqi,q->b", div[a], psi, w)
            proj = np.einsum("b,bqi->qi", np.linalg.solve(gram, moments), psi)
            resid = div[a] - proj
            resid_norm = np.sqrt(vol * np.einsum("qi,qi,q->", resid, resid, w))
            div_norm = np.sqrt(vol * np.einsum("qi,qi,q->", div[a], div[a], w))
            worst = max(worst, resid_norm / max(1.0, div_norm))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (every shape function's divergence lies in the local space)",
        worst <= 1e-13 and elapsed < 5.0,
        f"max projection residual {worst:.2e} (tol 1e-13), {elapsed:.2f}s",
    )


def test_criterion_4_global_reproduction():
    start = time.perf_counter()
    grid = unit_grid(2, 4)
    dofs = build_dof_map(grid)
    rng = np.random.default_rng(4000)
    diag = rng.standard_normal((2, 3))
    q1 = rng.standard_normal(4)

    def field(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 2))
        for i in range(2):
            a, b, c = diag[i]
            out[:, i, i] = a + b * x[:, i] + c * x[:, i] ** 2
        vals = q1[0] + q1[1] * x[:, 0] + q1[2] * x[:, 1] + q1[3] * x[:, 0] * x[:, 1]
        out[:, 0, 1] = out[:, 1, 0] = vals
        return out

    interp = interp_stress(grid, dofs, field)
    pts, _ = tensor_rule(4, 2)
    x = element_origins(grid)[:, None, :] + pts[None, :, :] * grid.spacing
    exact = field(x.reshape(-1, 2)).reshape(x.shape[0], -1, 2, 2)
    gap = float(np.abs(eval_elements(interp, pts) - exact).max())
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (interpolation reproduces the discrete space on a 4x4 grid)",
        gap <= 1e-11 and elapsed < 5.0,
        f"max pointwise gap {gap:.2e} (tol 1e-11), {elapsed:.2f}s",
    )


def test_criterion_5_first_order_convergence(study_2d):
    result, elapsed = study_2d
    rate_hdiv = result.rates["err_sigma_hdiv"]
    rate_u = result.rates["err_u_l2"]
    ok = 0.85 <= rate_hdiv <= 1.30 and 0.85 <= rate_u <= 1.30 and elapsed < 120.0
    _report(
        "criterion 5 (first-order stress Hdiv and displacement L2 rates)",
        ok,
        f"stress Hdiv rate {rate_hdiv:.3f}, displacement rate {rate_u:.3f} "
        f"(window [0.85, 1.30]), study {elapsed:.1f}s",
    )


def test_criterion_6_superconvergence_2d(study_2d):
    result, _ = study_2d
    rate_s = result.rates["super_sigma_hdiv"]
    rate_u = result.rates["super_u_l2"]
    strict = all(
        lv.record.super_sigma_hdiv < lv.record.sigma_hdiv
        and lv.record.super_u_l2 < lv.record.u_l2
        for lv in result.levels
        if lv.n >= 8
    )
    ok = rate_s >= 1.40 and rate_u >= 1.40 and strict
    _report(
        "criterion 6 (superclose rates >= 1.40 and below plain errors)",
        ok,
        f"superclose Hdiv rate {rate_s:.3f}, displacement rate {rate_u:.3f}, "
        f"strictly smaller on N >= 8: {strict}",
    )


def test_criterion_7_superconvergence_3d(study_3d):
    result, elapsed = study_3d
    rate = result.rates["super_sigma_hdiv"]
    ok = rate >= 1.30 and elapsed < 600.0
    _report(
        "criterion 7 (3D superclose Hdiv rate)",
        ok,
        f"rate {rate:.3f} (needs >= 1.30), study {elapsed:.1f}s",
    )


@pytest.mark.parametrize(
    "dim, subdivisions",
    [(2, [(4 * n, n) for n in (4, 8, 16)]), (3, [(3 * m, 2 * m, m) for m in (2, 4, 8)])],
    ids=["2d_4n_by_n", "3d_three_counts"],
)
def test_criteria_5_to_7_on_rectangular_grids(dim, subdivisions):
    # unequal axis counts on the unit box: every preconditioner group has one
    # member, and the largest stress group, which sizes the plan's pool, is
    # not the first one built
    start = time.perf_counter()
    levels = [
        run_level(TensorGrid(dim, [(0.0, 1.0)] * dim, subs), MAT, "sine")
        for subs in subdivisions
    ]
    elapsed = time.perf_counter() - start
    hs = [lv.record.h for lv in levels]
    rates = {
        name: fit_rate(hs, [getattr(lv.record, name) for lv in levels])
        for name in ("sigma_l2", "sigma_div", "sigma_hdiv", "u_l2",
                     "super_sigma_hdiv", "super_u_l2")
    }
    worst = max(lv.report.residual for lv in levels)
    energy_worst = max(lv.energy_residual for lv in levels)
    ok = (
        all(rate >= (1.8 if name.startswith("super") else 0.9) for name, rate in rates.items())
        and worst <= 1e-11
        and energy_worst <= 1e-9
    )
    _report(
        f"criteria 5-7 on {dim}D grids {subdivisions}",
        ok,
        ", ".join(f"{name} rate {rate:.3f}" for name, rate in rates.items())
        + " (need >= 0.9 for errors, >= 1.8 superclose), "
        f"worst solve residual {worst:.2e} (tol 1e-11), "
        f"worst energy residual {energy_worst:.2e} (tol 1e-9), {elapsed:.1f}s",
    )


def test_criterion_8_stability_probes():
    start = time.perf_counter()
    betas = []
    alphas = []
    for n in (2, 4, 8):
        grid = unit_grid(2, n)
        betas.append(infsup_probe(grid))
        alphas.append(kernel_ellipticity_probe(grid, MAT))
    decay_ok = all(b2 > 0.9 * b1 for b1, b2 in zip(betas, betas[1:]))
    floor = 1 / MAT.trace_factor(2) - 1e-10
    elapsed = time.perf_counter() - start
    ok = (
        all(b > 0.05 for b in betas)
        and decay_ok
        and all(a >= floor for a in alphas)
        and elapsed < 60.0
    )
    _report(
        "criterion 8 (inf-sup and kernel ellipticity probes)",
        ok,
        f"beta_h {['%.4f' % b for b in betas]}, alpha {['%.6f' % a for a in alphas]} "
        f"(floor {floor:.6f}), {elapsed:.1f}s",
    )


@pytest.mark.parametrize("dim, levels", [(3, (2, 4, 6, 8)), (4, (2, 3, 4))], ids=["3d", "4d"])
def test_criterion_8_stability_probes_any_dimension(dim, levels):
    start = time.perf_counter()
    hs, betas, alphas = [], [], []
    for n in levels:
        grid = unit_grid(dim, n)
        hs.append(grid.max_spacing)
        betas.append(infsup_probe(grid, max_dofs=10_000))
        alphas.append(kernel_ellipticity_probe(grid, MAT))
    slope = fit_rate(hs, betas)
    floor = (1.0 - 1e-9) / MAT.trace_factor(dim)
    elapsed = time.perf_counter() - start
    ok = (
        all(0.9 <= b <= 1.0 for b in betas)
        and abs(slope) <= 0.01
        and all(a >= floor for a in alphas)
    )
    _report(
        f"criterion 8 in {dim}D (h-stable inf-sup, kernel ellipticity)",
        ok,
        f"beta_h {['%.5f' % b for b in betas]} (slope {slope:.4f} against h), "
        f"alpha {['%.6f' % a for a in alphas]} (floor {floor:.6f}), {elapsed:.1f}s",
    )


def test_criterion_9_solver_fidelity(study_2d, study_3d):
    grid = unit_grid(2, 2)
    dofs = build_dof_map(grid)
    system = assemble(grid, MAT, dofs)
    from elastmix.manufactured import sine_solution

    load = assemble_load(grid, sine_solution(2, MAT).f, dofs)
    sigma, u, _ = solve(system, load)
    dense = np.linalg.solve(
        full_matrix(system).toarray(),
        np.concatenate([np.zeros(dofs.n_stress), load]),
    )
    x = np.concatenate([sigma.coeffs, u.coeffs])
    oracle_gap = float(np.linalg.norm(x - dense) / np.linalg.norm(dense))

    energy_worst = max(
        lv.energy_residual for lv in study_2d[0].levels + study_3d[0].levels
    )
    ok = oracle_gap <= 1e-9 and energy_worst <= 1e-9
    _report(
        "criterion 9 (dense-oracle match and energy identity)",
        ok,
        f"oracle gap {oracle_gap:.2e} (tol 1e-9), "
        f"worst energy residual {energy_worst:.2e} (tol 1e-9)",
    )


def test_criterion_10_four_dimensions(tmp_path):
    start = time.perf_counter()
    result = run_study(
        StudyConfig(
            dim=4, levels=(4, 6, 8), mu=0.5, lam=1.0,
            solution="sine", output=str(tmp_path / "study4d.csv"),
        )
    )
    elapsed = time.perf_counter() - start
    rates = result.rates
    energy_worst = max(lv.energy_residual for lv in result.levels)
    ok = (
        rates["err_sigma_hdiv"] >= 0.9
        and rates["err_u_l2"] >= 0.9
        and rates["super_sigma_hdiv"] >= 1.6
        and rates["super_u_l2"] >= 1.6
        and energy_worst <= 1e-9
    )
    _report(
        "criterion 10 (4D rates, superclose rates and energy identity)",
        ok,
        f"stress Hdiv rate {rates['err_sigma_hdiv']:.3f}, displacement rate "
        f"{rates['err_u_l2']:.3f} (need >= 0.9), superclose Hdiv rate "
        f"{rates['super_sigma_hdiv']:.3f}, displacement rate {rates['super_u_l2']:.3f} "
        f"(need >= 1.6), worst energy residual {energy_worst:.2e} (tol 1e-9), "
        f"study {elapsed:.1f}s",
    )
