"""The benchmark's workloads: their inputs, one round of operations, and its checks.

A round is one whole pass over a workload's mesh levels; each level is one
operation.  Rounds run only the program's public functions; every check
runs outside the timed part of the round.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import require

LOAD_SAMPLE = 64  # elements per level whose load entries are re-integrated


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    levels: tuple[int, ...]
    tiny_levels: tuple[int, ...]
    kind: str = "study"  # "study" runs elastmix.study.run_study; "fields" never solves
    probes: bool = False
    seeded_material: bool = True
    iterative: bool = False  # tiny sizes lower the direct-solve limit so auto still runs MINRES


# The reasons for each workload are in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study2d", 2, (16, 32, 64, 128), (4, 8, 16, 32)),
        Workload("study3d", 3, (4, 6, 8, 10, 12), (4, 6, 8, 10)),
        Workload("switch2d", 2, (150,), (16,), seeded_material=False, iterative=True),
        Workload("fields2d", 2, (64, 128, 256, 512), (8, 16, 32, 64), kind="fields"),
        Workload("probes2d", 2, (8, 12, 16, 18), (4, 6, 8), probes=True),
    )
}


def material_for(workload: Workload, seed: int) -> tuple[float, float]:
    """Lame parameters (mu, lam) drawn from the seed.

    switch2d keeps the default material: its operation fails on a fault of
    the program, and that must not depend on the seed.
    """
    if not workload.seeded_material:
        return 0.5, 1.0
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.5, 1.5))


@dataclass
class RoundResult:
    wall: float
    attempted: int
    failed: int
    residuals: list[float]  # residuals reached by the failed solves
    warnings: list[str] = field(default_factory=list)  # raised by the program


class SolveCapture:
    """Wraps ``elastmix.study.solve``: recomputes every residual, records failures.

    The recomputation is one sparse product per level, small next to the solve.
    """

    def __init__(self, solver_error):
        self.solver_error = solver_error
        self.solved: list[tuple[int, float]] = []  # (N, recomputed residual)
        self.failures: list[float] = []

    @contextlib.contextmanager
    def installed(self, study_module):
        solve = study_module.solve

        @functools.wraps(solve)
        def captured(system, load, tol=1e-11, method="auto"):
            try:
                sigma_h, u_h, report = solve(system, load, tol=tol, method=method)
            except self.solver_error as exc:
                self.failures.append(getattr(exc, "residual", float("nan")))
                raise
            n = system.dofs.grid.subdivisions[0]
            residual = checks.saddle_residual(
                system.M, system.B, sigma_h.coeffs, u_h.coeffs, load
            )
            self.solved.append((n, residual))
            return sigma_h, u_h, report

        study_module.solve = captured
        try:
            yield self
        finally:
            study_module.solve = solve


class Runner:
    """Runs set-up passes and rounds of one workload against the program."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, out_dir: Path, elastmix):
        self.workload = workload
        self.levels = workload.tiny_levels if tiny else workload.levels
        self.mu, self.lam = material_for(workload, seed)
        self.seed = seed
        self.em = elastmix  # namespace with the program's modules
        self.material = elastmix.material.LameParams(self.mu, self.lam)
        self.config = elastmix.study.StudyConfig(
            dim=workload.dim,
            levels=self.levels,
            mu=self.mu,
            lam=self.lam,
            solution="sine",
            output=str(out_dir / "study.csv"),
            probe_infsup=workload.probes,
        )
        if tiny and workload.iterative:
            first = sum(checks.dof_counts(workload.dim, self.levels[0]))
            elastmix.solver.DIRECT_SIZE_LIMIT = first - 1

    # -- set-up --------------------------------------------------------------

    def setup_pass(self) -> float:
        """Build grid, DOF map, M, B and load for every level; return its time."""
        study = self.em.study
        start = time.perf_counter()
        built = []
        for n in self.levels:
            grid = self.em.grid.unit_grid(self.workload.dim, n)
            exact = study.solution_by_name("sine", self.workload.dim, self.material)
            dofs = study.build_dof_map(grid)
            system = study.assemble(grid, self.material, dofs)
            load = study.assemble_load(grid, exact.f, dofs)
            built.append((n, dofs.n_stress, dofs.n_disp, system.M.shape, load.shape))
            del system, load, dofs
        elapsed = time.perf_counter() - start
        for n, n_stress, n_disp, m_shape, load_shape in built:
            checks.check_dof_counts(self.workload.dim, n, n_stress, n_disp)
            require(m_shape == (n_stress, n_stress), f"N={n}: M has shape {m_shape}")
            require(load_shape == (n_disp,), f"N={n}: load has shape {load_shape}")
        return elapsed

    # -- rounds --------------------------------------------------------------

    def run_round(self, tracer=None) -> RoundResult:
        if tracer is None:
            traced = contextlib.nullcontext()
        else:
            traced = tracer.installed(self.em.study, self.em.solver)
        with traced:
            if self.workload.kind == "fields":
                return self._fields_round(tracer)
            return self._study_round()

    def _study_round(self) -> RoundResult:
        study = self.em.study
        capture = SolveCapture(self.em.solver.SolverError)
        result = None
        with capture.installed(study), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = study.run_study(self.config)
            except self.em.solver.SolverError:
                pass
            wall = time.perf_counter() - start
        tol = self.config.solver_tol
        for n, residual in capture.solved:
            checks.check_residual(n, residual, tol)
        # run_study stops at the first SolverError: that level and the ones
        # after it are failed operations
        failed = len(self.levels) - len(capture.solved)
        require(
            len(capture.failures) == (result is None),
            f"{len(capture.failures)} solver failures, study finished: {result is not None}",
        )
        if result is not None:
            self._check_study_output(result)
        warned = sorted({str(w.message) for w in caught})
        return RoundResult(wall, len(self.levels), failed, capture.failures, warned)

    def _check_study_output(self, result) -> None:
        with open(result.csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        rate_row = rows[-1] if rows and rows[-1]["level"] == "rate" else None
        level_rows = [r for r in rows if r["level"] != "rate"]
        checks.check_study(level_rows, rate_row, result.levels, self.config)
        if self.workload.probes:
            checks.check_probes(level_rows, self.config)

    def _fields_round(self, tracer) -> RoundResult:
        """Assembly, interpolation and norms per level, with no solve.

        Only the program calls are timed; each level's checks run between
        them so that at most one level's arrays are alive at a time.
        """
        em, dim = self.em, self.workload.dim
        study = em.study
        norms = checks.exact_norms(dim, self.mu, self.lam)
        rng = np.random.default_rng(self.seed)
        wall = 0.0
        measured = []
        for n in self.levels:
            span = tracer.span("study.fields_level", "study") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                grid = em.grid.unit_grid(dim, n)
                exact = study.solution_by_name("sine", dim, self.material)
                dofs = study.build_dof_map(grid)
                system = study.assemble(grid, self.material, dofs)
                load = study.assemble_load(grid, exact.f, dofs)
                pi_sigma = study.interp_stress(grid, dofs, exact.sigma)
                ph_u = study.project_displacement(grid, dofs, exact.u)
                record = study.error_norms(grid, exact, pi_sigma, ph_u)
                zero_sigma = em.interpolate.StressField(dofs, np.zeros(dofs.n_stress))
                zero_u = em.interpolate.DisplacementField(dofs, np.zeros(dofs.n_disp))
                size = study.superclose_norms(pi_sigma, zero_sigma, ph_u, zero_u)
            wall += time.perf_counter() - start

            checks.check_dof_counts(dim, n, dofs.n_stress, dofs.n_disp)
            count = min(LOAD_SAMPLE, grid.n_elements)
            sample = np.sort(rng.choice(grid.n_elements, size=count, replace=False))
            reference = checks.sampled_load(n, dim, self.mu, self.lam, sample)
            checks.check_load_sample(n, load[dofs.element_disp[sample]], reference)
            checks.check_norm_gap(n, "sigma", size.super_sigma_l2, norms["sigma"], record.sigma_l2)
            checks.check_norm_gap(n, "div sigma", size.super_sigma_div, norms["div"], record.sigma_div)
            checks.check_norm_gap(n, "u", size.super_u_l2, norms["u"], record.u_l2)
            defect = system.B @ pi_sigma.coeffs - load
            measured.append({
                "n": n,
                "err_sigma_hdiv": record.sigma_hdiv,
                "err_u_l2": record.u_l2,
                "commuting": float(np.linalg.norm(defect) / np.linalg.norm(load)),
            })
            del grid, exact, dofs, system, load, pi_sigma, ph_u, zero_sigma, zero_u, defect
        checks.check_fields(measured, dim)
        return RoundResult(wall, len(self.levels), 0, [])

