"""Batch convergence studies: solve a mesh sequence, measure, fit rates, emit tables.

The CSV written here is the source of truth: one row per level with errors,
superclose norms, DOF counts, the solver residual and the level wall time,
followed by a summary row (level = "rate") holding the fitted log-log slopes.
A human-readable markdown table is derived from the CSV afterwards.  Apart
from the wall-time column, two runs with the same configuration produce
byte-identical CSV bodies.

When four or more levels are available the rate fit drops the coarsest one
(pre-asymptotic pollution); the levels actually used are recorded in the
result and in the markdown metadata.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .assembly import assemble, assemble_load, build_dof_map
from .grid import TensorGrid, unit_grid
from .interpolate import interp_stress, project_displacement
from .manufactured import SOLUTIONS, solution_by_name
from .material import LameParams
from .solver import SolveReport, solve
from .verify import (
    ErrorRecord,
    error_norms,
    fit_rate,
    infsup_probe,
    kernel_ellipticity_probe,
    superclose_norms,
)

BASE_COLUMNS = (
    "level", "N", "h", "stress_dofs", "disp_dofs",
    "err_sigma_l2", "err_sigma_div", "err_sigma_hdiv", "err_u_l2",
    "super_sigma_l2", "super_sigma_hdiv", "super_u_l2",
    "solve_residual", "wall_time_s",
)
PROBE_COLUMNS = ("beta_h", "alpha_kernel")
RATE_COLUMNS = (
    "err_sigma_l2", "err_sigma_div", "err_sigma_hdiv", "err_u_l2",
    "super_sigma_l2", "super_sigma_hdiv", "super_u_l2",
)


@dataclass(frozen=True)
class StudyConfig:
    dim: int = 2
    levels: tuple[int, ...] = (4, 8, 16, 32)
    mu: float = 0.5
    lam: float = 1.0
    solution: str = "sine"
    output: str = "study.csv"
    probe_infsup: bool = False
    probe_budget: int = 3000
    quad_points: int = 5
    solver_tol: float = 1e-11

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not self.levels:
            raise ValueError("need at least one level")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly increasing, got {self.levels}")
        if self.solution not in SOLUTIONS:
            raise ValueError(
                f"unknown solution {self.solution!r}; available: {sorted(SOLUTIONS)}"
            )
        if self.quad_points < 2:
            raise ValueError("quad_points must be at least 2")
        # materialize early so bad mu/lam surface as config errors
        LameParams(self.mu, self.lam)


@dataclass(frozen=True)
class LevelResult:
    n: int
    record: ErrorRecord
    report: SolveReport
    energy_residual: float
    wall_time: float
    beta_h: float | None = None
    alpha_kernel: float | None = None


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    levels: tuple[LevelResult, ...]
    rates: dict[str, float] = field(default_factory=dict)
    rate_fit_levels: tuple[int, ...] = ()
    csv_path: Path | None = None
    md_path: Path | None = None


def run_level(
    grid: TensorGrid,
    material: LameParams,
    solution: str,
    quad_points: int = 5,
    solver_tol: float = 1e-11,
) -> LevelResult:
    """Assemble, solve and measure one grid."""
    start = time.perf_counter()
    exact = solution_by_name(solution, grid.dim, material)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    load = assemble_load(grid, exact.f, dofs, npts=quad_points)
    sigma_h, u_h, report = solve(system, load, tol=solver_tol)
    pi_sigma = interp_stress(grid, dofs, exact.sigma, npts=quad_points)
    ph_u = project_displacement(grid, dofs, exact.u, npts=quad_points)
    errors = error_norms(grid, exact, sigma_h, u_h, npts=quad_points)
    close = superclose_norms(sigma_h, pi_sigma, u_h, ph_u)
    record = replace(
        errors,
        **{f.name: getattr(close, f.name) for f in fields(close) if f.name.startswith("super_")},
    )

    # With tau = sigma_h the first equation gives (A sigma_h, sigma_h) = -(f, u_h).
    energy = float(sigma_h.coeffs @ (system.M @ sigma_h.coeffs))
    work = float(load @ u_h.coeffs)
    energy_residual = abs(energy + work) / max(abs(energy), 1e-300)

    return LevelResult(
        n=max(grid.subdivisions),
        record=record,
        report=report,
        energy_residual=energy_residual,
        wall_time=time.perf_counter() - start,
    )


def run_study(config: StudyConfig) -> StudyResult:
    material = LameParams(config.mu, config.lam)
    levels: list[LevelResult] = []
    for n in config.levels:
        grid = unit_grid(config.dim, n)
        level = run_level(
            grid, material, config.solution,
            quad_points=config.quad_points, solver_tol=config.solver_tol,
        )
        if config.probe_infsup:
            n_total = level.record.stress_dofs + level.record.disp_dofs
            if n_total <= config.probe_budget:
                beta = infsup_probe(grid, material, max_dofs=config.probe_budget)
                alpha = kernel_ellipticity_probe(
                    grid, material, max_dofs=config.probe_budget
                )
                level = replace(level, beta_h=beta, alpha_kernel=alpha)
            else:
                warnings.warn(
                    f"skipping stability probes at N={n}: {n_total} unknowns "
                    f"exceed the probe budget {config.probe_budget}",
                    stacklevel=2,
                )
        levels.append(level)

    rates: dict[str, float] = {}
    rate_fit_levels: tuple[int, ...] = ()
    if len(levels) >= 3:
        fit = levels[1:] if len(levels) >= 4 else levels
        rate_fit_levels = tuple(lv.n for lv in fit)
        hs = [lv.record.h for lv in fit]
        for col in RATE_COLUMNS:
            errs = [getattr(lv.record, _RECORD_FIELD[col]) for lv in fit]
            if all(e is not None and e > 0 for e in errs):
                rates[col] = fit_rate(hs, errs)
    else:
        warnings.warn(
            f"only {len(levels)} level(s); need 3 for a rate fit", stacklevel=2
        )

    csv_path = Path(config.output)
    md_path = csv_path.with_suffix(".md")
    result = StudyResult(
        config=config,
        levels=tuple(levels),
        rates=rates,
        rate_fit_levels=rate_fit_levels,
        csv_path=csv_path,
        md_path=md_path,
    )
    write_csv(result, csv_path)
    write_markdown(result, csv_path, md_path)
    return result


_RECORD_FIELD = {
    "err_sigma_l2": "sigma_l2",
    "err_sigma_div": "sigma_div",
    "err_sigma_hdiv": "sigma_hdiv",
    "err_u_l2": "u_l2",
    "super_sigma_l2": "super_sigma_l2",
    "super_sigma_hdiv": "super_sigma_hdiv",
    "super_u_l2": "super_u_l2",
}


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.15e}"


def study_columns(config: StudyConfig) -> tuple[str, ...]:
    return BASE_COLUMNS + PROBE_COLUMNS if config.probe_infsup else BASE_COLUMNS


def write_csv(result: StudyResult, path: Path) -> None:
    columns = study_columns(result.config)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for idx, lv in enumerate(result.levels, start=1):
            rec = lv.record
            row = {
                "level": str(idx),
                "N": str(lv.n),
                "h": _fmt(rec.h),
                "stress_dofs": str(rec.stress_dofs),
                "disp_dofs": str(rec.disp_dofs),
                "solve_residual": _fmt(lv.report.residual),
                "wall_time_s": _fmt(lv.wall_time),
                "beta_h": _fmt(lv.beta_h),
                "alpha_kernel": _fmt(lv.alpha_kernel),
            }
            for col, fld in _RECORD_FIELD.items():
                row[col] = _fmt(getattr(rec, fld))
            writer.writerow([row.get(c, "") for c in columns])
        if result.rates:
            rate_row = {"level": "rate"}
            rate_row.update({col: _fmt(v) for col, v in result.rates.items()})
            writer.writerow([rate_row.get(c, "") for c in columns])


def write_markdown(result: StudyResult, csv_path: Path, md_path: Path) -> None:
    """Render the CSV into a markdown table with study metadata."""
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]

    def summarize(cell: str) -> str:
        try:
            int(cell)
            return cell
        except ValueError:
            pass
        try:
            return f"{float(cell):.3e}"
        except ValueError:
            return cell

    cfg = result.config
    lines = [
        f"# Convergence study: {cfg.solution}, dim={cfg.dim}",
        "",
        f"- mu = {cfg.mu}, lambda = {cfg.lam}",
        f"- levels N = {', '.join(str(n) for n in cfg.levels)}",
        f"- quadrature points per axis: {cfg.quad_points}",
    ]
    if result.rate_fit_levels:
        lines.append(
            "- rates fitted on levels N = "
            + ", ".join(str(n) for n in result.rate_fit_levels)
            + (" (coarsest level excluded)" if len(result.levels) >= 4 else "")
        )
    else:
        lines.append("- no rate fit (fewer than 3 levels)")
    lines += [
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    for row in body:
        lines.append("| " + " | ".join(summarize(c) for c in row) + " |")
    lines.append("")
    md_path.write_text("\n".join(lines))
