"""Batch convergence studies: solve a mesh sequence, measure, fit rates, emit tables.

A study's results are one table: one row per level with errors, superclose
norms, DOF counts, the solver residual and the level wall time, followed by a
summary row (level = "rate") holding the fitted log-log slopes.  The columns
are declared once, here, and ``_table`` gives the values in their order.  The
CSV holds that table to 16 significant digits; the markdown holds the same
table to 4, under the study's metadata.  Apart from the wall-time column, two
runs with the same configuration produce byte-identical CSV bodies.

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
from .grid import TensorGrid, as_count, unit_grid
from .interpolate import interp_stress, project_displacement
from .manufactured import solution_by_name
from .material import LameParams
from .quadrature import QUAD_POINTS
from .solver import SolveReport, solve
from .verify import (
    ErrorRecord,
    error_norms,
    fit_rate,
    infsup_probe,
    kernel_ellipticity_probe,
    superclose_norms,
)

# CSV column -> ErrorRecord field of every measured norm, in column order
_RECORD_FIELD = {
    "err_sigma_l2": "sigma_l2",
    "err_sigma_div": "sigma_div",
    "err_sigma_hdiv": "sigma_hdiv",
    "err_u_l2": "u_l2",
    "super_sigma_l2": "super_sigma_l2",
    "super_sigma_hdiv": "super_sigma_hdiv",
    "super_u_l2": "super_u_l2",
}
RATE_COLUMNS = tuple(_RECORD_FIELD)
# the order of ``_table``'s level rows
BASE_COLUMNS = (
    "level", "N", "h", "stress_dofs", "disp_dofs", *RATE_COLUMNS, "solve_residual", "wall_time_s"
)
PROBE_COLUMNS = ("beta_h", "alpha_kernel")


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
    solver_tol: float = 1e-11

    def __post_init__(self):
        object.__setattr__(self, "dim", as_count(self.dim, "dimension"))
        object.__setattr__(self, "levels", tuple(as_count(n, "level") for n in self.levels))
        object.__setattr__(self, "probe_budget", as_count(self.probe_budget, "probe budget"))
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if not self.levels:
            raise ValueError("need at least one level")
        if min(self.levels) < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly increasing, got {self.levels}")
        # the zero vector meets a tolerance of 1 or more
        if not 0 < self.solver_tol < 1:
            raise ValueError(f"solver tolerance must lie in (0, 1), got {self.solver_tol}")
        if self.probe_budget < 1:
            raise ValueError(f"probe budget must be at least 1, got {self.probe_budget}")
        # the CSV is written after the last level, so check its path now; the
        # markdown table goes next to it and must not overwrite it
        if not Path(self.output).parent.is_dir():
            raise ValueError(f"output directory of {self.output!r} does not exist")
        if Path(self.output).suffix == ".md":
            raise ValueError(f"output {self.output!r} would be overwritten by the .md table")
        if Path(self.output).is_dir() or Path(self.output).with_suffix(".md").is_dir():
            raise ValueError(f"output {self.output!r} or its .md table is a directory")
        # materialize early so a bad mu/lam, solution name or dimension
        # surfaces as a config error
        solution_by_name(self.solution, self.dim, LameParams(self.mu, self.lam))


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
    grid: TensorGrid, material: LameParams, solution: str, solver_tol: float = 1e-11
) -> LevelResult:
    """Assemble, solve and measure one grid."""
    start = time.perf_counter()
    exact = solution_by_name(solution, grid.dim, material)
    dofs = build_dof_map(grid)
    system = assemble(grid, material, dofs)
    load = assemble_load(grid, exact.f, dofs)
    sigma_h, u_h, report = solve(system, load, tol=solver_tol)
    pi_sigma = interp_stress(grid, dofs, exact.sigma)
    ph_u = project_displacement(grid, dofs, exact.u)
    errors = error_norms(grid, exact, sigma_h, u_h)
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
        level = run_level(grid, material, config.solution, solver_tol=config.solver_tol)
        if config.probe_infsup:
            n_total = level.record.stress_dofs + level.record.disp_dofs
            if n_total <= config.probe_budget:
                beta = infsup_probe(grid, max_dofs=config.probe_budget)
                alpha = kernel_ellipticity_probe(grid, material)
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
    write_markdown(result, md_path)
    return result


def _table(result: StudyResult) -> tuple[tuple[str, ...], list[list]]:
    """The study's columns, then each level's values in column order and the rate row."""
    probed = result.config.probe_infsup
    columns = BASE_COLUMNS + PROBE_COLUMNS if probed else BASE_COLUMNS
    rows = []
    for idx, lv in enumerate(result.levels, start=1):
        rec = lv.record
        rows.append([
            idx, lv.n, rec.h, rec.stress_dofs, rec.disp_dofs,
            *(getattr(rec, name) for name in _RECORD_FIELD.values()),
            lv.report.residual, lv.wall_time, *([lv.beta_h, lv.alpha_kernel] if probed else []),
        ])
    if result.rates:
        rows.append(["rate", *(result.rates.get(col) for col in columns[1:])])
    return columns, rows


def _cell(value, digits: int) -> str:
    """A table cell: empty for None, a float in e-notation, anything else as it prints."""
    if value is None:
        return ""
    return f"{value:.{digits}e}" if isinstance(value, float) else str(value)


def write_csv(result: StudyResult, path: Path) -> None:
    columns, rows = _table(result)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([_cell(value, 15) for value in row] for row in rows)


def write_markdown(result: StudyResult, md_path: Path) -> None:
    """Write the CSV's table, to four digits, under the study metadata."""
    columns, rows = _table(result)
    cfg = result.config
    lines = [
        f"# Convergence study: {cfg.solution}, dim={cfg.dim}",
        "",
        f"- mu = {cfg.mu}, lambda = {cfg.lam}",
        f"- levels N = {', '.join(str(n) for n in cfg.levels)}",
        f"- quadrature points per axis: {QUAD_POINTS}",
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
        "| " + " | ".join(columns) + " |",
        "|" + "|".join(["---"] * len(columns)) + "|",
        *("| " + " | ".join(_cell(value, 3) for value in row) + " |" for row in rows),
    ]
    md_path.write_text("\n".join(lines) + "\n")
