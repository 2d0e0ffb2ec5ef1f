"""Command-line driver for convergence studies.

Only the standard library is imported at module level so that the
ELASTMIX_THREADS cap can be applied to the BLAS thread pools before numpy is
first loaded.  Exit codes: 0 success, 1 numerical failure, 2 configuration
error (argparse itself also exits with 2 on bad flags).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_CONFIG_KEYS = {
    "dim": "dim",
    "levels": "levels",
    "mu": "mu",
    "lambda": "lam",
    "solution": "solution",
    "output": "output",
    "probe_infsup": "probe_infsup",
    "probe_budget": "probe_budget",
    "quad_points": "quad_points",
    "tol": "solver_tol",
}


def _apply_thread_cap() -> None:
    threads = os.environ.get("ELASTMIX_THREADS")
    if threads:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = threads


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from None


def parse_config_file(path: str) -> dict:
    """Read a key = value configuration file; '#' starts a comment."""
    values: dict = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip().strip("\"'")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field = _CONFIG_KEYS[key]
            if field == "levels":
                values[field] = _parse_levels(value)
            elif field in ("dim", "quad_points", "probe_budget"):
                values[field] = int(value)
            elif field in ("mu", "lam", "solver_tol"):
                values[field] = float(value)
            elif field == "probe_infsup":
                values[field] = value.lower() in ("1", "true", "yes", "on")
            else:
                values[field] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastmix",
        description=(
            "Solve the mixed stress-displacement elasticity system on a sequence "
            "of uniform grids of the unit box, measure errors and superclose "
            "norms against a manufactured solution, and fit convergence rates."
        ),
    )
    parser.add_argument("--config", help="key = value file; flags override it")
    parser.add_argument("--dim", type=int, help="space dimension (default 2)")
    parser.add_argument(
        "--levels", type=_parse_levels,
        help="comma-separated subdivision counts, e.g. 4,8,16,32",
    )
    parser.add_argument("--mu", type=float, help="shear modulus (default 0.5)")
    parser.add_argument(
        "--lambda", dest="lam", type=float, help="first Lame constant (default 1.0)"
    )
    parser.add_argument(
        "--solution", choices=("sine", "polynomial"), help="manufactured solution"
    )
    parser.add_argument("--output", help="CSV output path (default study.csv)")
    parser.add_argument(
        "--probe-infsup", action="store_true", default=None,
        help="also measure the inf-sup constant and kernel ellipticity per level",
    )
    parser.add_argument(
        "--probe-budget", type=int, help="max unknowns for the stability probes"
    )
    parser.add_argument(
        "--quad-points", type=int, help="quadrature points per axis (default 5)"
    )
    parser.add_argument("--tol", dest="solver_tol", type=float, help="solver tolerance")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)

    from .solver import SolverError
    from .study import StudyConfig, run_study

    try:
        values: dict = {}
        if args.config:
            values.update(parse_config_file(args.config))
        for field in _CONFIG_KEYS.values():
            flag = getattr(args, field, None)
            if flag is not None:
                values[field] = flag
        config = StudyConfig(**values)
    except (ValueError, OSError) as exc:
        print(f"elastmix: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_study(config)
    except SolverError as exc:
        print(f"elastmix: numerical failure: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {result.csv_path} and {result.md_path}")
    if result.rates:
        fitted = ", ".join(str(n) for n in result.rate_fit_levels)
        print(f"rates (fitted on N = {fitted}):")
        for col, rate in result.rates.items():
            print(f"  {col}: {rate:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
