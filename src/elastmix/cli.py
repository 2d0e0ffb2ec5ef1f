"""Command-line driver for convergence studies.

Only the standard library is imported at module level so that the
ELASTMIX_THREADS cap can be applied to the BLAS thread pools before numpy is
first loaded.  Exit codes: 0 success, 1 numerical failure, 2 configuration
error (argparse itself also exits with 2 on bad flags).
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys
import warnings
from typing import Sequence

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

def _apply_thread_cap() -> None:
    """Copy ELASTMIX_THREADS (unset or empty: no cap) into the BLAS variables.

    OpenBLAS reads 0 or a non-number as no setting, so anything but a positive
    integer raises ValueError instead of silently dropping the cap.
    """
    threads = os.environ.get("ELASTMIX_THREADS")
    if not threads:
        return
    if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
        raise ValueError(f"ELASTMIX_THREADS must be a positive integer, got {threads!r}")
    for var in _THREAD_ENV_VARS:
        os.environ[var] = threads


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one line, like the other messages of the CLI."""
    print(f"elastmix: warning: {message}", file=file or sys.stderr)


def _parse_levels(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}") from None


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"bad boolean {text!r}; use 1/0, true/false, yes/no or on/off") from None


# config-file key -> (StudyConfig field, converter of the value, help); the
# flag of key x_y is --x-y, and the one boolean is a store_true flag
_CONFIG_KEYS = {
    "dim": ("dim", int, "space dimension (default 2)"),
    "levels": ("levels", _parse_levels, "comma-separated subdivision counts, e.g. 4,8,16,32"),
    "mu": ("mu", float, "shear modulus (default 0.5)"),
    "lambda": ("lam", float, "first Lame constant (default 1.0)"),
    "solution": ("solution", str, "manufactured solution (default sine)"),
    "output": ("output", str, "CSV output path (default study.csv)"),
    "probe_infsup": (
        "probe_infsup", _parse_bool,
        "also report the inf-sup constant (one sparse LU and eigensolve per level) "
        "and the kernel ellipticity 1/(2 mu + n lambda)",
    ),
    "probe_budget": ("probe_budget", int, "max unknowns for the stability probes"),
    "tol": ("solver_tol", float, "solver tolerance"),
}


def parse_config_file(path: str) -> dict:
    """Read a key = value configuration file.

    '#' starts a comment at the start of a line or after whitespace, so a
    value may hold one (``output = run#1.csv``).  A value may be wrapped in
    one pair of matching quotes, which keep a '#' after whitespace too
    (``output = "run #2.csv"``); only whitespace or a comment may follow the
    closing quote.

    A line that cannot be read, an unclosed quote, text after the closing
    one, or a value that cannot be converted raises ValueError naming the
    file and line.
    """
    values: dict = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if value[:1] in ("'", '"'):  # the comment split may have cut inside the quotes
                value, closed, rest = raw.partition("=")[2].strip()[1:].partition(value[0])
                if not closed or rest.strip()[:1] not in ("", "#"):
                    raise ValueError(f"{path}:{lineno}: {key}: unclosed quote, or text after it")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field, convert, _ = _CONFIG_KEYS[key]
            try:
                values[field] = convert(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
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
    for key, (field, convert, text) in _CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if convert is _parse_bool:
            parser.add_argument(flag, dest=field, action="store_true", default=None, help=text)
        else:
            parser.add_argument(flag, dest=field, type=convert, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"elastmix: configuration error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)

    from .solver import SolverError
    from .study import StudyConfig, run_study

    try:
        values: dict = {}
        if args.config:
            values.update(parse_config_file(args.config))
        for field, *_ in _CONFIG_KEYS.values():
            flag = getattr(args, field)
            if flag is not None:
                values[field] = flag
        config = StudyConfig(**values)
    except (ValueError, OSError) as exc:
        print(f"elastmix: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        with warnings.catch_warnings():  # restores the hook on the way out
            warnings.showwarning = _show_warning
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
