"""Quick self-test of the benchmark: tiny runs, then corrupted outputs.

    python3 perfbench/selftest.py

First every workload runs at tiny sizes through run.py, traced and untraced,
each in a fresh process, and must print a complete, correct result.  Then,
in this process, the program's outputs are corrupted one way at a time (a
scaled solution vector, a wrong DOF count, a scaled load or interpolant, a
probe below its bound or drifting with h, a broken rate) and every one of
them must trip a check.  Exits 0 when all cases behave, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys

import run

CORRUPTIONS = []


def corruption(workload: str, attribute: str):
    """Register a wrapper for ``elastmix.study.<attribute>`` that corrupts its output."""

    def register(make):
        CORRUPTIONS.append((make.__name__, workload, attribute, make))
        return make

    return register


@corruption("study2d", "solve")
def scaled_solution(solve):
    def corrupt(system, load, **kwargs):
        sigma_h, u_h, report = solve(system, load, **kwargs)
        return type(sigma_h)(sigma_h.dofs, 1.001 * sigma_h.coeffs), u_h, report

    return corrupt


@corruption("switch2d", "solve")
def scaled_iterative_solution(solve):
    def corrupt(system, load, **kwargs):
        sigma_h, u_h, report = solve(system, load, **kwargs)
        return sigma_h, type(u_h)(u_h.dofs, 1.001 * u_h.coeffs), report

    return corrupt


def _edit_csv(write_csv, edit):
    def corrupt(result, path):
        write_csv(result, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        edit(rows)
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)

    return corrupt


@corruption("study3d", "write_csv")
def wrong_dof_count(write_csv):
    def edit(rows):
        col = rows[0].index("stress_dofs")
        rows[2][col] = str(int(rows[2][col]) + 1)

    return _edit_csv(write_csv, edit)


@corruption("study2d", "write_csv")
def broken_displacement_rate(write_csv):
    def edit(rows):
        col = rows[0].index("err_u_l2")
        rows[-2][col] = repr(2.0 * float(rows[-2][col]))

    return _edit_csv(write_csv, edit)


@corruption("fields2d", "assemble_load")
def scaled_load(assemble_load):
    def corrupt(*args, **kwargs):
        return 1.0001 * assemble_load(*args, **kwargs)

    return corrupt


@corruption("fields2d", "interp_stress")
def scaled_interpolant(interp_stress):
    def corrupt(*args, **kwargs):
        field = interp_stress(*args, **kwargs)
        return type(field)(field.dofs, 1.01 * field.coeffs)

    return corrupt


@corruption("probes2d", "kernel_ellipticity_probe")
def alpha_below_bound(probe):
    def corrupt(*args, **kwargs):
        return 0.9 * probe(*args, **kwargs)

    return corrupt


@corruption("probes2d", "infsup_probe")
def beta_decaying_with_h(probe):
    def corrupt(grid, *args, **kwargs):
        # stays inside the band but falls by about 2% per halving of h
        return probe(grid, *args, **kwargs) * (4.0 / grid.subdivisions[0]) ** 0.03

    return corrupt


def tiny_runs(workloads) -> list[str]:
    errors = []
    for name in workloads:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=170, cwd=run.ROOT,
            )
            label = f"tiny run {name} trace={trace}"
            if done.returncode != 0:
                errors.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            declared = [m["name"] for m in run.declared_metrics(bool(trace))]
            if not (
                result["correct"] is True
                and result["attempted"] >= 1
                and result["failed"] == 0
                and list(result["metrics"]) == declared
            ):
                errors.append(f"{label}: bad result {result}")
                continue
            print(f"ok   {label}")
    return errors


@contextlib.contextmanager
def patched(module, attribute, make):
    original = getattr(module, attribute)
    setattr(module, attribute, make(original))
    try:
        yield
    finally:
        setattr(module, attribute, original)


def _corrupted_case(checks, runner, case, attribute, make) -> list[str]:
    name = runner.workload.name
    try:
        runner.run_round()
    except checks.CheckFailed as exc:
        return [f"{case}: the uncorrupted {name} round already fails: {exc}"]
    try:
        with patched(runner.em.study, attribute, make):
            runner.run_round()
    except checks.CheckFailed as exc:
        print(f"ok   {case} on {name} trips: {exc}")
        return []
    return [f"{case} on {name}: no check failed"]


def corrupted_runs(elastmix, out_dir) -> list[str]:
    import checks
    from workloads import WORKLOADS, Runner

    errors = []
    limit = elastmix.solver.DIRECT_SIZE_LIMIT
    for case, name, attribute, make in CORRUPTIONS:
        try:
            runner = Runner(WORKLOADS[name], 3, True, out_dir, elastmix)
            errors += _corrupted_case(checks, runner, case, attribute, make)
        finally:
            elastmix.solver.DIRECT_SIZE_LIMIT = limit
    return errors


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = run.THREADS
    from workloads import WORKLOADS

    errors = tiny_runs(WORKLOADS)
    elastmix, _ = run.import_program()
    out_dir = run.OUT_DIR / f"selftest-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        errors += corrupted_runs(elastmix, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
