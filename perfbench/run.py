"""Run one workload of the elastmix benchmark in this process and print its metrics.

    python3 perfbench/run.py --workload study2d --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout that holds this
directory.  Set-up is timed first: the import (in this process and in a few
fresh interpreters) and several passes that build every level's grid, DOF
map, M, B and load vector.  Then whole rounds of the workload run for up to
``--seconds``: another round starts only if one more round of the mean length
fits, and there is always at least one.  Every round's outputs are checked; a failed check
or an unexpected exception fails the run with a non-zero exit code and no
result line.  A SolverError is a failed operation, reported with the residual
it reached.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` rounds alternate traced and untraced, and the metrics are
the per-layer ones, including the tracing overhead.  The last line of
standard output is the JSON result; the line before it records the inputs,
the per-round figures and the environment.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the solves are sparse, and on a shared two-core machine a
# second thread only adds contention (MINRES at 2D N=150 runs faster on one).
THREADS = "1"
THREAD_VARS = (
    "ELASTMIX_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WATCHDOG_S = 170  # a run must end within 180 s, a hang must not be silent
IMPORT_PROBES = 2  # fresh interpreters timing the import, besides this one
SETUP_PASSES = 3
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import elastmix.study; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs every workload on small meshes, for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def import_program():
    """Import the program from the checkout's src/; return its modules and the import time."""
    if not (SRC / "elastmix" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'elastmix'}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import elastmix.grid
    import elastmix.interpolate
    import elastmix.material
    import elastmix.solver
    import elastmix.study

    elapsed = time.perf_counter() - start
    if Path(elastmix.__file__).resolve().parent != SRC / "elastmix":
        raise SystemExit(f"perfbench: imported elastmix from {elastmix.__file__}, not {SRC}")
    return elastmix, elapsed


def import_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": int(THREADS),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    elastmix, import_s = import_program()

    # the benchmark's own modules load numpy, so they come after the timed import
    import checks
    from spans import Tracer
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, args.size == "tiny", out_dir, elastmix)
        imports = [import_s] + [import_probe() for _ in range(IMPORT_PROBES)]
        passes = [runner.setup_pass() for _ in range(SETUP_PASSES)]

        tracer = Tracer() if args.trace else None
        rounds = []  # (traced, RoundResult)
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 0
            rounds.append((traced, runner.run_round(tracer if traced else None)))
            enough = tracer is None or len(rounds) >= 2
            elapsed = time.perf_counter() - start
            # start another round only if one more (of mean length) fits
            if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    except checks.CheckFailed as exc:
        print(f"perfbench: {workload.name}: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    plain = [r.wall for t, r in rounds if not t]
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(passes),
        "wall_s": statistics.median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "levels": list(runner.levels),
        "mu": runner.mu,
        "lambda": runner.lam,
        "round_walls_s": [r.wall for _, r in rounds],
        "round_traced": [t for t, _ in rounds],
        "import_s": imports,
        "setup_pass_s": passes,
        "failed_residuals": [x for _, r in rounds for x in r.residuals],
        "warnings": sorted({w for _, r in rounds for w in r.warnings}),
        "environment": environment(),
    }
    if tracer is not None:
        traced_wall = statistics.median(r.wall for t, r in rounds if t)
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(plain)
        metrics["trace.spans"] = len(tracer.spans) / tracer.rounds
        trace_path = OUT_DIR / "trace" / f"{workload.name}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        self_times = {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_s")}
        info["dominant_layer"] = max(self_times, key=self_times.get)

    for residual in info["failed_residuals"]:
        print(
            f"perfbench: {workload.name}: SolverError, relative residual reached {residual:.3e}",
            file=sys.stderr,
        )
    result = {
        "correct": True,
        "attempted": sum(r.attempted for _, r in rounds),
        "failed": sum(r.failed for _, r in rounds),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared_metrics(bool(args.trace))
        },
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
