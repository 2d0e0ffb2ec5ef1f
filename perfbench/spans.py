"""Spans and counters recorded from outside the program.

The tracer replaces the functions that ``elastmix.study`` calls, in that
module's namespace, with wrappers that record a span per call (name, layer,
start, end, parent) and a few counters.  Nothing in the program is edited;
``installed`` restores every replaced attribute on exit.  Spans stay in memory
until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import resource
import time
from collections import defaultdict

import numpy as np

from checks import dof_counts

LAYERS = ("assembly", "solver", "interpolate", "manufactured", "verify", "study")

# (attribute of elastmix.study, layer) of every wrapped call on the study path.
STUDY_CALLS = (
    ("build_dof_map", "assembly"),
    ("assemble", "assembly"),
    ("assemble_load", "assembly"),
    ("solve", "solver"),
    ("interp_stress", "interpolate"),
    ("project_displacement", "interpolate"),
    ("error_norms", "verify"),
    ("superclose_norms", "verify"),
    ("infsup_probe", "verify"),
    ("kernel_ellipticity_probe", "verify"),
    ("write_csv", "study"),
    ("write_markdown", "study"),
    ("run_study", "study"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _csr_mb(matrix) -> float:
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes) / 2**20


class _KrylovCounter:
    """Stands in for ``scipy.sparse.linalg`` inside the solver module.

    Counts MINRES iterations through its callback, so a solve that fails
    still reports how many iterations it ran.
    """

    def __init__(self, spla):
        self._spla = spla
        self.iterations = 0

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def minres(self, *args, callback=None, **kwargs):
        def count(xk):
            self.iterations += 1
            if callback is not None:
                callback(xk)

        return self._spla.minres(*args, callback=count, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rounds = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "round": self.rounds,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name: str, layer: str):
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        return traced

    # counters taken from the outputs of the wrapped calls

    def _after_assemble(self, system, *args):
        self.counters["assembly.unknowns"] += system.dofs.n_total
        self.counters["assembly.nnz"] += system.M.nnz + 2 * system.B.nnz
        mb = _csr_mb(system.M) + _csr_mb(system.B)
        self.counters["assembly.matrix_mb"] = max(self.counters["assembly.matrix_mb"], mb)

    def _probe_unknowns(self, out, grid, *args):
        self.counters["verify.probe_unknowns"] += sum(dof_counts(grid.dim, grid.subdivisions[0]))

    _after_infsup_probe = _probe_unknowns
    _after_kernel_ellipticity_probe = _probe_unknowns

    def _wrap_solve(self, solve, krylov: _KrylovCounter):
        @functools.wraps(solve)
        def traced(*args, **kwargs):
            krylov.iterations = 0
            rss_before = _maxrss_mb()
            self.counters["solver.calls"] += 1
            try:
                with self.span("solver.solve", "solver"):
                    out = solve(*args, **kwargs)
            except Exception:
                self.counters["solver.iterations"] += krylov.iterations
                raise
            finally:
                self.counters["solver.rss_growth_mb"] += _maxrss_mb() - rss_before
            self.counters["solver.iterations"] += out[2].iterations
            return out

        return traced

    def _wrap_exact(self, solution_by_name):
        """Return exact solutions whose evaluators record manufactured spans."""
        tracer = self

        def evaluator(fn, name):
            @functools.wraps(fn)
            def traced(x):
                tracer.counters["manufactured.points"] += np.atleast_2d(x).shape[0]
                with tracer.span("manufactured." + name, "manufactured"):
                    return fn(x)

            return traced

        @functools.wraps(solution_by_name)
        def traced(*args, **kwargs):
            exact = solution_by_name(*args, **kwargs)
            base = type(exact)

            class TracedExact(base):
                def sigma(self, x):
                    with tracer.span("manufactured.sigma", "manufactured"):
                        return base.sigma(self, x)

            wrapped = {f: evaluator(getattr(exact, f), f) for f in ("u", "grad_u", "f")}
            fields = {f.name: getattr(exact, f.name) for f in dataclasses.fields(exact)}
            return TracedExact(**{**fields, **wrapped})

        return traced

    @contextlib.contextmanager
    def installed(self, study_module, solver_module):
        """Patch the study namespace (and the solver's Krylov module) for one round."""
        originals = {name: getattr(study_module, name) for name, _ in STUDY_CALLS}
        originals["solution_by_name"] = study_module.solution_by_name
        krylov = _KrylovCounter(solver_module.spla)
        try:
            for name, layer in STUDY_CALLS:
                if name != "solve":
                    wrapped = self._wrap(originals[name], f"{layer}.{name}", layer)
                    setattr(study_module, name, wrapped)
            study_module.solve = self._wrap_solve(originals["solve"], krylov)
            study_module.solution_by_name = self._wrap_exact(originals["solution_by_name"])
            solver_module.spla = krylov
            yield self
        finally:
            for name, fn in originals.items():
                setattr(study_module, name, fn)
            solver_module.spla = krylov._spla
            self.rounds += 1

    # -- reduction -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-round means of the span totals, self times and counters."""
        rounds = max(self.rounds, 1)
        children = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        by_name = defaultdict(float)
        self_time = {layer: 0.0 for layer in LAYERS}
        manufactured = 0.0  # outermost evaluator spans only: sigma calls grad_u
        for s in self.spans:
            duration = s["end"] - s["start"]
            by_name[s["name"]] += duration
            self_time[s["layer"]] += duration - children[s["id"]]
            parent = self.spans[s["parent"]]["layer"] if s["parent"] is not None else None
            if s["layer"] == "manufactured" and parent != "manufactured":
                manufactured += duration

        def per_round(value):
            return value / rounds

        out = {
            "assembly.build_dof_map_s": per_round(by_name["assembly.build_dof_map"]),
            "assembly.assemble_s": per_round(by_name["assembly.assemble"]),
            "assembly.assemble_load_s": per_round(by_name["assembly.assemble_load"]),
            "assembly.unknowns": per_round(self.counters["assembly.unknowns"]),
            "assembly.nnz": per_round(self.counters["assembly.nnz"]),
            "assembly.matrix_mb": self.counters["assembly.matrix_mb"],
            "solver.solve_s": per_round(by_name["solver.solve"]),
            "solver.iterations": per_round(self.counters["solver.iterations"]),
            "solver.calls": per_round(self.counters["solver.calls"]),
            "solver.rss_growth_mb": self.counters["solver.rss_growth_mb"],
            "interpolate.interp_stress_s": per_round(by_name["interpolate.interp_stress"]),
            "interpolate.project_displacement_s": per_round(
                by_name["interpolate.project_displacement"]
            ),
            "manufactured.eval_s": per_round(manufactured),
            "manufactured.points": per_round(self.counters["manufactured.points"]),
            "verify.error_norms_s": per_round(by_name["verify.error_norms"]),
            "verify.superclose_norms_s": per_round(by_name["verify.superclose_norms"]),
            "verify.infsup_probe_s": per_round(by_name["verify.infsup_probe"]),
            "verify.kernel_ellipticity_probe_s": per_round(
                by_name["verify.kernel_ellipticity_probe"]
            ),
            "verify.probe_unknowns": per_round(self.counters["verify.probe_unknowns"]),
            "study.write_s": per_round(
                by_name["study.write_csv"] + by_name["study.write_markdown"]
            ),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_round(self_time[layer])
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=0))
