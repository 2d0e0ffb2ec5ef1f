"""Conforming mixed finite elements for linear elasticity on rectangular grids.

Submodules are imported lazily so the command-line entry point can configure
BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "TensorGrid": "grid",
    "unit_grid": "grid",
    "LameParams": "material",
    "local_compliance_matrix": "element",
    "local_div_matrix": "element",
    "DofMap": "assembly",
    "SaddleSystem": "assembly",
    "build_dof_map": "assembly",
    "assemble": "assembly",
    "assemble_load": "assembly",
    "StressField": "interpolate",
    "DisplacementField": "interpolate",
    "interp_stress": "interpolate",
    "project_displacement": "interpolate",
    "ExactSolution": "manufactured",
    "sine_solution": "manufactured",
    "polynomial_solution": "manufactured",
    "solution_by_name": "manufactured",
    "SolveReport": "solver",
    "SolverError": "solver",
    "solve": "solver",
    "ErrorRecord": "verify",
    "error_norms": "verify",
    "superclose_norms": "verify",
    "fit_rate": "verify",
    "infsup_probe": "verify",
    "kernel_ellipticity_probe": "verify",
    "StudyConfig": "study",
    "StudyResult": "study",
    "run_study": "study",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
