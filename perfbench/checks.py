"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here, or
with a property the method must have.  None compares with a stored copy of an
earlier output.  A failed check raises CheckFailed, which fails the run.

The exact solution is re-derived here rather than taken from
``elastmix.manufactured``: with u_i = U = prod_k sin(pi x_k) in every
component, grad u has identical rows G_j = d_j U, so

    sigma_ij = mu (G_i + G_j) + lam (sum_k G_k) delta_ij,
    f_i = div(sigma)_i = (mu + lam) sum_j H_ij + mu sum_j H_jj,

with H the Hessian of U.
"""

from __future__ import annotations

import math

import numpy as np

# Fitted log-log slopes the method must show (first order for the errors,
# second order for the superclose distances and the commuting defect).
FIRST_ORDER = (0.9, 1.1)
SECOND_ORDER = (1.8, 2.2)
STUDY_RATE_BANDS = {
    "err_sigma_hdiv": FIRST_ORDER,
    "err_u_l2": FIRST_ORDER,
    "super_sigma_hdiv": SECOND_ORDER,
    "super_u_l2": SECOND_ORDER,
}
ENERGY_RESIDUAL_MAX = 1e-9
# The inf-sup constant is at most 1 (Cauchy-Schwarz); this is the band it
# must stay in, and the largest |slope| of log(beta_h) against log(h).
BETA_BAND = (0.9, 1.0)
BETA_SLOPE_MAX = 0.01
# Relative slack for comparisons that hold exactly in exact arithmetic.
ROUNDING = 1e-9
LOAD_QUAD_POINTS = 8
NORM_QUAD_POINTS = 40


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- closed forms ------------------------------------------------------------


def dof_counts(dim: int, n: int) -> tuple[int, int]:
    """Stress and displacement unknowns on the uniform grid with n cells per axis."""
    stress = (
        dim * (n + 1) * n ** (dim - 1)
        + dim * n**dim
        + math.comb(dim, 2) * (n + 1) ** 2 * n ** (dim - 2)
    )
    return stress, 2 * dim * n**dim


def check_dof_counts(dim: int, n: int, n_stress: int, n_disp: int) -> None:
    expected = dof_counts(dim, n)
    require(
        (n_stress, n_disp) == expected,
        f"dim {dim} N={n}: unknowns (stress, disp) = {(n_stress, n_disp)}, "
        f"closed form gives {expected}",
    )


def fit_slope(hs, values) -> float:
    """Least-squares slope of log(value) against log(h)."""
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def fit_levels(items: list) -> list:
    """The levels a rate is fitted on: all, or all but the coarsest from four on."""
    return items[1:] if len(items) >= 4 else items


def check_rate(name: str, hs, values, band: tuple[float, float]) -> float:
    require(all(v > 0 for v in values), f"{name}: non-positive values {list(values)}")
    rate = fit_slope(hs, values)
    require(
        band[0] <= rate <= band[1],
        f"{name}: fitted rate {rate:.4f} outside [{band[0]}, {band[1]}]",
    )
    return rate


def sine_hessian_terms(x: np.ndarray):
    """U, G (n_pts, dim) and H (n_pts, dim, dim) of U = prod_k sin(pi x_k)."""
    pi = np.pi
    s = np.sin(pi * x)
    c = np.cos(pi * x)
    dim = x.shape[1]
    u = np.prod(s, axis=1)
    g = np.empty_like(x)
    h = np.empty(x.shape + (dim,))
    for i in range(dim):
        others = np.prod(np.delete(s, i, axis=1), axis=1)
        g[:, i] = pi * c[:, i] * others
        h[:, i, i] = -pi * pi * u
        for j in range(i + 1, dim):
            rest = np.prod(np.delete(s, [i, j], axis=1), axis=1)
            h[:, i, j] = h[:, j, i] = pi * pi * c[:, i] * c[:, j] * rest
    return u, g, h


def sine_fields(x: np.ndarray, mu: float, lam: float):
    """Displacement (n_pts, dim), stress (n_pts, dim, dim) and load (n_pts, dim)."""
    dim = x.shape[1]
    u, g, h = sine_hessian_terms(x)
    disp = np.repeat(u[:, None], dim, axis=1)
    sigma = mu * (g[:, :, None] + g[:, None, :])
    sigma += lam * g.sum(axis=1)[:, None, None] * np.eye(dim)
    trace_h = np.trace(h, axis1=1, axis2=2)
    load = (mu + lam) * h.sum(axis=2) + mu * trace_h[:, None]
    return disp, sigma, load


def gauss_rule(npts: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on [0, 1]^dim, points (npts^dim, dim)."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    weights = np.meshgrid(*([w] * dim), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1)
    return pts, np.prod(np.stack([a.ravel() for a in weights], axis=1), axis=1)


def exact_norms(dim: int, mu: float, lam: float) -> dict[str, float]:
    """L2 norms of u, sigma and div sigma = f over the unit box."""
    pts, w = gauss_rule(NORM_QUAD_POINTS, dim)
    disp, sigma, load = sine_fields(pts, mu, lam)
    return {
        "u": math.sqrt(float(w @ (disp**2).sum(axis=1))),
        "sigma": math.sqrt(float(w @ (sigma**2).sum(axis=(1, 2)))),
        "div": math.sqrt(float(w @ (load**2).sum(axis=1))),
    }


# -- solver outputs ----------------------------------------------------------


def saddle_residual(M, B, sigma: np.ndarray, u: np.ndarray, load: np.ndarray) -> float:
    """||K x - [0, F]|| / ||F|| for K = [[M, B^T], [B, 0]], block by block."""
    top = M @ sigma + B.T @ u
    bottom = B @ sigma - load
    return math.sqrt(float(top @ top + bottom @ bottom)) / float(np.linalg.norm(load))


def check_residual(n: int, residual: float, tol: float) -> None:
    require(
        residual <= tol,
        f"N={n}: recomputed residual {residual:.3e} exceeds tol {tol:.1e}",
    )


# -- study outputs -----------------------------------------------------------


def check_study(rows: list[dict], rate_row: dict | None, levels, config) -> None:
    """Check the CSV rows and level results of one convergence study."""
    dim, tol = config.dim, config.solver_tol
    require(
        [int(r["N"]) for r in rows] == list(config.levels),
        f"CSV levels {[r['N'] for r in rows]} differ from {config.levels}",
    )
    for row, level in zip(rows, levels):
        n = int(row["N"])
        check_dof_counts(dim, n, int(row["stress_dofs"]), int(row["disp_dofs"]))
        require(
            abs(float(row["h"]) - 1.0 / n) <= ROUNDING / n,
            f"N={n}: h = {row['h']}, expected 1/{n}",
        )
        require(
            float(row["solve_residual"]) <= tol,
            f"N={n}: solve_residual {row['solve_residual']} exceeds tol {tol:.1e}",
        )
        require(
            level.energy_residual <= ENERGY_RESIDUAL_MAX,
            f"N={n}: energy identity residual {level.energy_residual:.3e}",
        )
    if len(rows) < 3:
        return
    fit = fit_levels(rows)
    hs = [1.0 / int(r["N"]) for r in fit]
    for column, band in STUDY_RATE_BANDS.items():
        rate = check_rate(column, hs, [float(r[column]) for r in fit], band)
        reported = float(rate_row[column]) if rate_row and rate_row.get(column) else None
        require(
            reported is not None and abs(reported - rate) <= 1e-6,
            f"{column}: reported rate {reported} differs from refitted {rate:.6f}",
        )


def check_probes(rows: list[dict], config) -> None:
    """Kernel ellipticity above 1/(2 mu + n lam); h-independent inf-sup constant."""
    bound = 1.0 / (2.0 * config.mu + config.dim * config.lam)
    betas = []
    for row in rows:
        n = int(row["N"])
        require(
            row.get("beta_h") and row.get("alpha_kernel"),
            f"N={n}: stability probes were not run",
        )
        alpha, beta = float(row["alpha_kernel"]), float(row["beta_h"])
        require(
            alpha >= bound * (1.0 - ROUNDING),
            f"N={n}: alpha_kernel {alpha:.12f} below 1/(2 mu + n lam) = {bound:.12f}",
        )
        require(
            BETA_BAND[0] <= beta <= BETA_BAND[1] * (1.0 + ROUNDING),
            f"N={n}: beta_h {beta:.6f} outside {BETA_BAND}",
        )
        betas.append(beta)
    slope = fit_slope([1.0 / int(r["N"]) for r in rows], betas)
    require(
        abs(slope) <= BETA_SLOPE_MAX,
        f"beta_h varies with h: slope {slope:.4f} of log(beta_h) against log(h)",
    )


# -- fields outputs ----------------------------------------------------------


def sampled_load(grid_n: int, dim: int, mu: float, lam: float, elements: np.ndarray) -> np.ndarray:
    """(f, psi) on the listed elements, by a Gauss rule of higher order.

    Elements are numbered with axis 0 fastest; the local displacement basis is
    e_i and xi_i e_i per component i, xi the reference coordinate in [0, 1].
    Returns (len(elements), 2 * dim), ordered component by component.
    """
    h = 1.0 / grid_n
    multi = (elements[:, None] // grid_n ** np.arange(dim)[None, :]) % grid_n
    pts, w = gauss_rule(LOAD_QUAD_POINTS, dim)
    x = (multi[:, None, :] + pts[None, :, :]) * h
    _, _, load = sine_fields(x.reshape(-1, dim), mu, lam)
    load = load.reshape(x.shape)
    out = np.empty((elements.size, 2 * dim))
    out[:, 0::2] = np.einsum("eqi,q->ei", load, w)
    out[:, 1::2] = np.einsum("eqi,qi,q->ei", load, pts, w)
    return out * h**dim


def check_load_sample(n: int, computed: np.ndarray, reference: np.ndarray) -> None:
    scale = float(np.abs(reference).max())
    err = float(np.abs(computed - reference).max())
    require(
        err <= 1e-9 * scale,
        f"N={n}: load vector differs from the reference quadrature by {err:.3e} "
        f"(largest entry {scale:.3e})",
    )


def check_norm_gap(n: int, name: str, discrete: float, exact: float, error: float) -> None:
    """Triangle inequality | ||Pi v|| - ||v|| | <= ||Pi v - v||."""
    require(
        abs(discrete - exact) <= error * (1.0 + 1e-6) + ROUNDING * exact,
        f"N={n}: ||Pi {name}|| = {discrete:.10e} and ||{name}|| = {exact:.10e} "
        f"differ by more than the measured error {error:.3e}",
    )


def check_fields(levels: list[dict], dim: int) -> None:
    """Rates of the interpolation errors and of the commuting defect B Pi sigma - F."""
    fit = fit_levels(levels)
    hs = [1.0 / lv["n"] for lv in fit]
    check_rate("interp err_sigma_hdiv", hs, [lv["err_sigma_hdiv"] for lv in fit], FIRST_ORDER)
    check_rate("interp err_u_l2", hs, [lv["err_u_l2"] for lv in fit], FIRST_ORDER)
    check_rate("||B Pi sigma - F|| / ||F||", hs, [lv["commuting"] for lv in fit], SECOND_ORDER)
