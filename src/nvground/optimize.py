"""Derivative-free minimization and weighted least-squares primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned NaN/inf; carries the offending point."""

    def __init__(self, point: np.ndarray, value: float):
        self.point = np.asarray(point, dtype=float).copy()
        self.value = value
        super().__init__(f"objective returned {value!r} at {self.point.tolist()}")


class FitConvergenceError(RuntimeError):
    """An optimization-backed fit hit its iteration cap before converging."""


class RankDeficientError(np.linalg.LinAlgError):
    """Polynomial design matrix is (numerically) rank deficient."""


# Absolute initial-simplex bump for a zero coordinate.
_ZERO_STEP = 1e-3


@dataclass(frozen=True)
class OptimOptions:
    """Nelder-Mead settings; defaults give deterministic tight convergence."""

    initial_simplex_scale: float = 1e-3   # fractional bump per coordinate
    tol_f: float = 1e-12                  # relative objective spread
    tol_x: float = 1e-10                  # relative simplex extent
    max_iter: int = 20000

    def __post_init__(self):
        if self.tol_f <= 0 or self.tol_x <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class OptimResult:
    x_min: np.ndarray
    f_min: float
    iterations: int
    n_evals: int
    converged: bool


def nelder_mead(objective, x0, options: OptimOptions | None = None) -> OptimResult:
    """Minimize ``objective`` with the reflect/expand/contract/shrink simplex.

    Coefficients are the classic (1, 2, 0.5, 0.5).  Iteration stops when the
    simplex objective spread or coordinate extent falls below the relative
    tolerances, or at the iteration cap (converged=False in that case).
    Seed-free and fully deterministic.
    """
    opts = options or OptimOptions()
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    if n == 0:
        raise ValueError("x0 must have at least one coordinate")

    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        val = float(objective(x))
        if not math.isfinite(val):
            raise NonFiniteObjectiveError(x, val)
        return val

    f0 = float(objective(x0))
    evals += 1
    if not math.isfinite(f0):
        raise NonFiniteObjectiveError(x0, f0)

    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = opts.initial_simplex_scale * x0[i]
        simplex[i + 1, i] += step if step != 0 else _ZERO_STEP
    values = np.array([f0] + [f(simplex[i + 1]) for i in range(n)])

    iterations = 0
    converged = False
    while iterations < opts.max_iter:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        # Both spreads must collapse: the objective spread alone goes to
        # zero when vertices straddle a minimum symmetrically.
        f_spread = float(values[-1] - values[0])
        x_spread = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if f_spread <= opts.tol_f * max(1.0, abs(values[0])) and x_spread <= opts.tol_x * max(
            1.0, float(np.max(np.abs(simplex[0])))
        ):
            converged = True
            break

        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = f(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                f_c = f(contracted)
                accept = f_c < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])

    order = np.argsort(values, kind="stable")
    best = int(order[0])
    return OptimResult(
        x_min=simplex[best].copy(),
        f_min=float(values[best]),
        iterations=iterations,
        n_evals=evals,
        converged=converged,
    )


def weighted_objective(model_freqs, measured, sigmas) -> float:
    """Sum of squared sigma-weighted residuals."""
    m = np.asarray(model_freqs, dtype=float)
    if m.shape != np.shape(measured):
        raise ValueError("model, measured and sigma vectors must have equal length")
    return _weighted_objective_of(measured, sigmas)(m)


def _weighted_objective_of(measured, sigmas):
    """weighted_objective as a function of the model frequencies alone, with
    ``measured`` and ``sigmas`` checked here, once, for an objective that is
    evaluated many times."""
    y = np.asarray(measured, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if y.shape != s.shape:
        raise ValueError("model, measured and sigma vectors must have equal length")
    if np.any(s <= 0):
        raise ValueError("sigmas must be positive")

    def objective(model_freqs: np.ndarray) -> float:
        r = (model_freqs - y) / s
        return float(r @ r)

    return objective


@dataclass(frozen=True)
class PolynomialModel:
    """Polynomial in (T - t0) with coefficients in kHz/K^k.

    Shipped thermal models are degree 4; evaluation is restricted to
    [t_min, t_max] by callers that build tables from them.
    """

    coeffs: tuple[float, ...]
    t0: float
    t_min: float
    t_max: float
    residual_rms: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, t: float) -> float:
        dt = t - self.t0
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * dt + c
        return acc

    def derived(self) -> "PolynomialModel":
        """d/dT as a polynomial about the same t0, over the same range."""
        coeffs = tuple(k * c for k, c in enumerate(self.coeffs) if k) or (0.0,)
        return PolynomialModel(coeffs, self.t0, self.t_min, self.t_max)

    def derivative(self, t: float) -> float:
        return self.derived().value(t)

    def second_derivative(self, t: float) -> float:
        return self.derived().derived().value(t)

    def fractional_derivative_ppm(self, t: float) -> float:
        return 1e6 * self.derivative(t) / self.value(t)

    def covers(self, t: float) -> bool:
        return self.t_min <= t <= self.t_max


def polyfit_weighted(x, y, sigma, degree: int, t0: float) -> PolynomialModel:
    """Weighted least-squares polynomial on the shifted basis (x - t0)^k.

    Solved via normal equations with column scaling, which is well behaved
    at degree 4 over a centered temperature range and trivially
    deterministic.  With exactly degree+1 points the fit interpolates.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if x.shape != y.shape or x.shape != s.shape or x.ndim != 1:
        raise ValueError("x, y and sigma must be 1-d arrays of equal length")
    if np.any(s <= 0):
        raise ValueError("sigmas must be positive")
    if x.size < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}")
    t = x - t0
    design = np.vander(t, degree + 1, increasing=True) / s[:, None]
    scale = np.sqrt((design * design).sum(axis=0))
    if np.any(scale == 0):
        raise RankDeficientError("design matrix has a zero column")
    a = design / scale
    gram = a.T @ a
    if np.linalg.cond(gram) > 1e12:
        raise RankDeficientError(
            "normal equations are rank deficient (duplicated abscissae?)"
        )
    coeffs = np.linalg.solve(gram, a.T @ (y / s)) / scale
    fitted = np.vander(t, degree + 1, increasing=True) @ coeffs
    rms = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return PolynomialModel(
        coeffs=tuple(float(c) for c in coeffs),
        t0=t0,
        t_min=float(x.min()),
        t_max=float(x.max()),
        residual_rms=rms,
    )
