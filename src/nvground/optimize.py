"""Derivative-free minimization and weighted least-squares primitives."""

from __future__ import annotations

import math
from bisect import bisect_right
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


# Initial simplex: each coordinate bumped by _SIMPLEX_SCALE of itself, or
# by the absolute _ZERO_STEP where it is 0.
_SIMPLEX_SCALE = 1e-3
_ZERO_STEP = 1e-3
_MAX_ITER = 20000


@dataclass
class OptimResult:
    x_min: np.ndarray
    f_min: float
    iterations: int
    n_evals: int
    converged: bool


def nelder_mead(objective, x0, tol_f: float = 1e-12, tol_x: float = 1e-10) -> OptimResult:
    """Minimize ``objective`` with the reflect/expand/contract/shrink simplex.

    Coefficients are the classic (1, 2, 0.5, 0.5).  Iteration stops when
    both the simplex objective spread and its coordinate extent fall below
    the relative tolerances ``tol_f`` and ``tol_x`` (each > 0), or at
    _MAX_ITER iterations (converged=False in that case).  Seed-free and
    fully deterministic.
    """
    if not (tol_f > 0 and tol_x > 0):
        raise ValueError("tolerances must be positive")
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

    f0 = f(x0)
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = _SIMPLEX_SCALE * x0[i]
        simplex[i + 1, i] += step if step != 0 else _ZERO_STEP
    values = [f0] + [f(simplex[i + 1]) for i in range(n)]

    # The vertices stay sorted by value, ties in the order a stable sort
    # leaves them: a new vertex replaces the worst and goes after every
    # equal value (bisect_right), and a shrink is followed by a stable sort.
    def sort():
        nonlocal simplex, values
        order = sorted(range(n + 1), key=values.__getitem__)
        simplex, values = simplex[order], [values[i] for i in order]

    def replace_worst(vertex, value):
        del values[-1]
        k = bisect_right(values, value)
        values.insert(k, value)
        simplex[k + 1 :] = simplex[k:-1]
        simplex[k] = vertex

    sort()
    iterations = 0
    converged = False
    while iterations < _MAX_ITER:
        # Both spreads must collapse: the objective spread alone goes to
        # zero when vertices straddle a minimum symmetrically.
        if values[-1] - values[0] <= tol_f * max(1.0, abs(values[0])) and float(
            np.abs(simplex[1:] - simplex[0]).max()
        ) <= tol_x * max(1.0, float(np.abs(simplex[0]).max())):
            converged = True
            break

        iterations += 1
        # simplex[:-1].mean(axis=0) without numpy's wrapper: the same sum
        # over rows, divided by n.
        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                replace_worst(expanded, f_e)
            else:
                replace_worst(reflected, f_r)
        elif f_r < values[-2]:
            replace_worst(reflected, f_r)
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
                replace_worst(contracted, f_c)
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
                sort()

    return OptimResult(
        x_min=simplex[0].copy(),
        f_min=values[0],
        iterations=iterations,
        n_evals=evals,
        converged=converged,
    )


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
    with np.errstate(over="ignore"):  # an rms past the float range is inf, without a warning
        rms = float(np.sqrt(np.mean((fitted - y) ** 2)))
    return PolynomialModel(
        coeffs=tuple(float(c) for c in coeffs),
        t0=t0,
        t_min=float(x.min()),
        t_max=float(x.max()),
        residual_rms=rms,
    )


def chi2_tail(chi2: float, dof: int) -> float:
    """P(X >= chi2) for X chi^2-distributed with ``dof`` >= 1 degrees of
    freedom: the regularized upper incomplete gamma Q(dof/2, chi2/2), as a
    finite sum of positive terms by Q(a + 1, y) = Q(a, y) + y^a e^-y /
    Gamma(a + 1) from Q(0, y) = 0 (even dof) or Q(1/2, y) = erfc(sqrt(y))
    (odd dof).  Past e^-y's underflow, far in the tail, it is 0."""
    if not (isinstance(dof, int) and dof >= 1 and 0 <= chi2 < math.inf):
        raise ValueError(f"need dof >= 1 and a finite chi2 >= 0, not {dof!r} and {chi2!r}")
    y = chi2 / 2
    a = 0.5 * (dof % 2)
    q = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    term = math.exp(-y) * y**a / math.gamma(a + 1)
    for _ in range(dof // 2):
        q += term
        a += 1
        term *= y / a
    return min(q, 1.0)
