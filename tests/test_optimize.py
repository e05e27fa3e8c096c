import numpy as np
import pytest

from nvground import optimize
from nvground.optimize import (
    NonFiniteObjectiveError,
    PolynomialModel,
    RankDeficientError,
    nelder_mead,
    polyfit_weighted,
    weighted_objective,
)
from nvground.presets import thermal_presets


def test_quadratic_1d():
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert res.converged
    assert res.x_min[0] == pytest.approx(3.0, abs=1e-6)
    assert res.f_min <= (0.0 - 3.0) ** 2


def test_rosenbrock():
    rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    res = nelder_mead(rosen, [-1.2, 1.0])
    assert res.converged
    assert np.allclose(res.x_min, [1.0, 1.0], atol=1e-4)


def test_constant_objective_converges_immediately():
    res = nelder_mead(lambda x: 5.0, [1.0, 2.0, 3.0])
    assert res.converged
    assert np.array_equal(res.x_min, [1.0, 2.0, 3.0])


def test_convex_quadratic_random_starts():
    rng = np.random.default_rng(42)
    q = rng.normal(size=(6, 6))
    a = q @ q.T + 6 * np.eye(6)
    x_star = rng.normal(size=6)
    fun = lambda x: 0.5 * (x - x_star) @ a @ (x - x_star)
    for _ in range(20):
        x0 = x_star + rng.normal(size=6) * 2
        res = nelder_mead(fun, x0)
        rel = np.max(np.abs(res.x_min - x_star)) / max(1.0, np.max(np.abs(x_star)))
        assert rel < 1e-5


def test_deterministic():
    fun = lambda x: (x[0] - 1) ** 2 + (x[1] + 2) ** 4
    r1 = nelder_mead(fun, [0.3, 0.4])
    r2 = nelder_mead(fun, [0.3, 0.4])
    assert np.array_equal(r1.x_min, r2.x_min)
    assert r1.iterations == r2.iterations


def test_nonfinite_objective_reports_point():
    def fun(x):
        return np.nan if x[0] > 2.0 else (x[0] - 3.0) ** 2

    with pytest.raises(NonFiniteObjectiveError) as err:
        nelder_mead(fun, [0.0])
    assert err.value.point.shape == (1,)


def test_iteration_cap_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(optimize, "_MAX_ITER", 3)
    res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0])
    assert not res.converged
    assert res.iterations == 3


def test_options_validation():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: x[0] ** 2, [1.0], tol_f=0.0)


def test_weighted_objective_examples():
    assert weighted_objective([1.0, 2.0], [0.1, 0.2])([1.0, 2.0]) == 0.0
    assert weighted_objective([1.0], [0.5])([1.5]) == pytest.approx(1.0)
    assert weighted_objective([0.0, 0.0], [1.0, 1.0])([1.0, 2.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        weighted_objective([1.0], [0.0])
    with pytest.raises(ValueError):
        weighted_objective([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        weighted_objective([1.0], [1.0])([1.0, 2.0])


def test_polyfit_recovers_exact_line():
    t = np.linspace(77.0, 400.0, 5)
    y = 2.0 + 3.0 * (t - 297.0)
    m = polyfit_weighted(t, y, np.ones_like(t), 4, 297.0)
    assert np.allclose(m.coeffs, [2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-9)
    assert m.residual_rms < 1e-9


def test_polyfit_interpolates_with_exact_point_count():
    rng = np.random.default_rng(1)
    t = np.array([77.0, 150.0, 250.0, 330.0, 400.0])
    y = rng.normal(size=5)
    m = polyfit_weighted(t, y, np.ones_like(t), 4, 297.0)
    assert m.residual_rms < 1e-8


def test_polyfit_recovers_zfs_slope():
    # quartic sampling of a quadratic temperature law recovers the slope
    t = np.linspace(77.0, 400.0, 12)
    y = 2870.28e3 - 72.5 * (t - 297.0) + (-0.39 / 2) * (t - 297.0) ** 2
    m = polyfit_weighted(t, y, np.ones_like(t), 4, 297.0)
    assert m.derivative(297.0) == pytest.approx(-72.5, rel=0.01)
    assert m.fractional_derivative_ppm(297.0) == pytest.approx(-25.26, rel=0.01)


def test_polyfit_derivative_matches_finite_difference():
    t = np.linspace(77.0, 400.0, 9)
    y = 1.0 + 0.1 * (t - 297.0) - 2e-4 * (t - 297.0) ** 2 + 3e-7 * (t - 297.0) ** 3
    m = polyfit_weighted(t, y, np.ones_like(t), 4, 297.0)
    h = 1e-3
    fd = (m.value(297.0 + h) - m.value(297.0 - h)) / (2 * h)
    assert m.derivative(297.0) == pytest.approx(fd, rel=1e-6)
    fd2 = (m.value(297.0 + h) - 2 * m.value(297.0) + m.value(297.0 - h)) / h**2
    assert m.second_derivative(297.0) == pytest.approx(fd2, rel=1e-4)


def test_derived_is_the_derivative_polynomial():
    m = PolynomialModel(coeffs=(1.0, 2.0, 3.0, 4.0, 5.0), t0=297.0, t_min=77.0, t_max=400.0)
    d = m.derived()
    assert d == PolynomialModel(coeffs=(2.0, 6.0, 12.0, 20.0), t0=297.0, t_min=77.0, t_max=400.0)
    assert d.derived().coeffs == (6.0, 24.0, 60.0)
    const = PolynomialModel(coeffs=(3.0,), t0=297.0, t_min=77.0, t_max=400.0)
    assert const.derived().coeffs == (0.0,)
    assert const.derivative(350.0) == const.second_derivative(350.0) == 0.0


def test_derivatives_are_the_termwise_horner_sums():
    # derivative and second_derivative through derived() keep the bits of
    # Horner sums over k c_k and k (k - 1) c_k for degree-4 models.
    def horner(terms, dt):
        acc = 0.0
        for term in reversed(terms):
            acc = acc * dt + term
        return acc

    t = np.linspace(77.0, 400.0, 12)
    y = np.random.default_rng(7).normal(size=t.size)
    models = [polyfit_weighted(t, y, np.ones_like(t), 4, 297.0)]
    models += [*thermal_presets("N14").values(), *thermal_presets("N15").values()]
    for m in models:
        c = m.coeffs
        for t in (77.0, 150.0, 297.0, 333.3, 400.0):
            dt = t - m.t0
            assert m.derivative(t) == horner([k * c[k] for k in range(1, 5)], dt)
            assert m.second_derivative(t) == horner([k * (k - 1) * c[k] for k in range(2, 5)], dt)


def test_polyfit_weights_pull_fit():
    t = np.array([100.0, 200.0, 300.0, 400.0, 250.0, 150.0])
    y = np.zeros_like(t)
    y[2] = 1.0
    tight = polyfit_weighted(t, y, np.where(t == 300.0, 1e-6, 1.0), 1, 297.0)
    loose = polyfit_weighted(t, y, np.ones_like(t), 1, 297.0)
    assert abs(tight.value(300.0) - 1.0) < abs(loose.value(300.0) - 1.0)


def test_polyfit_rank_deficiency():
    t = np.array([297.0] * 6)
    with pytest.raises(RankDeficientError):
        polyfit_weighted(t, np.ones_like(t), np.ones_like(t), 4, 297.0)
    dup = np.array([100.0, 100.0, 200.0, 200.0, 300.0])
    with pytest.raises(RankDeficientError):
        polyfit_weighted(dup, np.ones_like(dup), np.ones_like(dup), 4, 297.0)


def test_polyfit_needs_enough_points():
    with pytest.raises(ValueError):
        polyfit_weighted([1.0, 2.0], [1.0, 2.0], [1.0, 1.0], 4, 0.0)
