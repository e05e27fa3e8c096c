import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvground import optimize, ramsey
from nvground.optimize import (
    NonFiniteObjectiveError,
    OptimResult,
    PolynomialModel,
    RankDeficientError,
    nelder_mead,
    chi2_tail,
    polyfit_weighted,
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


def _argsort_nelder_mead(objective, x0, tol_f=1e-12, tol_x=1e-10):
    """The simplex as it was before it kept itself sorted: a stable argsort
    and a fancy-index copy every iteration.  A test-only reference for the
    bits of `nelder_mead`; it also returns how many shrinks it made."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    evals = 0
    shrinks = 0

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
        step = optimize._SIMPLEX_SCALE * x0[i]
        simplex[i + 1, i] += step if step != 0 else optimize._ZERO_STEP
    values = np.array([f0] + [f(simplex[i + 1]) for i in range(n)])

    iterations = 0
    converged = False
    while iterations < optimize._MAX_ITER:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        f_spread = float(values[-1] - values[0])
        x_spread = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if f_spread <= tol_f * max(1.0, abs(values[0])) and x_spread <= tol_x * max(
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
                shrinks += 1
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])

    order = np.argsort(values, kind="stable")
    best = int(order[0])
    result = OptimResult(
        x_min=simplex[best].copy(),
        f_min=float(values[best]),
        iterations=iterations,
        n_evals=evals,
        converged=converged,
    )
    return result, shrinks


def _bits(r: OptimResult):
    return r.x_min.tobytes(), r.f_min.hex(), r.iterations, r.n_evals, r.converged


def _same_as_reference(objective, x0, **tolerances) -> int:
    """Assert that `nelder_mead` gives the reference's bits; return the
    reference's shrink count."""
    expected, shrinks = _argsort_nelder_mead(objective, x0, **tolerances)
    assert _bits(nelder_mead(objective, x0, **tolerances)) == _bits(expected)
    return shrinks


coordinate = st.floats(-5.0, 5.0, allow_nan=False)
# Zero coordinates take the absolute first step, _ZERO_STEP.
start = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.one_of(st.just(0.0), coordinate), min_size=n, max_size=n)
)
tolerances = st.sampled_from([{}, {"tol_f": 1e-8, "tol_x": 1e-6}])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x0=start, seed=st.integers(0, 2**32 - 1), tol=tolerances)
def test_sorted_simplex_matches_reference_on_convex_quadratics(x0, seed, tol):
    rng = np.random.default_rng(seed)
    n = len(x0)
    q = rng.normal(size=(n, n))
    a = q @ q.T + 0.1 * np.eye(n)
    center = rng.normal(size=n)
    _same_as_reference(lambda x: float((x - center) @ a @ (x - center)), x0, **tol)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(x0=st.lists(coordinate, min_size=2, max_size=4), tol=tolerances)
def test_sorted_simplex_matches_reference_on_rosenbrock(x0, tol):
    def rosen(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    _same_as_reference(rosen, x0, **tol)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x0=start, levels=st.sampled_from([1.0, 4.0, 64.0, 1024.0]))
def test_sorted_simplex_matches_reference_on_plateaus(x0, levels):
    # A quadratic rounded to 1/levels: many vertices share a value exactly,
    # so the slot of each new vertex among equal values is what is tested.
    def plateau(x):
        return math.floor(levels * float(x @ x)) / levels

    _same_as_reference(plateau, x0)


def _rough(center, amplitude, wavenumber):
    # A quadratic under a fast ripple: reflections and contractions often
    # fail, and the simplex shrinks.
    def rough(x):
        d = x - center
        return float(d @ d) + amplitude * math.sin(wavenumber * float(x.sum()))

    return rough


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    x0=start,
    center=st.floats(-2.0, 2.0),
    amplitude=st.floats(0.01, 0.5),
    wavenumber=st.floats(10.0, 1e4),
)
@example(x0=[1.0, 2.0], center=0.0, amplitude=0.1, wavenumber=1e3)
def test_sorted_simplex_matches_reference_through_shrinks(x0, center, amplitude, wavenumber):
    _same_as_reference(_rough(center, amplitude, wavenumber), x0)


def test_the_rippled_quadratic_forces_shrinks():
    assert _same_as_reference(_rough(0.0, 0.1, 1e3), [1.0, 2.0]) > 0
    assert _same_as_reference(lambda x: 5.0, [1.0, 2.0, 3.0]) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x0=start, seed=st.integers(0, 2**32 - 1), cap=st.integers(0, 40))
def test_sorted_simplex_matches_reference_at_the_iteration_cap(x0, seed, cap):
    center = np.random.default_rng(seed).normal(size=len(x0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_MAX_ITER", cap)
        _same_as_reference(lambda x: float(np.sum(np.abs(x - center) ** 1.5)), x0)


def test_fringe_fits_match_the_reference_simplex(monkeypatch):
    # Criterion 9's noisy traces, fitted through both simplexes.
    times = np.linspace(0.0, 2e-3, 200)
    traces = [
        ramsey.synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, times, noise_sigma=0.025, rng_seed=seed)
        for seed in range(20)
    ]
    fits = [ramsey.fit_fringes(t) for t in traces]
    monkeypatch.setattr(ramsey, "nelder_mead", lambda *a: _argsort_nelder_mead(*a)[0])
    assert fits == [ramsey.fit_fringes(t) for t in traces]


def test_options_validation():
    with pytest.raises(ValueError):
        nelder_mead(lambda x: x[0] ** 2, [1.0], tol_f=0.0)


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


def test_polyfit_residual_past_the_float_range_is_inf_without_a_warning():
    # gamma_e/gamma_n at gamma_n = 1e-300 is about 2.8e303: the fit's
    # residuals there square past the float range.  The rms is inf, for
    # thermal_models to refuse, and no overflow warning escapes to a library
    # caller (the suite turns a warning into an error).
    t = np.array([77.0, 150.0, 225.0, 297.0, 400.0])
    y = 2.8033e303 * np.array([1.0, 1.0 + 1e-12, 1.0, 1.0 - 1e-12, 1.0])
    assert polyfit_weighted(t, y, np.ones_like(t), 4, 297.0).residual_rms == math.inf


def test_polyfit_needs_enough_points():
    with pytest.raises(ValueError):
        polyfit_weighted([1.0, 2.0], [1.0, 2.0], [1.0, 1.0], 4, 0.0)


# (dof, chi2, Q(dof/2, chi2/2)) from mpmath.gammainc(dof/2, chi2/2, inf,
# regularized=True) at 40 digits, rounded to 17.
CHI2_TAIL_REFERENCE = [
    (1, 0.5, 0.47950012218695346),
    (1, 30.0, 4.3204630578274973e-8),
    (2, 1.0, 0.60653065971263342),
    (2, 27.6, 1.0156314710024902e-6),
    (3, 4.2, 0.24066188520961539),
    (4, 0.01, 0.99998754158864572),
    (5, 11.07, 0.050009618622405482),
    (6, 50.0, 4.701068998290321e-9),
    (9, 3.3, 0.95120469068409706),
    (2, 1400.0, 9.8596765437597709e-305),
    (7, 1400.0, 3.8599631812373352e-298),
]


@pytest.mark.parametrize("dof, chi2, expected", CHI2_TAIL_REFERENCE)
def test_chi2_tail_matches_mpmath(dof, chi2, expected):
    assert chi2_tail(chi2, dof) == pytest.approx(expected, rel=1e-13)


def test_chi2_tail_edges():
    assert chi2_tail(0.0, 1) == chi2_tail(0.0, 2) == 1.0
    # mpmath gives 5.9e-30400613734: past the float range, so 0.
    assert chi2_tail(1.4e11, 2) == 0.0
    for dof, chi2 in ((0, 1.0), (2, -1.0), (2, math.inf), (2, math.nan), (2.0, 1.0)):
        with pytest.raises(ValueError):
            chi2_tail(chi2, dof)
