import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_point import reference_lines

from nvground.extraction import (
    MeasurementEntry,
    MeasurementSet,
    ParamVector,
    extract_params,
    model_frequencies,
    params_from_models,
    thermal_models,
    transition_table,
    _coefficient_row,
    _jacobian,
)
from nvground.optimize import FitConvergenceError, PolynomialModel
from nvground.presets import (
    GAMMA_RATIO_N14,
    TABLE3,
    TABLE3_BZ_G,
    line_sigma_khz,
    params_at,
    thermal_presets,
)
from nvground import extraction, optimize
from nvground.spin_core import GAMMA_E_KHZ_PER_G, N14, N15, FieldConfig, _coefficients
from nvground.transitions import LINES, AmbiguousLabelingError, _kernel, known_labels, transition_set

B470 = FieldConfig(bz=TABLE3_BZ_G)
FIT_LABELS_N14 = ["f1", "f2", "f3", "f4", "f5", "f6", "fplus_+1", "fminus_+1"]
FIT_LABELS_N15 = ["f7", "f8", "f9", "fplus_+1/2", "fminus_+1/2"]


def synthetic_set(iso, temperature=297.0, bz=470.0, noise=0.0, seed=0, bx=0.0):
    p = params_at(iso, temperature)
    ts = transition_set(p, FieldConfig(bz=bz, bx=bx), iso)
    labels = FIT_LABELS_N14 if iso.name == "N14" else FIT_LABELS_N15
    rng = np.random.default_rng(seed)
    entries = []
    for label in labels:
        sigma = line_sigma_khz(label)
        bump = rng.normal() * sigma * noise if noise else 0.0
        entries.append(MeasurementEntry(label, float(ts[label]) + bump, sigma))
    return MeasurementSet(temperature=temperature, isotope=iso, entries=tuple(entries))


def truth_vector(iso, temperature=297.0, bz=470.0):
    return ParamVector.from_physical(iso.name, params_at(iso, temperature), FieldConfig(bz=bz))


def perturbed(vec, rel=1e-3):
    scale = 1 + rel * np.array([1, -1, 1, -1, 1, 0, 1][: len(vec.fields())])
    return vec.with_array(vec.as_array() * scale)


def test_param_vector_roundtrip():
    vec = truth_vector(N14)
    p, f = vec.to_physical()
    back = ParamVector.from_physical("N14", p, f)
    assert np.allclose(back.as_array(), vec.as_array(), rtol=1e-14)
    assert len(truth_vector(N15).fields()) == 6
    # An array of another length is refused, not half applied.
    for values in (vec.as_array()[:-1], np.append(vec.as_array(), 1.0)):
        with pytest.raises(ValueError, match="^zip"):
            vec.with_array(values)


def test_noiseless_roundtrip_n14():
    ms = synthetic_set(N14)
    truth = truth_vector(N14)
    fit = extract_params(ms, perturbed(truth))
    assert fit.unresolved == ("gamma_e_bx",)
    assert fit.objective < 1e-6
    assert fit.params.q == pytest.approx(truth.q, abs=0.01)
    assert fit.params.a_par == pytest.approx(truth.a_par, abs=0.01)
    assert fit.params.a_perp == pytest.approx(truth.a_perp, abs=0.5)
    assert fit.params.d == pytest.approx(truth.d, abs=1.0)
    assert fit.params.gamma_ratio == pytest.approx(GAMMA_RATIO_N14, abs=0.5)


def test_noiseless_roundtrip_n15():
    ms = synthetic_set(N15)
    truth = truth_vector(N15)
    fit = extract_params(ms, perturbed(truth), fixed=("gamma_e_bx",))
    assert fit.params.a_par == pytest.approx(truth.a_par, abs=0.01)
    assert fit.params.a_perp == pytest.approx(truth.a_perp, abs=0.5)
    assert fit.params.d == pytest.approx(truth.d, abs=1.0)


def test_n15_set_holds_and_reports_gamma_e_bx():
    # Five lines, six fit fields: on axis the gamma_e_bx column is flat, so
    # it needs no line; the fit holds it at the guess and names it.
    ms = synthetic_set(N15)
    truth = truth_vector(N15)
    fit = extract_params(ms, perturbed(truth))
    assert fit.unresolved == ("gamma_e_bx",)
    assert abs(fit.params.gamma_e_bx - truth.gamma_e_bx) <= 1e-12
    assert fit.objective < 1e-6
    assert fit.params.a_par == pytest.approx(truth.a_par, abs=0.01)
    assert fit.params.a_perp == pytest.approx(truth.a_perp, abs=0.5)
    assert fit.params.d == pytest.approx(truth.d, abs=1.0)


def test_fit_reorder_invariance():
    ms = synthetic_set(N14, noise=1.0, seed=3)
    truth = truth_vector(N14)
    fit1 = extract_params(ms, truth, fixed=("gamma_e_bx",))
    reordered = MeasurementSet(
        temperature=ms.temperature, isotope=ms.isotope, entries=tuple(reversed(ms.entries))
    )
    fit2 = extract_params(reordered, truth, fixed=("gamma_e_bx",))
    assert np.array_equal(fit1.params.as_array(), fit2.params.as_array())


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
@pytest.mark.parametrize("bz, bx", [(470.0, 0.0), (100.0, 0.3)], ids=["axial-470G", "tilted-100G"])
def test_jacobian_matches_central_differences(iso, bz, bx):
    # The kernel's Hellmann-Feynman stack over three fields (the given one
    # scaled by 0.5, 1 and 1.5), each point the bits of _jacobian's batch of
    # one, through the chain rule to the fit fields, gamma_e_bx and
    # gamma_ratio included, against central differences of the forward
    # model over every line with two levels.  The lines carry about 3e-9 kHz
    # of eigensolver noise, so the step is 1e-4 of each field and the
    # tolerance 5e-9 kHz over the step.
    labels = known_labels(iso)
    rows = [list(LINES[iso.name]).index(label) for label in labels]
    vecs = [
        ParamVector.from_physical(iso.name, params_at(iso), FieldConfig(bz=k * bz, bx=k * bx))
        for k in (0.5, 1.0, 1.5)
    ]
    p = vecs[0].to_physical()[0]
    points = [(f.bz, f.bx) for _, f in (vec.to_physical() for vec in vecs)]
    lines, derivatives = _kernel(_coefficients(p, points, iso), iso, points, derivatives=True)
    for vec, line, derivative in zip(vecs, lines, derivatives, strict=True):
        x = vec.as_array()
        model, jac = _jacobian(vec, iso, labels)
        assert np.array_equal(model, line[rows])
        assert np.array_equal(model, model_frequencies(x, iso, labels))
        assert np.array_equal(jac, _coefficient_row(x, iso, derivative[rows].T)[2])
        for j, name in enumerate(vec.fields()):
            h = 1e-4 * abs(x[j]) if x[j] else 1e-2
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd = (model_frequencies(up, iso, labels) - model_frequencies(down, iso, labels)) / (2 * h)
            assert np.allclose(jac[:, j], fd, rtol=1e-6, atol=5e-9 / h), name


def test_fit_residuals_consistent_with_objective():
    ms = synthetic_set(N14, noise=1.0, seed=5)
    fit = extract_params(ms, truth_vector(N14), fixed=("gamma_e_bx",))
    acc = sum(
        (fit.residuals[e.label] / e.sigma_khz) ** 2 for e in ms.entries
    )
    assert acc == pytest.approx(fit.objective, rel=1e-9)
    # forward model reproduces measurements within a few sigma
    for e in ms.entries:
        assert abs(fit.residuals[e.label]) < 3 * e.sigma_khz


# A noisy N14 set at T = 80.93 K, Bz = 479.083 G (kHz, sigma) whose chi^2
# keeps sinking by about 5e-5 relative with every fresh simplex built at the
# best vertex, so a fit that reruns the simplex until chi^2 stops falling
# never ends; one converged run is the fit.
PLATEAU_T_K, PLATEAU_BZ_G = 80.93, 479.083
PLATEAU_ENTRIES = (
    ("f1", 5091.160106, 0.01),
    ("f2", 4799.35271, 0.01),
    ("f3", 2905.192126, 0.08),
    ("f4", 6996.425863, 0.08),
    ("f5", 7288.09674, 0.08),
    ("f6", 2610.323519, 0.08),
    ("fplus_+1", 4217664.724813, 2.0),
    ("fminus_+1", 1536025.17884, 2.0),
)


def test_plateau_fit_returns_below_the_truth():
    entries = tuple(MeasurementEntry(*e) for e in PLATEAU_ENTRIES)
    ms = MeasurementSet(PLATEAU_T_K, N14, entries)
    fit = extract_params(ms, truth_vector(N14), fixed=("gamma_e_bx",))
    labels = [e.label for e in entries]
    measured, sigmas = (np.array([e[i] for e in PLATEAU_ENTRIES]) for i in (1, 2))
    truth = truth_vector(N14, PLATEAU_T_K, PLATEAU_BZ_G).as_array()
    r = (model_frequencies(truth, N14, labels) - measured) / sigmas
    assert fit.objective <= r @ r


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
def test_one_simplex_run_per_fit(monkeypatch, iso):
    runs, real = [], extraction.nelder_mead

    def spy(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(extraction, "nelder_mead", spy)
    ms = synthetic_set(iso, noise=1.0, seed=3)
    fit = extract_params(ms, truth_vector(iso), fixed=("gamma_e_bx",))
    assert len(runs) == 1
    assert (fit.iterations, fit.n_evals) == (runs[0].iterations, runs[0].n_evals)


def test_unconverged_fit_names_its_temperature(monkeypatch):
    monkeypatch.setattr(optimize, "_MAX_ITER", 5)
    message = r"^fit at T = 297\.0 K did not converge in 5 iterations$"
    with pytest.raises(FitConvergenceError, match=message):
        extract_params(synthetic_set(N14), perturbed(truth_vector(N14)))


# On-axis N14 sets at 470 G with gamma_e_bx free, against the on-axis
# 297 K guess: (Bx in the data in G, T in K, noise scale) -> the chi^2 the
# fit returned when it still searched gamma_e_bx on a raw-coordinate scale.
# The lines are even in Bx, so at Bx = 0 they do not resolve it: the fit
# holds it at the guess, names it, and lands on the same chi^2.
ON_AXIS_CHI2 = {
    (0.0, 77.0, 0.0): 5.782075400682966e-09,
    (0.0, 77.0, 1.0): 0.11754731210272196,
    (0.0, 297.0, 0.0): 0.0,
    (0.0, 297.0, 1.0): 0.11758115014466901,
    (0.0, 400.0, 0.0): 9.243911269478498e-10,
    (0.0, 400.0, 1.0): 0.11763142979906997,
    (0.3, 77.0, 0.0): 0.00029034435250136024,
    (0.3, 77.0, 1.0): 0.12041794339582779,
    (0.3, 297.0, 0.0): 0.00028664297194865197,
    (0.3, 297.0, 1.0): 0.12041054586589145,
    (0.3, 400.0, 0.0): 0.00028637158208749,
    (0.3, 400.0, 1.0): 0.1204479742590003,
    (1.0, 77.0, 0.0): 0.0358437022897762,
    (1.0, 77.0, 1.0): 0.18206128352648013,
    (1.0, 297.0, 0.0): 0.03538716067922561,
    (1.0, 297.0, 1.0): 0.18122079396445667,
    (1.0, 400.0, 0.0): 0.035353112616097866,
    (1.0, 400.0, 1.0): 0.18109786123361382,
    (2.0, 77.0, 0.0): 0.573443456506032,
    (2.0, 77.0, 1.0): 0.8056682087377947,
    (2.0, 297.0, 0.0): 0.5661397224451525,
    (2.0, 297.0, 1.0): 0.7967273929840306,
    (2.0, 400.0, 0.0): 0.5655947873946512,
    (2.0, 400.0, 1.0): 0.7956759534603366,
}


@pytest.mark.parametrize("bx, temperature, noise", sorted(ON_AXIS_CHI2))
def test_on_axis_gamma_e_bx_is_held_and_reported(bx, temperature, noise):
    guess = truth_vector(N14)
    ms = synthetic_set(N14, temperature, noise=noise, seed=3, bx=bx)
    fit = extract_params(ms, guess)
    assert fit.unresolved == ("gamma_e_bx",)
    assert abs(fit.params.gamma_e_bx - guess.gamma_e_bx) <= 1e-12
    chi2 = ON_AXIS_CHI2[bx, temperature, noise]
    assert abs(fit.objective - chi2) <= 1e-5 * max(1.0, chi2)


def test_tilted_guess_resolves_gamma_e_bx():
    # Off axis the lines move with Bx to first order, so gamma_e_bx is fitted.
    guess = replace(truth_vector(N14), gamma_e_bx=GAMMA_E_KHZ_PER_G * 1.0)
    fit = extract_params(synthetic_set(N14, bx=1.5), guess)
    assert fit.unresolved == ()
    assert fit.params.gamma_e_bx == pytest.approx(GAMMA_E_KHZ_PER_G * 1.5, rel=1e-5)


def test_fit_that_resolves_no_direction_is_refused(monkeypatch):
    # An all-zero Jacobian: every free direction is flat, so there is
    # nothing to search (ValueError, exit 2, naming the temperature).
    real = extraction._jacobian

    def flat_jacobian(*args):
        model, jac = real(*args)
        return model, np.zeros_like(jac)

    monkeypatch.setattr(extraction, "_jacobian", flat_jacobian)
    monkeypatch.setattr(extraction, "nelder_mead", None)
    with pytest.raises(ValueError, match=r"^T = 297\.0 K: the lines resolve no free parameter$"):
        extract_params(synthetic_set(N14), truth_vector(N14))


def test_underdetermined_fit_rejected():
    ms = synthetic_set(N14)
    short = MeasurementSet(
        temperature=297.0, isotope=N14, entries=ms.entries[:3]
    )
    with pytest.raises(ValueError):
        extract_params(short, truth_vector(N14))


@pytest.mark.parametrize("iso, other", [(N15, N14), (N14, N15)], ids=["N15-set", "N14-set"])
def test_guess_of_the_other_isotope_is_refused(iso, other):
    ms = synthetic_set(iso)
    message = f"^T = 297.0 K: the guess is {other.name}, the measurements are {iso.name}$"
    with pytest.raises(ValueError, match=message):
        extract_params(ms, truth_vector(other))


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        MeasurementSet(
            temperature=297.0,
            isotope=N15,
            entries=(MeasurementEntry("f1", 100.0, 0.1),),
        )


@pytest.mark.parametrize(
    "freq, sigma",
    [(np.nan, 0.1), (100.0, np.nan), (100.0, np.inf)],
    ids=["nan-freq", "nan-sigma", "inf-sigma"],
)
def test_non_finite_measurement_rejected(freq, sigma):
    # An infinite sigma would pass the positivity check and silently drop
    # its line from chi^2; a NaN would surface only inside the optimizer.
    with pytest.raises(ValueError, match="finite"):
        MeasurementSet(
            temperature=297.0, isotope=N14, entries=(MeasurementEntry("f1", freq, sigma),)
        )


def test_repeated_transition_rejected():
    # FitResult.residuals is keyed by label, so a second f1 row would be
    # fitted but its residual never reported.
    entries = (MeasurementEntry("f1", 5085.95, 0.01), MeasurementEntry("f2", 4799.65, 0.01))
    with pytest.raises(ValueError, match="^f1 is listed twice at 297.0 K$"):
        MeasurementSet(297.0, N14, (*entries, MeasurementEntry("f1", 5086.95, 0.01)))


def test_guess_at_the_anticrossing_is_refused():
    # gamma_e Bz = D puts the first trial point on the level anti-crossing.
    guess = truth_vector(N14, bz=1022.8)
    with pytest.raises(AmbiguousLabelingError) as err:
        extract_params(synthetic_set(N14), guess, fixed=("gamma_e_bx",))
    text = str(err.value)
    # The temperature leads; the trial point prints as plain floats.
    assert text.startswith("T = 297.0 K: labeling failed at trial point {'d': 2870")
    assert "np.float64" not in text
    assert re.search(r"\}: at Bz = 1022\.8\d* G, Bx = 0\.0 G \(N14\): eigenstate \d+ has", text)


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
def test_fixing_every_parameter_is_refused(monkeypatch, iso):
    # Refused before any solve, as a ValueError (exit 2) that names the
    # temperature and the cause.
    monkeypatch.setattr(extraction, "_jacobian", None)
    monkeypatch.setattr(extraction, "model_frequencies", None)
    guess = truth_vector(iso)
    with pytest.raises(ValueError, match=r"^T = 297\.0 K: every parameter is fixed; nothing to fit$"):
        extract_params(synthetic_set(iso), guess, fixed=guess.fields())


@pytest.mark.parametrize("name", ["d", "gamma_e_bz"])
def test_non_finite_guess_is_refused(name):
    guess = replace(truth_vector(N14), **{name: float("nan")})
    with pytest.raises(ValueError, match="must be finite"):
        extract_params(synthetic_set(N14), guess, fixed=("gamma_e_bx",))


@pytest.mark.parametrize("iso", [N14, N15])
def test_model_frequencies_match_the_per_point_path(iso):
    labels = FIT_LABELS_N14 if iso.name == "N14" else FIT_LABELS_N15
    names = list(LINES[iso.name])
    truth = truth_vector(iso)
    rng = np.random.default_rng(7)
    for k in range(200):
        x = truth.as_array() * (1 + 1e-4 * rng.standard_normal(len(truth.fields())))
        if k % 2:  # half the trial points off axis: Bx = |N(0, 1)| * 0.71 G
            x[truth.fields().index("gamma_e_bx")] = abs(rng.normal()) * 2e3
        reference = reference_lines(*truth.with_array(x).to_physical(), iso)
        expected = [reference[names.index(label)] for label in labels]
        assert np.array_equal(model_frequencies(x, iso, labels), expected)


# Labels of both isotopes and one of neither, so that a foreign label is tried.
ANY_LABEL = st.sampled_from(sorted({*LINES["N14"], *LINES["N15"], "f0"}))
MOST_LINES = len(LINES["N14"])
G = GAMMA_E_KHZ_PER_G


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    gamma_e_bz=st.floats(5.0 * G, 1500.0 * G),
    gamma_e_bx=st.floats(0.0, 5.0 * G),
    scales=st.lists(st.floats(0.9, 1.1), min_size=5, max_size=5),
    order=st.permutations(range(MOST_LINES)),
    count=st.integers(0, MOST_LINES),
    foreign=st.lists(ANY_LABEL, max_size=1),
)
# On the anti-crossing (refused) and beside it, at the presets.
@example(N14, 1022.8 * G, 0.0, [1.0] * 5, range(MOST_LINES), MOST_LINES, [])
@example(N15, 1000.0 * G, 0.5 * G, [1.0] * 5, range(MOST_LINES), MOST_LINES, [])
def test_model_frequencies_are_the_per_point_bits(
    iso, gamma_e_bz, gamma_e_bx, scales, order, count, foreign
):
    # A fit's trial point (fit coordinates drawn as floats, Bz from 5 to
    # 1500 G, Bx to 5 G, couplings within 10% of the presets) through the
    # fit's forward model and through the per-point path at
    # vec.to_physical(): the same bits for any label subset in any order,
    # or the same refusal.
    names = list(LINES[iso.name])
    labels = [names[i] for i in order if i < len(names)][:count] + foreign
    truth = truth_vector(iso)
    x = dict(zip(truth.fields(), truth.as_array()))
    for name, k in zip(("d", "q", "a_par", "a_perp", "gamma_ratio"), scales):
        x[name] = x.get(name, 0.0) * k
    x.update(gamma_e_bz=gamma_e_bz, gamma_e_bx=gamma_e_bx)
    x = np.array([x[name] for name in truth.fields()])
    p, f = truth.with_array(x).to_physical()
    try:
        reference = dict(zip(names, reference_lines(p, f, iso)))
        expected = np.array([reference[label] for label in labels])
    except AmbiguousLabelingError as err:
        refusal = AmbiguousLabelingError(f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name}): {err}")
    except KeyError as err:
        refusal = err
    else:
        model = model_frequencies(x, iso, labels)
        assert model.dtype == expected.dtype and model.tobytes() == expected.tobytes()
        return
    with pytest.raises(type(refusal)) as refused:
        model_frequencies(x, iso, labels)
    assert str(refused.value) == str(refusal)


@pytest.mark.parametrize(
    "iso, change",
    [
        (N14, {"d": np.nan}),
        (N14, {"gamma_ratio": 0.0}),
        (N14, {"gamma_ratio": 1e-320}),
        (N14, {"gamma_e_bz": np.inf}),
        (N15, {"gamma_e_bx": -np.nan}),
        (N15, {"q": 1.0}),
        (N15, {"q": np.nan, "gamma_e_bz": np.nan}),
    ],
)
def test_model_frequencies_refuse_as_the_objects_do(iso, change):
    # The forward model builds no CouplingParams or FieldConfig, but refuses
    # what their constructors and transition_set refuse, with the same
    # exception, message and order.  A 15NV fit array has no Q, so a 15NV Q
    # is refused where it enters: extract_params's guess.
    vec = replace(truth_vector(iso), **change)
    with pytest.raises(Exception) as expected:
        transition_set(*vec.to_physical(), iso)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        if "q" in change and iso is N15:
            extract_params(synthetic_set(iso), vec, fixed=("gamma_e_bx",))
        else:
            model_frequencies(vec.as_array(), iso, known_labels(iso))


# What a trial point may hold beside ordinary values: each refusal's trigger.
SPECIAL = st.sampled_from([0.0, -0.0, 1e-320, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    gamma_e_bz=st.floats(5.0 * G, 1500.0 * G),
    gamma_e_bx=st.floats(-5.0 * G, 5.0 * G),
    scales=st.lists(st.floats(0.9, 1.1), min_size=5, max_size=5),
    special=st.lists(st.tuples(st.integers(0, 6), SPECIAL), max_size=2),
)
@example(N15, 470.0 * G, -0.0, [1.0] * 5, [])
@example(N14, 470.0 * G, 0.3 * G, [1.0] * 5, [(6, 0.0)])
def test_coefficient_row_is_the_objects_row(iso, gamma_e_bz, gamma_e_bx, scales, special):
    # The fit array -> coefficient row map against _coefficients at
    # vec.to_physical() (N15's gamma_ratio is negative): the same bits, or
    # the same refusal; and its derivative against differences of the row.
    truth = truth_vector(iso)
    values = dict(zip(truth.fields(), truth.as_array()))
    for name, k in zip(("d", "q", "a_par", "a_perp", "gamma_ratio"), scales):
        values[name] = values.get(name, 0.0) * k
    values.update(gamma_e_bz=gamma_e_bz, gamma_e_bx=gamma_e_bx)
    x = np.array([values[name] for name in truth.fields()])
    for i, value in special:
        x[i % len(x)] = value
    try:
        p, f = truth.with_array(x).to_physical()
        expected = _coefficients(p, [(f.bz, f.bx)], iso)[0]
    except (ValueError, ZeroDivisionError) as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            _coefficient_row(x, iso)
        return
    row, point, drow = _coefficient_row(x, iso, np.eye(8))
    assert row.tobytes() == expected.tobytes() and point == (f.bz, f.bx)
    assert np.array_equal(_coefficient_row(x, iso)[0], row)
    # Central differences, or one-sided within a step of 0, on the side of
    # its sign: |gamma_e_bx| has its kink there.  (gamma_ratio = +-inf is a
    # row, gamma_n = 0, with no difference to take.)
    for j in np.flatnonzero(np.isfinite(x)):
        h = max(1e-6 * abs(x[j]), 1e-3)
        up, down = x.copy(), x.copy()
        if abs(x[j]) < h:
            up[j] += math.copysign(h, x[j])
            fd = (_coefficient_row(up, iso)[0] - row) / math.copysign(h, x[j])
        else:
            up[j] += h
            down[j] -= h
            fd = (_coefficient_row(up, iso)[0] - _coefficient_row(down, iso)[0]) / (2 * h)
        assert np.allclose(drow[:, j], fd, rtol=1e-6, atol=1e-9), truth.fields()[j]


def test_model_frequencies_match_forward():
    vec = truth_vector(N14)
    freqs = model_frequencies(vec.as_array(), N14, ["f1", "fdq"])
    ts = transition_set(*vec.to_physical(), N14)
    assert freqs[0] == pytest.approx(ts["f1"], rel=1e-14)


def thermal_series(iso, temps, fixed=("gamma_e_bx",)):
    series = []
    for t in temps:
        ms = synthetic_set(iso, temperature=t)
        guess = truth_vector(iso, temperature=t)
        series.append((t, extract_params(ms, perturbed(guess, 2e-4), fixed=fixed)))
    return series


@functools.lru_cache(maxsize=None)
def fitted_models(iso):
    """thermal_models of a noiseless 12-temperature series, 77-400 K, 470 G."""
    return thermal_models(thermal_series(iso, np.linspace(77.0, 400.0, 12)))


def test_thermal_models_recover_quoted_fractional_derivatives():
    models = fitted_models(N14)
    assert models["q"].fractional_derivative_ppm(297.0) == pytest.approx(-7.17, rel=0.02)
    assert models["d"].fractional_derivative_ppm(297.0) == pytest.approx(-25.3, rel=0.02)
    assert models["a_par"].fractional_derivative_ppm(297.0) == pytest.approx(-91.0, rel=0.02)
    assert models["a_perp"].fractional_derivative_ppm(297.0) == pytest.approx(-58.0, rel=0.02)


def test_thermal_models_constant_series():
    series = []
    for t in np.linspace(200.0, 320.0, 6):
        ms = synthetic_set(N14, temperature=297.0)
        ms = MeasurementSet(temperature=t, isotope=N14, entries=ms.entries)
        series.append((t, extract_params(ms, truth_vector(N14), fixed=("gamma_e_bx",))))
    models = thermal_models(series)
    assert abs(models["q"].derivative(297.0)) < 1e-6
    assert abs(models["d"].derivative(297.0)) < 1e-4


def test_thermal_models_span_check():
    series = thermal_series(N14, [280.0, 290.0, 297.0, 305.0, 315.0])
    with pytest.raises(ValueError):
        thermal_models(series)


@pytest.mark.parametrize("n", [0, 4])
def test_thermal_models_need_five_temperatures(n):
    # An empty series is refused as any series too short is.
    series = thermal_series(N14, np.linspace(77.0, 400.0, n))
    with pytest.raises(ValueError, match="^need at least 5 temperatures$"):
        thermal_models(series)


def test_transition_table_slopes_n14():
    freqs, slopes = transition_table(thermal_presets("N14"), 297.0, B470, N14)
    assert slopes["f4"] == pytest.approx(-232.8, abs=2.0)
    assert slopes["f3-f6"] == pytest.approx(0.0, abs=0.01)
    assert slopes["f1-f2"] == pytest.approx(0.149, abs=0.016)
    assert freqs["f1"] == pytest.approx(TABLE3["f1"].freq_khz, abs=0.1)


def test_transition_table_slopes_n15():
    _, slopes = transition_table(thermal_presets("N15"), 297.0, B470, N15)
    assert slopes["f8"] == pytest.approx(-268.0, abs=5.0)
    assert slopes["f7"] == pytest.approx(-0.31, abs=0.04)


def test_transition_table_abstract_n14_fractional_slope():
    # the abstract's +0.52(1) ppm/K for 14NV mI -1 <-> +1 (f1 - f2)
    freqs, slopes = transition_table(thermal_presets("N14"), 297.0, B470, N14)
    ppm_per_k = 1e3 * slopes["f1-f2"] / freqs["f1-f2"]  # Hz/K over kHz
    assert ppm_per_k == pytest.approx(0.52, abs=0.01)


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
@pytest.mark.parametrize("bz", [100.0, 470.0, 900.0])
@pytest.mark.parametrize("temp", [77.0, 78.0, 297.0, 399.0, 400.0])
def test_transition_table_slopes_match_longdouble_stencil(iso, bz, temp):
    # A +-1 K longdouble central difference on range-extended copies of the
    # models: two-sided at the range ends too, where the table's own
    # models stop.  Every table row, difference rows included, on axis and
    # at Bx = 0.3 G.
    models = {name: replace(m, t_min=0.0, t_max=1000.0) for name, m in thermal_presets(iso).items()}
    for field in (FieldConfig(bz=bz), FieldConfig(bz=bz, bx=0.3)):
        hi, lo = (
            transition_set(
                params_from_models(models, iso, temp + step), field, iso, dtype=np.longdouble
            ).frequencies
            for step in (1.0, -1.0)
        )
        freqs, slopes = transition_table(thermal_presets(iso), temp, field, iso)
        assert list(freqs) == list(slopes) == list(hi)
        for label, slope in slopes.items():
            assert slope == pytest.approx(float(1e3 * (hi[label] - lo[label]) / 2), abs=1e-4)


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
def test_transition_table_takes_fitted_models(iso):
    # Fitted model sets carry gamma_ratio, which no coupling coefficient
    # reads: the table is the one of the same set without it.
    models = fitted_models(iso)
    assert "gamma_ratio" in models
    without = {name: m for name, m in models.items() if name != "gamma_ratio"}
    freqs, slopes = transition_table(models, 297.0, B470, iso)
    assert (freqs, slopes) == transition_table(without, 297.0, B470, iso)
    assert slopes["f1-f2" if iso is N14 else "f7"] != 0.0


def test_transition_table_range_check():
    with pytest.raises(ValueError):
        transition_table(thermal_presets("N14"), 60.0, B470, N14)


def test_params_from_models_tie_for_n15():
    models = thermal_presets("N15")
    p_cold = params_from_models(models, N15, 150.0)
    p_ref = params_from_models(models, N15, 297.0)
    assert p_cold.a_perp / p_ref.a_perp == pytest.approx(p_cold.a_par / p_ref.a_par, rel=1e-12)


def test_params_from_models_evaluates_models_as_given():
    # The 15NV A_perp tie lives in the presets; a hand-built model set with
    # a constant A_perp keeps it constant.
    models = dict(thermal_presets("N15"))
    models["a_perp"] = PolynomialModel(coeffs=(3700.0,), t0=297.0, t_min=77.0, t_max=400.0)
    for t in (77.0, 150.0, 297.0, 400.0):
        p = params_from_models(models, N15, t)
        assert p.a_perp == 3700.0
        assert p.a_par == models["a_par"].value(t)


def test_d_fractional_dependence_matches_between_isotopes():
    m14 = fitted_models(N14)
    m15 = fitted_models(N15)
    f14 = m14["d"].fractional_derivative_ppm(297.0)
    f15 = m15["d"].fractional_derivative_ppm(297.0)
    assert abs(f14 - f15) < 0.2 + 0.3  # quoted uncertainties on the two slopes
