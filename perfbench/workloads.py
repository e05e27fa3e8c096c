"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one client: the next unit of work
starts only when the previous one has returned.  A unit is one series of
fits (thermal-fit) or one op (lines, ramsey).  Unit k's inputs depend only
on (seed, k), and they are built before the unit is timed.

Checks never trust the code path under test: line values are compared
with the other eigensolver (longdouble Jacobi against float64 LAPACK and
back), fit quality with the chi^2 of the known truth, and fringe fits
with a noise-scaled bound from the benchmark's own fringe formula.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from nvground import cli, extraction, io, presets, ramsey, spin_core, transitions


@dataclass
class OpResult:
    latency_s: float
    record: object


def unit_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def run_op(begin_op: Callable[[], None], fn, *args):
    """Time one op; an exception is the op's result, not the run's end."""
    begin_op()
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # counted as a failed op and listed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


# ----------------------------------------------------------------- thermal-fit

THERMAL_LABELS = {
    "N14": ("f1", "f2", "f3", "f4", "f5", "f6", "fplus_+1", "fminus_+1"),
    "N15": ("f7", "f8", "f9", "fplus_+1/2", "fminus_+1/2"),
}
THERMAL_FIXED = ("gamma_e_bx",)
N_TEMPS = 12
GUESS_T_K = 297.0
NOMINAL_BZ_G = 470.0

# A correct minimizer stops within the relative objective tolerance the
# extraction uses (1e-7, set well above the eigensolver jitter floor
# documented in extraction.py) of the float64 minimum.  The check
# re-evaluates chi^2 in longdouble, so it also allows twice the float64
# vs longdouble objective difference for a per-line eigenvalue error of
# EIG_EPS_KHZ (measured at most 1.3e-9 kHz at 300-600 G).
CHI2_RTOL = 1e-7
EIG_EPS_KHZ = 1e-8


def sigma_for(label: str) -> float:
    if label.startswith(("fplus", "fminus")):
        return presets.MW_SIGMA_KHZ
    return presets.TABLE3[label].freq_sigma_khz


@dataclass
class Series:
    k: int
    iso: spin_core.IsotopeSpec
    bz: float
    rows: list
    truths: dict  # temperature -> ParamVector
    guess: extraction.ParamVector
    path: Path


@dataclass
class FitRecord:
    series: Series
    ms: extraction.MeasurementSet
    fit: extraction.FitResult | None
    error: str | None


def chi2_longdouble(vec: extraction.ParamVector, ms: extraction.MeasurementSet):
    params, fld = vec.to_physical()
    ts = transitions.transition_set(params, fld, ms.isotope, dtype=np.longdouble)
    model = np.array([float(ts[e.label]) for e in ms.entries])
    measured = np.array([e.freq_khz for e in ms.entries])
    sigmas = np.array([e.sigma_khz for e in ms.entries])
    r = (model - measured) / sigmas
    return float(r @ r), r, sigmas


def check_fit(rec: FitRecord) -> str | None:
    if rec.error:
        return rec.error
    truth = rec.series.truths[rec.ms.temperature]
    chi2_truth, r_truth, sigmas = chi2_longdouble(truth, rec.ms)
    chi2_fit, r_fit, _ = chi2_longdouble(rec.fit.params, rec.ms)
    eps = EIG_EPS_KHZ / sigmas
    eta = float(np.sum((2 * np.maximum(abs(r_truth), abs(r_fit)) + eps) * eps))
    floor = CHI2_RTOL * max(1.0, chi2_truth) + 2 * eta
    if not chi2_fit <= chi2_truth + floor:
        return f"chi2 {chi2_fit:.9g} above truth {chi2_truth:.9g} + floor {floor:.3g}"
    return None


class ThermalFit:
    """One op is one extraction.extract_params call inside `fit --thermal`."""

    name = "thermal-fit"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make_unit(self, k: int) -> Series:
        rng = unit_rng(self.seed, k)
        iso = spin_core.N14 if k % 2 == 0 else spin_core.N15
        bz = round(float(rng.uniform(NOMINAL_BZ_G - 10, NOMINAL_BZ_G + 10)), 4)
        lo, hi = presets.T_RANGE_K
        step = (hi - lo) / (N_TEMPS - 1)
        grid = lo + step * np.arange(N_TEMPS) + rng.uniform(-step / 4, step / 4, N_TEMPS)
        temps = [round(float(t), 2) for t in np.clip(grid, lo, hi)]
        rows, truths = [], {}
        fld = spin_core.FieldConfig(bz=bz)
        for t in temps:
            params = presets.params_at(iso, t)
            ts = transitions.transition_set(params, fld, iso, dtype=np.longdouble)
            for label in THERMAL_LABELS[iso.name]:
                sigma = sigma_for(label)
                freq = float(ts[label]) + float(rng.normal()) * sigma
                rows.append(io.MeasurementRow(t, label, freq, sigma))
            truths[t] = extraction.ParamVector.from_physical(iso.name, params, fld)
        guess = extraction.ParamVector.from_physical(
            iso.name, presets.params_at(iso, GUESS_T_K), spin_core.FieldConfig(bz=NOMINAL_BZ_G)
        )
        path = self.workdir / f"series-{k}.csv"
        return Series(k, iso, bz, rows, truths, guess, path)

    def run_unit(self, s: Series, begin_op) -> list[OpResult]:
        io.write_measurements(s.path, s.rows)
        sets = io.read_measurements(s.path, s.iso)
        out, fitted = [], []
        for ms in sets:
            latency, fit, err = run_op(
                begin_op, extraction.extract_params, ms, s.guess, THERMAL_FIXED
            )
            out.append(OpResult(latency, FitRecord(s, ms, fit, err)))
            if fit is not None:
                fitted.append((ms.temperature, fit))
        try:
            extraction.thermal_models(fitted)
        except Exception as exc:  # a failed series fails its ops
            for r in out:
                r.record.error = r.record.error or f"thermal_models: {exc}"
        return out

    check = staticmethod(check_fit)

    @staticmethod
    def describe(rec: FitRecord) -> str:
        s = rec.series
        return f"{s.iso.name} series {s.k}, T = {rec.ms.temperature} K, Bz = {s.bz} G"

    def warm_up(self) -> None:
        iso = spin_core.N14
        params = presets.params_at(iso, GUESS_T_K)
        fld = spin_core.FieldConfig(bz=NOMINAL_BZ_G)
        ts = transitions.transition_set(params, fld, iso)
        entries = tuple(
            extraction.MeasurementEntry(label, float(ts[label]), sigma_for(label))
            for label in THERMAL_LABELS[iso.name]
        )
        ms = extraction.MeasurementSet(GUESS_T_K, iso, entries)
        guess = extraction.ParamVector.from_physical(iso.name, params, fld)
        extraction.extract_params(ms, guess, fixed=THERMAL_FIXED)


# ----------------------------------------------------------------------- lines

# JSON rounds frequencies to 1e-6 kHz; float64 and longdouble lines agree
# to 1.3e-9 kHz.  Slopes are central differences over +-1 K.
FREQ_TOL_KHZ = 1e-5
SLOPE_TOL_HZ_PER_K = 1e-3
ANGULAR_TOL_KHZ = 1e-6
ANGULAR_STEPS = 11
COMBOS_N14 = (("f1-f2", "f1", "f2"), ("f5-f4", "f5", "f4"), ("f3-f6", "f3", "f6"))
ANGULAR_LINE = {"N14": "fdq", "N15": "f7"}


@dataclass
class Survey:
    k: int
    temp: float
    bz: float
    grid: dict  # perturb-check flag -> value
    theta_max: dict  # isotope -> degrees
    argvs: dict = field(default_factory=dict)  # output path -> argv


@dataclass
class SurveyRecord:
    survey: Survey
    codes: list | None
    error: str | None


def line_reference(iso, temp: float, bz: float) -> dict[str, tuple[float, float]]:
    """Line -> (kHz, Hz/K) from the longdouble Jacobi path, slopes over +-1 K."""
    fld = spin_core.FieldConfig(bz=bz)

    def at(t):
        ts = transitions.transition_set(presets.params_at(iso, t), fld, iso, dtype=np.longdouble)
        freqs = {k: float(v) for k, v in ts.frequencies.items()}
        if iso.name == "N14":
            for combo, a, b in COMBOS_N14:
                freqs[combo] = float(ts[a] - ts[b])
        return freqs

    centre, hi, lo = at(temp), at(temp + 1.0), at(temp - 1.0)
    return {k: (centre[k], 1e3 * (hi[k] - lo[k]) / 2) for k in centre}


def angular_reference(iso, temp: float, bz: float, theta_deg: float) -> float:
    """The scanned line at one angle from the float64 LAPACK path."""
    bx = bz * math.tan(math.radians(theta_deg))
    ts = transitions.transition_set(
        presets.params_at(iso, temp), spin_core.FieldConfig(bz=bz, bx=bx), iso
    )
    return float(ts[ANGULAR_LINE[iso.name]])


def _check_transitions(payload, iso, temp, bz) -> str | None:
    rows = {r["transition"]: r for r in payload["rows"]}
    ref = line_reference(iso, temp, bz)
    if set(rows) != set(ref):
        return f"{iso.name} transitions: labels {sorted(rows)} != {sorted(ref)}"
    for label, (freq, slope) in ref.items():
        row = rows[label]
        if not abs(row["freq_khz"] - freq) <= FREQ_TOL_KHZ:
            return f"{iso.name} {label}: {row['freq_khz']} kHz vs reference {freq:.9f}"
        if not abs(row["df_dt_hz_per_k"] - slope) <= SLOPE_TOL_HZ_PER_K:
            return f"{iso.name} {label}: slope {row['df_dt_hz_per_k']} vs reference {slope:.6f}"
    return None


def _check_angular(payload, iso, temp, bz, theta_max) -> str | None:
    if payload["transition"] != ANGULAR_LINE[iso.name]:
        return f"{iso.name} angular-scan of {payload['transition']!r}"
    rows = payload["rows"]
    if len(rows) != ANGULAR_STEPS or rows[0]["theta_deg"] != 0.0 or not math.isclose(
        rows[-1]["theta_deg"], theta_max, rel_tol=1e-12
    ):
        return f"{iso.name} angular-scan rows do not span 0..{theta_max} deg in {ANGULAR_STEPS}"
    for row in (rows[0], rows[-1]):
        ref = angular_reference(iso, temp, bz, row["theta_deg"])
        if not abs(row["f_khz"] - ref) <= ANGULAR_TOL_KHZ:
            return f"{iso.name} angular-scan at {row['theta_deg']} deg: {row['f_khz']} vs {ref:.9f}"
    return None


def check_survey(rec: SurveyRecord) -> str | None:
    if rec.error:
        return rec.error
    if any(rec.codes):
        return f"exit codes {rec.codes}"
    s = rec.survey
    for path, argv in s.argvs.items():
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        command = argv[0]
        if command == "perturb-check":
            if payload.get("pass") is not True or set(payload["isotopes"]) != {"N14", "N15"}:
                return "perturb-check did not report pass: true for N14 and N15"
            continue
        iso = spin_core.get_isotope(argv[argv.index("--isotope") + 1])
        if command == "transitions":
            problem = _check_transitions(payload, iso, s.temp, s.bz)
        else:
            problem = _check_angular(payload, iso, s.temp, s.bz, s.theta_max[iso.name])
        if problem:
            return problem
    return None


class Lines:
    """One op is an operating-point survey: five in-process cli.main calls."""

    name = "lines"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def survey(self, k, temp, bz, grid, theta_max) -> Survey:
        s = Survey(k, temp, bz, grid, theta_max)
        # str() of a float round-trips exactly, so argparse sees the same values.
        common = ["--preset", "table1_297K", "--bz", str(bz), "--temp", str(temp)]
        for iso in ("n14", "n15"):
            s.argvs[str(self.workdir / f"op{k}-transitions-{iso}.json")] = [
                "transitions", "--isotope", iso, *common, "--format", "json",
            ]
        flags = [x for name, v in grid.items() for x in (name, str(v))]
        s.argvs[str(self.workdir / f"op{k}-perturb-check.json")] = [
            "perturb-check", "--temp", str(temp), *flags,
        ]
        for iso in ("n14", "n15"):
            s.argvs[str(self.workdir / f"op{k}-angular-{iso}.json")] = [
                "angular-scan", "--isotope", iso, *common,
                "--theta-max-deg", str(theta_max[iso.upper()]),
                "--steps", str(ANGULAR_STEPS), "--format", "json",
            ]
        for path, argv in s.argvs.items():
            argv += ["--out", path]
        return s

    def make_unit(self, k: int) -> Survey:
        rng = unit_rng(self.seed, k)
        temp = round(float(rng.uniform(78.0, 399.0)), 3)
        bz = round(float(rng.uniform(300.0, 600.0)), 3)
        bz_min = round(float(rng.uniform(300.0, 450.0)), 3)
        grid = {
            "--bz-min": bz_min,
            "--bz-max": round(float(rng.uniform(bz_min + 50.0, 600.0)), 3),
            "--bz-steps": int(rng.integers(3, 8)),
            "--bx-max": round(float(rng.uniform(0.1, 1.0)), 4),
            "--bx-steps": int(rng.integers(2, 6)),
        }
        theta = {iso: round(float(rng.uniform(0.05, 0.5)), 4) for iso in ("N14", "N15")}
        return self.survey(k, temp, bz, grid, theta)

    def run_unit(self, s: Survey, begin_op) -> list[OpResult]:
        latency, codes, err = run_op(
            begin_op, lambda: [cli.main(list(argv)) for argv in s.argvs.values()]
        )
        return [OpResult(latency, SurveyRecord(s, codes, err))]

    check = staticmethod(check_survey)

    @staticmethod
    def describe(rec: SurveyRecord) -> str:
        s = rec.survey
        return f"op {s.k}: T = {s.temp} K, Bz = {s.bz} G, grid {s.grid}, theta_max {s.theta_max}"

    def warm_up(self) -> None:
        grid = {"--bz-min": 300.0, "--bz-max": 600.0, "--bz-steps": 7, "--bx-max": 1.0, "--bx-steps": 5}
        s = self.survey(-1, 297.0, 470.0, grid, {"N14": 0.5, "N15": 0.5})
        self.run_unit(s, lambda: None)


# ---------------------------------------------------------------------- ramsey

# Criterion 9 of the acceptance suite: noiseless fits within 1 Hz, and a
# Monte-Carlo std below 5 Hz at noise 0.025 for amp 0.5, T2* 1 ms, 3 kHz,
# 200 samples over 2 ms.  The benchmark scales that std to each trace by
# the ratio of Cramer-Rao bounds and allows RAMSEY_SIGMAS of it.
CRIT9_NOISELESS_HZ = 1.0
CRIT9_STD_HZ = 5.0
CRIT9_TRACE = dict(delta_khz=3.0, t2_s=1e-3, phase=0.3, sigma=0.025, n=200)
RAMSEY_SIGMAS = 5.0
SPAN_S = 2e-3
AMP = 0.5
OFFSET = 1.0


def fringe(times, delta_khz, t2_s, phase):
    """The benchmark's own fringe formula (not ramsey.synthesize)."""
    return OFFSET + AMP * np.exp(-times / t2_s) * np.cos(2 * math.pi * delta_khz * 1e3 * times + phase)


def crlb_delta_hz(delta_khz, t2_s, phase, sigma, n) -> float:
    """Cramer-Rao bound on the detuning (Hz) for white noise sigma."""
    t = np.linspace(0.0, SPAN_S, n)
    decay = np.exp(-t / t2_s)
    arg = 2 * math.pi * delta_khz * 1e3 * t + phase
    jac = np.stack(
        [
            -AMP * decay * np.sin(arg) * 2 * math.pi * t,
            AMP * decay * np.cos(arg) * t / t2_s**2,
            decay * np.cos(arg),
            -AMP * decay * np.sin(arg),
            np.ones_like(t),
        ],
        axis=1,
    )
    return sigma * math.sqrt(np.linalg.inv(jac.T @ jac)[0, 0])


_CRIT9_CRLB_HZ = crlb_delta_hz(**CRIT9_TRACE)


def delta_bound_hz(delta_khz, t2_s, phase, sigma, n) -> float:
    scaled_std = CRIT9_STD_HZ * crlb_delta_hz(delta_khz, t2_s, phase, sigma, n) / _CRIT9_CRLB_HZ
    return CRIT9_NOISELESS_HZ + RAMSEY_SIGMAS * scaled_std


@dataclass
class Fringe:
    k: int
    delta_khz: float
    t2_s: float
    phase: float
    sigma: float
    trace: ramsey.RamseyTrace
    f_true_khz: float
    sign: int

    @property
    def f_rf_khz(self) -> float:
        return self.f_true_khz + self.sign * self.delta_khz


@dataclass
class FringeRecord:
    fringe: Fringe
    delta_fit_khz: float | None
    f_recovered_khz: float | None
    error: str | None


def check_fringe(rec: FringeRecord) -> str | None:
    if rec.error:
        return rec.error
    fr = rec.fringe
    bound = delta_bound_hz(fr.delta_khz, fr.t2_s, fr.phase, fr.sigma, len(fr.trace.times))
    err_delta = 1e3 * abs(rec.delta_fit_khz - fr.delta_khz)
    err_f = 1e3 * abs(rec.f_recovered_khz - fr.f_true_khz)
    if not (err_delta <= bound and err_f <= bound):
        return f"delta off by {err_delta:.3f} Hz, f by {err_f:.3f} Hz; bound {bound:.3f} Hz"
    return None


class Ramsey:
    """One op is ramsey.fit_fringes plus ramsey.frequency_from_detuning."""

    name = "ramsey"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def make_fringe(k, delta_khz, t2_s, phase, sigma, n, f_true_khz, sign, rng=None) -> Fringe:
        times = np.linspace(0.0, SPAN_S, n)
        signal = fringe(times, delta_khz, t2_s, phase)
        if sigma:
            signal = signal + rng.normal(scale=sigma, size=n)
        trace = ramsey.RamseyTrace(times=times, signal=signal, noise_sigma=sigma)
        return Fringe(k, delta_khz, t2_s, phase, sigma, trace, f_true_khz, sign)

    def make_unit(self, k: int) -> Fringe:
        rng = unit_rng(self.seed, k)
        return self.make_fringe(
            k,
            delta_khz=float(rng.uniform(2.0, 10.0)),
            t2_s=float(rng.uniform(0.5e-3, 2e-3)),
            phase=float(rng.uniform(-math.pi, math.pi)),
            sigma=float(rng.uniform(0.0, 0.05)),
            n=int(rng.integers(200, 401)),
            f_true_khz=float(rng.uniform(2000.0, 8000.0)),
            sign=int(rng.choice((-1, 1))),
            rng=rng,
        )

    @staticmethod
    def _op(fr: Fringe):
        fit = ramsey.fit_fringes(fr.trace)
        return fit.delta_khz, ramsey.frequency_from_detuning(fr.f_rf_khz, fit.delta_khz, fr.sign)

    def run_unit(self, fr: Fringe, begin_op) -> list[OpResult]:
        latency, out, err = run_op(begin_op, self._op, fr)
        delta, f_rec = out if out else (None, None)
        return [OpResult(latency, FringeRecord(fr, delta, f_rec, err))]

    check = staticmethod(check_fringe)

    @staticmethod
    def describe(rec: FringeRecord) -> str:
        fr = rec.fringe
        return (
            f"trace {fr.k}: delta {fr.delta_khz:.6f} kHz, T2* {fr.t2_s * 1e3:.4f} ms, "
            f"phase {fr.phase:.4f}, noise {fr.sigma:.4f}, {len(fr.trace.times)} samples"
        )

    def warm_up(self) -> None:
        fr = self.make_fringe(-1, 4.0, 1e-3, 0.0, 0.0, 200, 5000.0, 1)
        self._op(fr)


WORKLOADS = {w.name: w for w in (ThermalFit, Lines, Ramsey)}
