"""Command-line surface tying the model, fits and file formats together.

Subcommands: transitions, fit, thermal (fit --thermal), angular-scan,
perturb-check, synth, ramsey.  Exit codes: 0 ok, 2 config/parse error,
3 labeling ambiguity, 4 fit failure (no convergence or a non-finite
objective), 5 validation tripwire.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import extraction, io, perturbation, presets, ramsey
from .extraction import ParamVector
from .io import ConfigError, fmt_g, fmt_khz
from .optimize import FitConvergenceError, NonFiniteObjectiveError, PolynomialModel
from .spin_core import (
    GAMMA_E_KHZ_PER_G,
    CouplingParams,
    FieldConfig,
    IsotopeSpec,
    get_isotope,
)
from .transitions import (
    AmbiguousLabelingError,
    line_values,
    mw_label,
    nuclear_labels,
    transition_set,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LABELING = 3
EXIT_FIT = 4
EXIT_TRIPWIRE = 5

DEFAULT_NOISE_TOLERANCE_HZ = 20.0


class TripwireError(RuntimeError):
    """Perturbation-vs-exact residual above the documented tolerance."""


# Exception -> (exit code, stderr prefix); the first matching entry wins.
# ValueError covers ConfigError, ValidityMarginError and UndersampledTraceError.
EXIT_TABLE = {
    ValueError: (EXIT_CONFIG, ""),
    ramsey.NonIdentifiableTraceError: (EXIT_CONFIG, ""),
    AmbiguousLabelingError: (EXIT_LABELING, "ambiguous state labeling: "),
    FitConvergenceError: (EXIT_FIT, ""),
    NonFiniteObjectiveError: (EXIT_FIT, ""),
    TripwireError: (EXIT_TRIPWIRE, ""),
}


def _field(args) -> FieldConfig:
    if args.theta_deg is not None:
        if args.b is None:
            raise ConfigError("--theta-deg requires --b (field magnitude)")
        return FieldConfig.from_polar(args.b, math.radians(args.theta_deg))
    if args.bz is None:
        raise ConfigError("either --bz or (--b with --theta-deg) is required")
    return FieldConfig(bz=args.bz, bx=args.bx)


def _params(args, iso: IsotopeSpec, temperature: float):
    """Resolve coupling parameters and, when available, thermal models."""
    if (args.preset is None) == (args.params is None):
        raise ConfigError("exactly one of --preset or --params is required")
    if args.preset is not None:
        presets.resolve_preset(args.preset)
        return presets.params_at(iso, temperature), presets.thermal_presets(iso)
    try:
        raw = json.loads(Path(args.params).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot parse params file: {err}") from err
    try:
        params = CouplingParams(
            d=float(raw["d"]),
            q=float(raw.get("q", 0.0)),
            a_par=float(raw["a_par"]),
            a_perp=float(raw["a_perp"]),
            gamma_e=float(raw.get("gamma_e", GAMMA_E_KHZ_PER_G)),
            gamma_n=float(raw.get("gamma_n", iso.gamma_n)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad params file: {err}") from err
    return params, None


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + ("" if text.endswith("\n") else "\n"), encoding="utf-8")
    else:
        print(text)


def _config_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_transitions(args) -> int:
    iso = get_isotope(args.isotope)
    params, models = _params(args, iso, args.temp)
    field = _field(args)
    with_slopes = models is not None and field.bx == 0
    if with_slopes:
        rows = extraction.transition_table(models, args.temp, field.bz, iso).rows
    else:
        rows = [(l, f, None) for l, f in line_values(transition_set(params, field, iso)).items()]
    if args.format == "json":
        json_rows = [
            {"transition": l, "freq_khz": round(float(f), 6)}
            | ({"df_dt_hz_per_k": round(float(s), 6)} if with_slopes else {})
            for l, f, s in rows
        ]
        _emit(args, io.dump_json({"config": _config_dict(args), "rows": json_rows}))
    else:
        lines = ["transition,freq_khz" + (",df_dt_hz_per_k" if with_slopes else "")]
        for l, f, s in rows:
            slope = f",{fmt_g(round(float(s), 6))}" if with_slopes else ""
            lines.append(f"{l},{fmt_khz(float(f))}{slope}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _guess_vector(iso: IsotopeSpec, params: CouplingParams, bz: float) -> ParamVector:
    return ParamVector.from_physical(iso.name, params, FieldConfig(bz=bz))


def _fit_record(temperature: float, fit) -> dict:
    vec = fit.params
    return {
        "temperature_K": temperature,
        "params": {name: round(float(getattr(vec, name)), 6) for name in vec.fields()},
        "objective": float(fit.objective),
        "residuals_khz": {k: round(v, 6) for k, v in fit.residuals.items()},
        "converged": fit.converged,
        "iterations": fit.iterations,
    }


def _thermal_summary(models: dict[str, PolynomialModel]) -> dict:
    t_ref = presets.T_REF_K
    out = {}
    for name, model in models.items():
        out[name] = {
            "value_khz": round(model.value(t_ref), 6),
            "derivative_hz_per_k": round(1e3 * model.derivative(t_ref), 6),
            "fractional_ppm_per_k": round(model.fractional_derivative_ppm(t_ref), 4),
            "second_derivative_hz_per_k2": round(1e3 * model.second_derivative(t_ref), 6),
            "coeffs": [fmt_g(c) for c in model.coeffs],
            "residual_rms_khz": round(model.residual_rms, 9),
        }
    return out


def cmd_fit(args) -> int:
    iso = get_isotope(args.isotope)
    params, _ = _params(args, iso, presets.T_REF_K)
    if args.bz is None:
        raise ConfigError("--bz (nominal axial field for the initial guess) is required")
    sets = io.read_measurements(args.measurements, iso)
    if not sets:
        raise ConfigError("measurement file contains no rows")
    guess = _guess_vector(iso, params, args.bz)
    fixed = tuple(args.fix or ())
    series = [(ms.temperature, extraction.extract_params(ms, guess, fixed=fixed)) for ms in sets]
    payload = {"config": _config_dict(args), "results": [_fit_record(t, fit) for t, fit in series]}
    if args.thermal:
        payload["thermal"] = _thermal_summary(extraction.thermal_models(series))
    if args.format == "csv":
        lines = ["temperature_K,param,value"]
        for rec in payload["results"]:
            for name, value in rec["params"].items():
                lines.append(f"{fmt_g(rec['temperature_K'])},{name},{fmt_g(value)}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, io.dump_json(payload))
    return EXIT_OK


def cmd_angular_scan(args) -> int:
    iso = get_isotope(args.isotope)
    params, _ = _params(args, iso, args.temp)
    if args.bz is None:
        raise ConfigError("--bz is required")
    if not (0 < args.theta_max_deg <= 2.0):
        raise ConfigError("--theta-max-deg must lie in (0, 2]")
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    transition = "fdq" if iso.name == "N14" else "f7"
    beta = perturbation.beta_coefficient(params, args.bz, transition)
    thetas = np.linspace(0.0, args.theta_max_deg, args.steps)
    f0 = float(transition_set(params, FieldConfig(bz=args.bz), iso, np.longdouble)[transition])
    if f0 == 0:
        raise ConfigError(f"{transition} is 0 at Bz = {args.bz} G; no fractional shift to scan")
    rows = []
    for theta_deg in thetas:
        shift = float(
            perturbation.exact_angular_shift(
                params, iso, args.bz, math.radians(theta_deg), transition
            )
        )
        rows.append((float(theta_deg), f0 + shift, shift / f0))
    if args.format == "json":
        payload = {
            "config": _config_dict(args),
            "transition": transition,
            "beta_perturbative": beta.beta,
            "baseline_khz": beta.baseline_khz,
            "rows": [
                {"theta_deg": t, "f_khz": round(f, 9), "fractional_shift": fs}
                for t, f, fs in rows
            ],
        }
        _emit(args, io.dump_json(payload))
    else:
        lines = [
            f"# transition={transition} bz_G={fmt_g(args.bz)} "
            f"beta_perturbative={beta.beta:.6g} baseline_khz={fmt_khz(beta.baseline_khz)}",
            "theta_deg,f_khz,fractional_shift",
        ]
        for t, f, fs in rows:
            lines.append(f"{fmt_g(t)},{f:.9f},{fmt_g(fs)}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_perturb_check(args) -> int:
    isotopes = [get_isotope(args.isotope)] if args.isotope else [get_isotope("n14"), get_isotope("n15")]
    for flag, steps in (("--bz-steps", args.bz_steps), ("--bx-steps", args.bx_steps)):
        if steps < 1:
            raise ConfigError(f"{flag} must be at least 1")
    bz_grid = np.linspace(args.bz_min, args.bz_max, args.bz_steps)
    bx_grid = np.linspace(0.0, args.bx_max, args.bx_steps)
    tolerance_khz = args.tolerance_hz / 1e3
    report = {"config": _config_dict(args), "tolerance_hz": args.tolerance_hz, "isotopes": {}}
    failures = []
    for iso in isotopes:
        params = presets.params_at(iso, args.temp)
        worst = perturbation.residuals_vs_exact(params, iso, bz_grid, bx_grid)
        report["isotopes"][iso.name] = {
            k: {"max_residual_hz": round(v * 1e3, 4), "pass": v <= tolerance_khz}
            for k, v in sorted(worst.items())
        }
        failures += [f"{iso.name}:{k}" for k, v in worst.items() if v > tolerance_khz]
    report["pass"] = not failures
    _emit(args, io.dump_json(report))
    if failures:
        raise TripwireError(f"residual above {args.tolerance_hz} Hz for {failures}")
    return EXIT_OK


def _synth_labels(iso: IsotopeSpec) -> list[str]:
    """The nuclear lines plus both electron lines of the top mI level."""
    top = iso.nuclear_spin
    return [*nuclear_labels(iso), mw_label(+1, top), mw_label(-1, top)]


def _sigma_for(label: str) -> float:
    if label.startswith("fplus") or label.startswith("fminus"):
        return presets.MW_SIGMA_KHZ
    return presets.TABLE3[label].freq_sigma_khz


def cmd_synth(args) -> int:
    iso = get_isotope(args.isotope)
    presets.resolve_preset(args.preset)
    if args.bz is None:
        raise ConfigError("--bz is required")
    try:
        temps = [float(t) for t in args.temps.split(",") if t.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --temps list: {err}") from err
    if not temps:
        raise ConfigError("--temps must list at least one temperature")
    rng = np.random.default_rng(args.seed)
    labels = _synth_labels(iso)
    rows = []
    for temperature in temps:
        ts = transition_set(presets.params_at(iso, temperature), FieldConfig(bz=args.bz), iso)
        for label in labels:
            sigma = _sigma_for(label)
            noise = rng.normal() * sigma * args.noise_scale if args.noise_scale else 0.0
            rows.append(io.MeasurementRow(temperature, label, float(ts[label]) + noise, sigma))
    if not args.out:
        raise ConfigError("synth requires --out FILE")
    io.write_measurements(args.out, rows)
    print(f"wrote {len(rows)} rows for {iso.name} to {args.out}")
    return EXIT_OK


def cmd_ramsey(args) -> int:
    if args.trace_in:
        trace = io.read_trace(args.trace_in)
        if args.f_rf_khz is None:
            raise ConfigError("--f-rf-khz is required when fitting an existing trace")
        fit = ramsey.fit_fringes(trace)
        payload = {
            "config": _config_dict(args),
            "delta_fit_khz": round(fit.delta_khz, 9),
            "t2_star_fit_s": fmt_g(fit.t2_star_s),
            "rms_residual": fmt_g(fit.rms_residual),
            "f_recovered_khz": round(
                ramsey.frequency_from_detuning(args.f_rf_khz, fit.delta_khz, args.sign), 6
            ),
        }
        _emit(args, io.dump_json(payload))
        return EXIT_OK
    if args.isotope is None:
        raise ConfigError("--isotope is required when synthesizing a trace")
    iso = get_isotope(args.isotope)
    params, _ = _params(args, iso, args.temp)
    if args.bz is None:
        raise ConfigError("--bz is required")
    ts = transition_set(params, _field(args), iso)
    if args.transition not in ts.frequencies:
        raise ConfigError(f"unknown transition {args.transition!r} for {iso.name}")
    f_true = float(ts[args.transition])
    f_rf = f_true + args.detune_khz
    delta_true = f_rf - f_true
    times = np.linspace(0.0, args.duration_ms * 1e-3, args.samples)
    trace = ramsey.synthesize(
        abs(delta_true),
        args.t2_star_ms * 1e-3,
        args.amp,
        args.phase,
        args.offset,
        times,
        noise_sigma=args.noise_sigma,
        rng_seed=args.seed,
    )
    if args.trace_out:
        io.write_trace(args.trace_out, trace)
    fit = ramsey.fit_fringes(trace)
    sign = 1 if delta_true >= 0 else -1
    f_recovered = ramsey.frequency_from_detuning(f_rf, fit.delta_khz, sign)
    payload = {
        "config": _config_dict(args),
        "f_true_khz": round(f_true, 6),
        "f_rf_khz": round(f_rf, 6),
        "delta_true_khz": round(abs(delta_true), 9),
        "delta_fit_khz": round(fit.delta_khz, 9),
        "t2_star_fit_s": fmt_g(fit.t2_star_s),
        "rms_residual": fmt_g(fit.rms_residual),
        "f_recovered_khz": round(f_recovered, 6),
        "recovery_error_hz": round(1e3 * (f_recovered - f_true), 6),
    }
    _emit(args, io.dump_json(payload))
    return EXIT_OK


# Flags that several subcommands share.  Each subcommand registers only
# the ones it reads, so argparse refuses the rest (exit 2) instead of
# accepting and then ignoring them.
COMMON_FLAGS = {
    "--isotope": dict(required=True, help="n14 or n15"),
    "--preset": dict(help="named parameter preset (table1_297K)"),
    "--params": dict(help="JSON file with d, q, a_par, a_perp [, gamma_n]"),
    "--bz": dict(type=float, default=None, help="axial field, Gauss"),
    "--bx": dict(type=float, default=0.0, help="transverse field, Gauss"),
    "--b": dict(type=float, default=None, help="field magnitude, Gauss"),
    "--theta-deg": dict(type=float, default=None, help="misalignment angle, degrees"),
    "--temp": dict(type=float, default=presets.T_REF_K, help="temperature, K"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=0),
}
SOURCE = ("--preset", "--params")
FIELD = ("--bz", "--bx", "--b", "--theta-deg")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="nvground",
        description="NV ground-state spin toolkit: transition frequencies, "
        "parameter extraction and Ramsey analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, *flags, **defaults):
        # No prefix matching: synth would take --temp for --temps.
        s = subs.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            s.add_argument(flag, **COMMON_FLAGS[flag])
        s.set_defaults(func=func, **defaults)
        return s

    add("transitions", "exact-diagonalization line table", cmd_transitions,
        "--isotope", *SOURCE, *FIELD, "--temp", "--out", "--format")

    s = add("fit", "extract coupling parameters from measurements", cmd_fit,
            "--isotope", *SOURCE, "--bz", "--out", "--format", format="json")
    s.add_argument("--measurements", required=True, help="measurement CSV file")
    s.add_argument("--thermal", action="store_true", help="append degree-4 thermal models")
    s.add_argument("--fix", action="append", help="pin a fit parameter at its guess value")

    s = add("thermal", "same as fit --thermal", cmd_fit,
            "--isotope", *SOURCE, "--bz", "--out", "--format", format="json", thermal=True)
    s.add_argument("--measurements", required=True, help="measurement CSV file")
    s.add_argument("--fix", action="append", help="pin a fit parameter at its guess value")

    s = add("angular-scan", "fdq/f7 shift vs misalignment angle", cmd_angular_scan,
            "--isotope", *SOURCE, "--bz", "--temp", "--out", "--format")
    s.add_argument("--theta-max-deg", type=float, default=0.5)
    s.add_argument("--steps", type=int, default=11)

    s = add("perturb-check", "perturbation-vs-exact tripwire (preset parameters)",
            cmd_perturb_check, "--temp", "--out")
    s.add_argument("--isotope", help="n14 or n15 (default: both)")
    s.add_argument("--bz-min", type=float, default=300.0)
    s.add_argument("--bz-max", type=float, default=600.0)
    s.add_argument("--bz-steps", type=int, default=7)
    s.add_argument("--bx-max", type=float, default=1.0)
    s.add_argument("--bx-steps", type=int, default=5)
    s.add_argument("--tolerance-hz", type=float, default=DEFAULT_NOISE_TOLERANCE_HZ)

    s = add("synth", "generate a synthetic measurement CSV", cmd_synth,
            "--isotope", "--bz", "--out", "--seed")
    s.add_argument("--preset", required=True, help=COMMON_FLAGS["--preset"]["help"])
    s.add_argument("--temps", default="297", help="comma-separated temperatures, K")
    s.add_argument("--noise-scale", type=float, default=1.0, help="0 for noiseless")

    s = add("ramsey", "synthesize and fit Ramsey fringes end to end", cmd_ramsey,
            *SOURCE, *FIELD, "--temp", "--out", "--seed")
    s.add_argument("--isotope", help="n14 or n15 (not needed with --trace-in)")
    s.add_argument("--transition", default="f1")
    s.add_argument("--detune-khz", type=float, default=4.0)
    s.add_argument("--t2-star-ms", type=float, default=1.0)
    s.add_argument("--duration-ms", type=float, default=2.0)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--amp", type=float, default=0.5)
    s.add_argument("--phase", type=float, default=0.0)
    s.add_argument("--offset", type=float, default=1.0)
    s.add_argument("--noise-sigma", type=float, default=0.0)
    s.add_argument("--sign", type=int, choices=(1, -1), default=1)
    s.add_argument("--trace-out", help="write the synthesized trace CSV here")
    s.add_argument("--trace-in", help="fit an existing trace CSV instead")
    s.add_argument("--f-rf-khz", type=float, default=None, help="drive frequency for --trace-in")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse already printed the message; normalize bad usage to 2
        return EXIT_CONFIG if err.code not in (0, None) else 0
    try:
        # Overflow ends in a NonFiniteObjectiveError; no warning lines before it.
        with np.errstate(over="ignore"):
            return args.func(args)
    except tuple(EXIT_TABLE) as err:
        code, prefix = next(v for kind, v in EXIT_TABLE.items() if isinstance(err, kind))
        print(f"error: {prefix}{err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
