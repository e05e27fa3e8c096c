"""Command-line surface tying the model, fits and file formats together.

Subcommands: transitions, fit (--thermal adds the thermal models),
angular-scan, perturb-check, synth, ramsey (synthesize a trace and fit it),
ramsey-fit (fit a trace CSV).  Exit codes: 0 ok, 2 config/parse error,
3 labeling ambiguity, 4 fit failure (no convergence or a non-finite
objective), 5 validation tripwire.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import extraction, io, perturbation, presets, ramsey
from .extraction import ParamVector
from .io import ConfigError, fmt_g, fmt_khz
from .optimize import FitConvergenceError, NonFiniteObjectiveError, PolynomialModel, chi2_tail
from .spin_core import GAMMA_E_KHZ_PER_G, CouplingParams, FieldConfig, IsotopeSpec, get_isotope
from .transitions import (
    AmbiguousLabelingError,
    known_labels,
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
# A fit whose chi^2 upper-tail probability for its dof is below this gets a
# `warning:` line: a model that describes the lines, within their sigmas,
# warns in about one fit in a million.
FALSE_ALARM_PROBABILITY = 1e-6


class TripwireError(RuntimeError):
    """Perturbation-vs-exact residual above the documented tolerance."""


# Exception -> (exit code, stderr prefix); the first matching entry wins.
# ValueError covers ConfigError, ValidityMarginError and both refusals of a
# Ramsey trace (NonIdentifiableTraceError, UndersampledTraceError).
EXIT_TABLE = {
    ValueError: (EXIT_CONFIG, ""),
    AmbiguousLabelingError: (EXIT_LABELING, "ambiguous state labeling: "),
    FitConvergenceError: (EXIT_FIT, ""),
    NonFiniteObjectiveError: (EXIT_FIT, ""),
    TripwireError: (EXIT_TRIPWIRE, ""),
}


def _field(args) -> FieldConfig:
    if (args.b is None) != (args.theta_deg is None):
        raise ConfigError("--b and --theta-deg go together")
    if args.b is None:
        return FieldConfig(bz=args.bz, bx=args.bx)
    return FieldConfig.from_polar(args.b, math.radians(args.theta_deg))


def _params(args, iso: IsotopeSpec, temperature: float) -> CouplingParams:
    """The coupling parameters of --preset at ``temperature``, or of the --params file."""
    if args.preset is not None:
        return presets.params_at(iso, temperature)
    try:
        raw = json.loads(Path(args.params).read_text(encoding="utf-8"), parse_int=float)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot parse params file: {err}") from err
    keys = [field.name for field in dataclasses.fields(CouplingParams)]
    try:
        unknown = [key for key in raw if key not in keys]  # TypeError for a JSON number
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")
        values = {"q": 0.0, "gamma_n": iso.gamma_n, **raw}
        for key in keys:
            if key not in values:
                raise ConfigError(f"missing key {key!r}")
            # parse_int=float reads every JSON number as a float (inf past its
            # range), so a bool or a numeric string is what this refuses
            if type(values[key]) is not float:
                raise ConfigError(f"{key} must be a number, not {json.dumps(values[key])}")
        if values["gamma_n"] == 0:
            raise ConfigError("gamma_n must be nonzero")
        if math.isinf(GAMMA_E_KHZ_PER_G / values["gamma_n"]):
            raise ConfigError(
                f"gamma_n {values['gamma_n']!r} is too small: gamma_e/gamma_n overflows"
            )
        return CouplingParams(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad params file: {err}") from err


def _report(args, payload: dict, csv_lines: list[str] | None = None) -> None:
    """Write a report to --out or stdout: ``csv_lines`` under --format csv,
    else JSON of ``config`` (the parsed flags) first, then ``payload``."""
    if csv_lines is not None and args.format == "csv":
        text = "\n".join(csv_lines)
    else:
        config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
        text = io.dump_json({"config": config, **payload})
    if args.out:
        io._write_text(args.out, "report", text)
    else:
        print(text)


def cmd_transitions(args) -> int:
    iso = get_isotope(args.isotope)
    if args.preset is None:
        params = _params(args, iso, args.temp)
        freqs, slopes = transition_set(params, _field(args), iso).frequencies, None
    else:
        models = presets.thermal_presets(iso)
        freqs, slopes = extraction.transition_table(models, args.temp, _field(args), iso)
    json_rows = []
    lines = ["transition,freq_khz" + (",df_dt_hz_per_k" if slopes is not None else "")]
    for label, f in freqs.items():
        json_rows.append({"transition": label, "freq_khz": round(float(f), 6)})
        lines.append(f"{label},{fmt_khz(float(f))}")
        if slopes is not None:
            json_rows[-1]["df_dt_hz_per_k"] = round(slopes[label], 6)
            lines[-1] += f",{fmt_g(round(slopes[label], 6))}"
    _report(args, {"rows": json_rows}, lines)
    return EXIT_OK


def _fit_record(temperature: float, fit) -> dict:
    vec = fit.params
    return {
        "temperature_K": temperature,
        "params": {name: round(float(getattr(vec, name)), 6) for name in vec.fields()},
        "objective": float(fit.objective),
        "dof": fit.dof,
        "tail_probability": chi2_tail(fit.objective, fit.dof) if fit.dof else None,
        "residuals_khz": {k: round(v, 6) for k, v in fit.residuals.items()},
        "unresolved": list(fit.unresolved),
        "iterations": fit.iterations,
        "n_evals": fit.n_evals,
    }


def _thermal_summary(models: dict[str, PolynomialModel]) -> dict:
    t_ref = presets.T_REF_K
    out = {}
    for name, model in models.items():
        # kHz models report their rates in Hz; gamma_ratio is dimensionless.
        # Either way the rates resolve 1e-9 of the model's unit per K.
        unit, rate_unit, scale, digits = (
            ("", "", 1.0, 9) if name == "gamma_ratio" else ("_khz", "_hz", 1e3, 6)
        )
        out[name] = {
            f"value{unit}": round(model.value(t_ref), 6),
            f"derivative{rate_unit}_per_k": round(scale * model.derivative(t_ref), digits),
            "fractional_ppm_per_k": round(model.fractional_derivative_ppm(t_ref), 4),
            f"second_derivative{rate_unit}_per_k2": round(
                scale * model.second_derivative(t_ref), digits
            ),
            "coeffs": [fmt_g(c) for c in model.coeffs],
            f"residual_rms{unit}": round(model.residual_rms, 9),
        }
    return out


def cmd_fit(args) -> int:
    if args.thermal and args.format == "csv":
        raise ConfigError("the thermal models have no CSV form; use --format json")
    iso = get_isotope(args.isotope)
    params = _params(args, iso, presets.T_REF_K)
    sets = io.read_measurements(args.measurements, iso)
    if not sets:
        raise ConfigError("measurement file contains no rows")
    guess = ParamVector.from_physical(iso.name, params, FieldConfig(bz=args.bz))
    fixed = tuple(args.fix or ())
    series = [(ms.temperature, extraction.extract_params(ms, guess, fixed=fixed)) for ms in sets]
    payload = {"results": [_fit_record(t, fit) for t, fit in series]}
    if args.thermal:
        payload["thermal"] = _thermal_summary(extraction.thermal_models(series))
    lines = ["temperature_K,param,value"]
    held = [n for n in guess.fields() if any(n in fit.unresolved for _, fit in series)]
    lines += [f"# unresolved={','.join(held)}"] if held else []
    for rec in payload["results"]:
        for name, value in rec["params"].items():
            lines.append(f"{fmt_g(rec['temperature_K'])},{name},{fmt_g(value)}")
    _report(args, payload, lines)
    for rec in payload["results"]:
        if rec["dof"] and rec["tail_probability"] < FALSE_ALARM_PROBABILITY:
            print(
                f"warning: T = {rec['temperature_K']} K: chi^2 {rec['objective']:.6g} for "
                f"{rec['dof']} dof has tail probability {rec['tail_probability']:.3g}, below "
                f"{FALSE_ALARM_PROBABILITY:g}; the model does not describe these lines",
                file=sys.stderr,
            )
    return EXIT_OK


def cmd_angular_scan(args) -> int:
    iso = get_isotope(args.isotope)
    params = _params(args, iso, args.temp)
    if not (0 < args.theta_max_deg <= 2.0):
        raise ConfigError("--theta-max-deg must lie in (0, 2]")
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    transition = perturbation.ms0_line(iso)
    beta = perturbation.beta_coefficient(params, iso, args.bz)
    baseline_khz = perturbation.ms0_baseline(params, iso, args.bz)
    thetas = np.linspace(0.0, args.theta_max_deg, args.steps)
    f0 = float(transition_set(params, FieldConfig(bz=args.bz), iso, np.longdouble)[transition])
    if f0 == 0:
        raise ConfigError(f"{transition} is 0 at Bz = {args.bz} G; no fractional shift to scan")
    if not (math.isfinite(beta) and math.isfinite(baseline_khz) and round(baseline_khz, 6)):
        raise ConfigError(
            f"{transition} at Bz = {fmt_g(args.bz)} G has beta_perturbative={beta:.6g} and "
            f"baseline_khz={fmt_khz(baseline_khz)}; need a finite beta and a nonzero baseline"
        )
    rows = []
    for theta_deg in thetas:
        shift = float(
            perturbation.exact_angular_shift(params, iso, args.bz, math.radians(theta_deg))
        )
        rows.append((float(theta_deg), f0 + shift, shift / f0))
    payload = {
        "transition": transition,
        "beta_perturbative": beta,
        "baseline_khz": baseline_khz,
        "rows": [
            {"theta_deg": t, "f_khz": round(f, 9), "fractional_shift": fs} for t, f, fs in rows
        ],
    }
    lines = [
        f"# transition={transition} bz_G={fmt_g(args.bz)} "
        f"beta_perturbative={beta:.6g} baseline_khz={fmt_khz(baseline_khz)}",
        "theta_deg,f_khz,fractional_shift",
    ]
    for t, f, fs in rows:
        lines.append(f"{fmt_g(t)},{f:.9f},{fmt_g(fs)}")
    _report(args, payload, lines)
    return EXIT_OK


def cmd_perturb_check(args) -> int:
    isotopes = [get_isotope(args.isotope)] if args.isotope else [get_isotope("n14"), get_isotope("n15")]
    for flag, steps in (("--bz-steps", args.bz_steps), ("--bx-steps", args.bx_steps)):
        if steps < 1:
            raise ConfigError(f"{flag} must be at least 1")
    if args.tolerance_hz <= 0:
        raise ConfigError("--tolerance-hz must be finite and positive")
    bz_grid = np.linspace(args.bz_min, args.bz_max, args.bz_steps)
    bx_grid = np.linspace(0.0, args.bx_max, args.bx_steps)
    tolerance_khz = args.tolerance_hz / 1e3
    report = {"tolerance_hz": args.tolerance_hz, "isotopes": {}}
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
    _report(args, report)
    if failures:
        raise TripwireError(f"residual above {args.tolerance_hz} Hz for {failures}")
    return EXIT_OK


def _synth_labels(iso: IsotopeSpec) -> list[str]:
    """The nuclear lines plus both electron lines of the top mI level."""
    top = iso.nuclear_spin
    return [*nuclear_labels(iso), mw_label(+1, top), mw_label(-1, top)]


def cmd_synth(args) -> int:
    iso = get_isotope(args.isotope)
    try:
        temps = [float(t) for t in args.temps.split(",") if t.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --temps list: {err}") from err
    if not temps:
        raise ConfigError("--temps must list at least one temperature")
    repeated = sorted({t for t in temps if temps.count(t) > 1})
    if repeated:
        raise ConfigError(f"--temps lists {', '.join(map(fmt_g, repeated))} K more than once")
    if args.noise_scale < 0:
        raise ConfigError("--noise-scale must be finite and >= 0")
    rng = np.random.default_rng(args.seed)
    labels = _synth_labels(iso)
    rows = []
    for temperature in temps:
        ts = transition_set(presets.params_at(iso, temperature), FieldConfig(bz=args.bz), iso)
        for label in labels:
            sigma = presets.line_sigma_khz(label)
            noise = rng.normal() * sigma * args.noise_scale if args.noise_scale else 0.0
            sigma *= args.noise_scale or 1.0  # the sigma of the noise drawn, if any
            rows.append(io.MeasurementRow(temperature, label, float(ts[label]) + noise, sigma))
    io.write_measurements(args.out, rows)
    print(f"wrote {len(rows)} rows for {iso.name} to {args.out}")
    return EXIT_OK


def _fit_payload(trace, f_rf: float, sign: int, f_true: float | None = None) -> dict:
    """Fit the fringes of ``trace`` and resolve the line from the drive at
    ``f_rf``; given the synthesized line ``f_true``, also the recovery error."""
    fit = ramsey.fit_fringes(trace)
    f_recovered = ramsey.frequency_from_detuning(f_rf, fit.delta_khz, sign)
    payload = {
        "delta_fit_khz": round(fit.delta_khz, 9),
        "t2_star_fit_s": fmt_g(fit.t2_star_s),
        "rms_residual": fmt_g(fit.rms_residual),
        "f_recovered_khz": round(f_recovered, 6),
    }
    if f_true is not None:
        payload["recovery_error_hz"] = round(1e3 * (f_recovered - f_true), 6)
    return payload


def cmd_ramsey(args) -> int:
    iso = get_isotope(args.isotope)
    ts = transition_set(_params(args, iso, args.temp), _field(args), iso)
    if args.transition not in known_labels(iso):
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
    payload = {
        "f_true_khz": round(f_true, 6),
        "f_rf_khz": round(f_rf, 6),
        "delta_true_khz": round(abs(delta_true), 9),
    } | _fit_payload(trace, f_rf, 1 if delta_true >= 0 else -1, f_true)
    # A fit of uniform samples cannot tell a detuning from its alias, but the
    # synthesized one is known: the trace must resolve it as initial_guess
    # requires of the peak it found.
    dt = float(np.median(np.diff(times)))
    try:
        ramsey.require_resolvable(abs(delta_true), float(times[-1] - times[0]), dt)
    except ramsey.UndersampledTraceError as err:
        raise ramsey.UndersampledTraceError(
            f"the requested {abs(delta_true):.6g} kHz detuning is not resolved by the trace, "
            f"sampled at 1/dt = {1 / dt / 1e3:.6g} kHz: {err}"
        ) from None
    # Only a trace that fits is written: a refusal leaves no file behind.
    if args.trace_out:
        io.write_trace(args.trace_out, trace)
    _report(args, payload)
    return EXIT_OK


def cmd_ramsey_fit(args) -> int:
    _report(args, _fit_payload(io.read_trace(args.trace_in), args.f_rf_khz, args.sign))
    return EXIT_OK


def _finite_float(text: str) -> float:
    """The type of every float flag: nan and inf are refused at parse time,
    before a command can write a file or fail on them later."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


# Flags that several subcommands share.  Each subcommand registers only
# the ones it reads, so argparse refuses the rest (exit 2) instead of
# accepting and then ignoring them.
COMMON_FLAGS = {
    "--isotope": dict(required=True, help="n14 or n15"),
    "--preset": dict(
        choices=presets.PRESET_NAMES, metavar="PRESET", help="named parameter preset (%(choices)s)"
    ),
    "--params": dict(help="JSON file with d, a_par, a_perp [, q, gamma_n]"),
    "--bz": dict(type=_finite_float, default=None, help="axial field, Gauss"),
    "--bx": dict(type=_finite_float, default=0.0, help="transverse field, Gauss"),
    "--b": dict(type=_finite_float, default=None, help="field magnitude, Gauss"),
    "--theta-deg": dict(type=_finite_float, default=None, help="misalignment angle, degrees"),
    "--temp": dict(type=_finite_float, default=presets.T_REF_K, help="temperature, K"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=0),
}
SOURCE = ("--preset", "--params")
# Each pair gives one input two ways, and argparse refuses both flags of a
# pair at once (exit 2), also at a default value.  A subcommand that
# registers a ONE_OF pair whole needs one of the two; one that registers a
# single flag of it needs that flag.  EXCLUSIVE pairs are optional.
ONE_OF = (SOURCE, ("--bz", "--b"))
EXCLUSIVE = (("--bx", "--theta-deg"),)
FIELD = (*ONE_OF[1], *EXCLUSIVE[0])


def _add_flags(parser: argparse.ArgumentParser, specs: dict) -> None:
    """Register ``specs``.  A ONE_OF or EXCLUSIVE pair registered whole goes
    into one mutually exclusive group, required for ONE_OF; a ONE_OF flag
    registered alone is required."""
    groups = {}
    for pair in (*ONE_OF, *EXCLUSIVE):
        if set(pair) <= specs.keys():
            group = parser.add_mutually_exclusive_group(required=pair in ONE_OF)
            groups |= dict.fromkeys(pair, group)
    alone = {flag for pair in ONE_OF for flag in pair} - groups.keys()
    for flag, spec in specs.items():
        if flag in alone:
            spec = spec | {"required": True}
        groups.get(flag, parser).add_argument(flag, **spec)


class _Parser(argparse.ArgumentParser):
    """Bad usage ends in one `error: ...` line, like every other failure;
    `--help` lists the flags.  Subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls."""
    parser = _Parser(
        prog="nvground",
        description="NV ground-state spin toolkit: transition frequencies, "
        "parameter extraction and Ramsey analysis",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, *flags, own=None, **defaults):
        """A subcommand with the COMMON_FLAGS ``flags`` and its ``own`` specs."""
        # No prefix matching: synth would take --temp for --temps.
        s = subs.add_parser(name, help=help, allow_abbrev=False)
        _add_flags(s, {flag: COMMON_FLAGS[flag] for flag in flags} | (own or {}))
        s.set_defaults(func=func, **defaults)

    add("transitions", "exact-diagonalization line table", cmd_transitions,
        "--isotope", *SOURCE, *FIELD, "--temp", "--out", "--format")

    add("fit", "extract coupling parameters from measurements", cmd_fit,
        "--isotope", *SOURCE, "--bz", "--out", "--format", own={
            "--measurements": dict(required=True, help="measurement CSV file"),
            "--thermal": dict(action="store_true", help="append degree-4 thermal models"),
            "--fix": dict(action="append", help="pin a fit parameter at its guess value"),
        }, format="json")

    add("angular-scan", "fdq/f7 shift vs misalignment angle", cmd_angular_scan,
        "--isotope", *SOURCE, "--bz", "--temp", "--out", "--format", own={
            "--theta-max-deg": dict(type=_finite_float, default=0.5),
            "--steps": dict(type=int, default=11),
        })

    add("perturb-check", "perturbation-vs-exact tripwire (preset parameters)",
        cmd_perturb_check, "--temp", "--out", own={
            "--isotope": dict(help="n14 or n15 (default: both)"),
            "--bz-min": dict(type=_finite_float, default=300.0),
            "--bz-max": dict(type=_finite_float, default=600.0),
            "--bz-steps": dict(type=int, default=7),
            "--bx-max": dict(type=_finite_float, default=1.0),
            "--bx-steps": dict(type=int, default=5),
            "--tolerance-hz": dict(type=_finite_float, default=DEFAULT_NOISE_TOLERANCE_HZ),
        })

    add("synth", "generate a synthetic measurement CSV", cmd_synth,
        "--isotope", "--preset", "--bz", "--seed", own={
            "--out": dict(required=True, help="output measurement CSV file"),
            "--temps": dict(default="297", help="comma-separated temperatures, K"),
            "--noise-scale": dict(
                type=_finite_float, default=1.0,
                help="noise in units of each line's sigma, which the file gives scaled "
                "by the same factor; 0 for noiseless lines at the unscaled sigma"),
        })

    add("ramsey", "synthesize and fit Ramsey fringes end to end", cmd_ramsey,
        "--isotope", *SOURCE, *FIELD, "--temp", "--out", "--seed", own={
            "--transition": dict(default="f1"),
            "--detune-khz": dict(type=_finite_float, default=4.0),
            "--t2-star-ms": dict(type=_finite_float, default=1.0),
            "--duration-ms": dict(type=_finite_float, default=2.0),
            "--samples": dict(type=int, default=200),
            "--amp": dict(type=_finite_float, default=0.5),
            "--phase": dict(type=_finite_float, default=0.0),
            "--offset": dict(type=_finite_float, default=1.0),
            "--noise-sigma": dict(type=_finite_float, default=0.0),
            "--trace-out": dict(help="write the synthesized trace CSV here"),
        })

    add("ramsey-fit", "fit the Ramsey fringes of a trace CSV", cmd_ramsey_fit,
        "--out", own={
            "--trace-in": dict(required=True, help="trace CSV file"),
            "--f-rf-khz": dict(type=_finite_float, required=True, help="drive frequency, kHz"),
            "--sign": dict(type=int, choices=(1, -1), default=1, help="f = f_rf - sign * detuning"),
        })

    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
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


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit flush
    except BrokenPipeError:
        # The reader closed stdout after taking what it wanted.  stdout goes
        # to devnull, so the interpreter's final flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    return code


if __name__ == "__main__":
    sys.exit(main())
