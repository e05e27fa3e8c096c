import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvground
from nvground import cli, extraction, optimize
from nvground.cli import FALSE_ALARM_PROBABILITY, build_parser, main
from nvground.extraction import PARAM_FIELDS, ParamVector, extract_params, transition_table
from nvground.io import (
    MEASUREMENT_HEADER,
    TRACE_HEADER,
    ConfigError,
    MeasurementRow,
    read_measurements,
    read_trace,
    write_measurements,
    write_trace,
)
from nvground.presets import TABLE3, params_at, thermal_presets
from nvground.ramsey import RamseyTrace, synthesize
from nvground.spin_core import GAMMA_E_KHZ_PER_G, N14, N15, FieldConfig, get_isotope
from nvground.transitions import AmbiguousLabelingError, known_labels, transition_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_no_flag_parses_a_bare_float():
    # A bare float type would accept nan and inf; every float flag uses
    # the one finite type instead.
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    types = {(name, a.dest): a.type for name, sub in subs.choices.items() for a in sub._actions}
    assert float not in types.values()
    assert types["ramsey", "noise_sigma"] is types["ramsey-fit", "f_rf_khz"] is cli._finite_float


def test_reused_parser_gives_the_same_output(tmp_path, capsys):
    path = tmp_path / "t.json"
    argv = [
        "transitions", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--format", "json", "--out", str(path),
    ]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(path.read_bytes())
        path.unlink()
    assert outputs[0] == outputs[1]
    # A refused argv leaves nothing behind for the next call.
    assert main([*argv, "--seed", "3"]) == 2
    assert not path.exists()
    assert main(argv) == 0
    assert path.read_bytes() == outputs[0]


def test_transitions_table_values(capsys):
    code, out = run(
        capsys, "transitions", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470"
    )
    assert code == 0
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in out.strip().splitlines()[1:]}
    assert float(rows["f1"][0]) == pytest.approx(5085.95, abs=0.1)
    assert float(rows["f3-f6"][0]) == pytest.approx(289.081, abs=0.06)
    # derivative column present with a preset source
    assert float(rows["f4"][1]) == pytest.approx(-232.8, abs=2.0)


def test_transitions_json_carries_config(capsys):
    code, out = run(
        capsys,
        "transitions", "--isotope", "n15", "--preset", "table1_297K", "--bz", "470",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["bz"] == 470.0
    rows = {r["transition"]: r["freq_khz"] for r in payload["rows"]}
    assert rows["f7"] == pytest.approx(TABLE3["f7"].freq_khz, abs=0.5)


def test_transitions_zero_field_with_params_override(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(
        json.dumps({"d": 2870.28e3, "q": -4945.88, "a_par": -2165.19, "a_perp": 0.0})
    )
    code, out = run(
        capsys,
        "transitions", "--isotope", "n14", "--params", str(params), "--bz", "0", "--bx", "0",
    )
    assert code == 0
    rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]}
    assert rows["f1"] == pytest.approx(4945.88, abs=1e-6)


@pytest.mark.parametrize("iso", ["N14", "N15"])
def test_transitions_same_rows_from_preset_and_params(tmp_path, capsys, iso):
    p = params_at(iso)
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"d": p.d, "q": p.q, "a_par": p.a_par, "a_perp": p.a_perp}))
    common = ["transitions", "--isotope", iso, "--bz", "470", "--bx", "0"]
    _, from_preset = run(capsys, *common, "--preset", "table1_297K")
    _, from_params = run(capsys, *common, "--params", str(params))
    labels = [ln.split(",")[0] for ln in from_preset.strip().splitlines()[1:]]
    assert labels == [ln.split(",")[0] for ln in from_params.strip().splitlines()[1:]]
    assert len(labels) == (16 if iso == "N14" else 7)


@pytest.mark.parametrize("iso", ["n14", "n15"])
@pytest.mark.parametrize("temp", [77.0, 400.0])
def test_transitions_slopes_at_range_ends(capsys, iso, temp):
    code, out = run(
        capsys,
        "transitions", "--isotope", iso, "--preset", "table1_297K", "--bz", "470",
        "--temp", str(temp), "--format", "json",
    )
    assert code == 0
    slopes = {r["transition"]: r["df_dt_hz_per_k"] for r in json.loads(out)["rows"]}
    spec = get_isotope(iso)
    _, table = transition_table(thermal_presets(spec), temp, FieldConfig(bz=470.0), spec)
    assert slopes == {label: round(slope, 6) for label, slope in table.items()}


@pytest.mark.parametrize(
    "flags, field",
    [
        (("--bz", "470", "--bx", "0.3"), FieldConfig(bz=470.0, bx=0.3)),
        (("--b", "470", "--theta-deg", "0.5"), FieldConfig.from_polar(470.0, math.radians(0.5))),
    ],
    ids=["bx", "polar"],
)
def test_transitions_slopes_at_any_field(capsys, flags, field):
    # A preset source gives the slope column off axis too.
    code, out = run(capsys, "transitions", "--isotope", "n15", *PRESET, *flags, "--format", "json")
    assert code == 0
    _, slopes = transition_table(thermal_presets(N15), 297.0, field, N15)
    rows = [(r["transition"], r["df_dt_hz_per_k"]) for r in json.loads(out)["rows"]]
    assert rows == [(label, round(slope, 6)) for label, slope in slopes.items()]


def test_transitions_at_minus_bz_mirror_those_at_plus_bz(capsys):
    # (ms, mI) -> (-ms, -mI) with Bz -> -Bz leaves H unchanged: each line at
    # -470 G has the value and slope of its mirror partner at +470 G, fdq is
    # its own partner, and each difference row changes sign.
    def rows(bz):
        argv = ["transitions", "--isotope", "n14", *PRESET, "--bz", bz, "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        rows = json.loads(out)["rows"]
        return {r["transition"]: (r["freq_khz"], r["df_dt_hz_per_k"]) for r in rows}

    plus, minus = rows("470"), rows("-470")
    assert minus["fdq"] == plus["fdq"] == (286.332709, 0.148549)
    pairs = [("f1", "f2"), ("f3", "f6"), ("f4", "f5")]
    pairs += [(f"fplus_{m}", f"fminus_{n}") for m, n in (("+1", "-1"), ("0", "0"), ("-1", "+1"))]
    for a, b in pairs:
        assert minus[a] == plus[b] and minus[b] == plus[a]
    differences = ["f1-f2", "f5-f4", "f3-f6"]
    for name in differences:
        assert minus[name] == tuple(-x for x in plus[name])
    assert len(plus) == 1 + 2 * len(pairs) + len(differences)


def test_transitions_polar_field_equivalent(capsys):
    _, out_polar = run(
        capsys,
        "transitions", "--isotope", "n14", "--preset", "table1_297K",
        "--b", "480", "--theta-deg", "0.1",
    )
    bz = 480 * np.cos(np.radians(0.1))
    bx = 480 * np.sin(np.radians(0.1))
    _, out_comp = run(
        capsys,
        "transitions", "--isotope", "n14", "--preset", "table1_297K",
        "--bz", str(bz), "--bx", str(bx),
    )
    assert out_polar == out_comp


def test_exit_codes(tmp_path, capsys):
    # config error: no parameter source
    assert main(["transitions", "--isotope", "n14", "--bz", "470"]) == 2
    capsys.readouterr()
    # config error: unknown preset
    assert main(
        ["transitions", "--isotope", "n14", "--preset", "nope", "--bz", "470"]
    ) == 2
    capsys.readouterr()
    # labeling ambiguity near the anti-crossing
    assert main(
        ["transitions", "--isotope", "n14", "--preset", "table1_297K", "--bz", "1022.8"]
    ) == 3
    capsys.readouterr()
    # underdetermined fit file
    f = tmp_path / "one.csv"
    f.write_text(
        "temperature_K,transition,freq_khz,sigma_khz\n297,f1,5085.95,0.01\n"
    )
    assert main(
        ["fit", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
         "--measurements", str(f)]
    ) == 2
    capsys.readouterr()
    # bad usage normalizes to 2
    assert main(["transitions", "--isotope"]) == 2
    capsys.readouterr()


@pytest.fixture
def bad_inputs(tmp_path):
    """Input files that each end a command in an error, under tmp_path."""
    (tmp_path / "one.csv").write_text(
        "temperature_K,transition,freq_khz,sigma_khz\n297,f1,5085.95,0.01\n"
    )
    for name, temp, f1 in (("huge.csv", 297.0, 1e200), ("cold.csv", 77.0, None),
                           ("cold_huge.csv", 77.0, 1e200)):
        lines = transition_set(params_at(N14, temp), FieldConfig(bz=470.0), N14)
        rows = [
            f"{temp:g},{l},{f1 if l == 'f1' and f1 else float(lines[l])!r},0.01"
            for l in known_labels(N14)
        ]
        (tmp_path / name).write_text("\n".join([MEASUREMENT_HEADER, *rows]) + "\n")
    trace = synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, np.linspace(0.0, 2e-3, 200))
    write_trace(tmp_path / "trace.csv", trace)
    write_trace(tmp_path / "huge_trace.csv", RamseyTrace(trace.times, 1e200 * trace.signal))
    write_trace(tmp_path / "flat.csv", RamseyTrace(np.linspace(0.0, 1e-3, 100), np.ones(100)))
    (tmp_path / "one_row.csv").write_text("tau_s,signal\n0,1\n")
    (tmp_path / "header_only.csv").write_text("tau_s,signal\n")
    (tmp_path / "nan_tau.csv").write_text("tau_s,signal\n0,1\nnan,0.5\n2e-5,0.2\n3e-5,0.9\n")
    rows = "".join(f"{t:.17g},{s:.17g}\n" for t, s in zip(trace.times, trace.signal))
    for name, sigma in (("word_sigma.csv", "abc"), ("nan_sigma.csv", "nan"),
                        ("negative_sigma.csv", "-0.02")):
        (tmp_path / name).write_text(f"tau_s,signal\n# noise_sigma={sigma}\n{rows}")
    (tmp_path / "two_sigmas.csv").write_text(f"tau_s,signal\n# noise_sigma=0\n# noise_sigma=0\n{rows}")
    (tmp_path / "no_rows.csv").write_text(f"{MEASUREMENT_HEADER}\n")
    (tmp_path / "not_json.json").write_text("d = 2870280\n")
    # A --params file reads only d, q, a_par, a_perp and gamma_n, each a JSON
    # number, and gamma_n is nonzero and large enough for a finite gamma_e/gamma_n.
    n14 = {"d": 2870.28e3, "q": -4945.88, "a_par": -2165.19, "a_perp": -2635.0}
    n15 = {"d": 2870.28e3, "a_par": 3033.3, "a_perp": 3680.0}
    for name, params in (
        ("gamma_e.json", {**n14, "gamma_e": 1.0}),
        ("misspelt.json", {**n14, "a_prep": 1.0}),
        ("zero_gamma_n.json", {**n14, "gamma_n": 0}),
        ("zero_gamma_n_n15.json", {**n15, "gamma_n": 0}),
        ("tiny_gamma_n.json", {**n14, "gamma_n": 1e-320}),
        ("small_gamma_n.json", {**n14, "gamma_n": 1e-300}),
        ("bool_q.json", {**n14, "q": True}),
        ("string_d.json", {**n14, "d": "2870280"}),
        ("huge_int_d.json", {**n14, "d": 10**400}),
        ("no_d.json", {key: value for key, value in n14.items() if key != "d"}),
    ):
        (tmp_path / name).write_text(json.dumps(params))
    return tmp_path


PRESET = ("--preset", "table1_297K")
FIT = ("fit", "--isotope", "n14", *PRESET, "--bz", "470", "--measurements")
TRANSITIONS_N14 = ("transitions", "--isotope", "n14", *PRESET)
PARAMS_N14 = ("transitions", "--isotope", "n14", "--params")
RAMSEY = ("ramsey", "--isotope", "n14", *PRESET)
SYNTH = ("synth", "--isotope", "n14", *PRESET, "--bz", "470")
RAMSEY_FIT = ("ramsey-fit", "--trace-in", "{dir}/trace.csv", "--f-rf-khz", "5090")
# Each asks for an output the command cannot give, passes flags it would
# not read, gives a field component two ways or passes a value out of range.
# A file named never.csv must not be written.
REFUSED = {
    "thermal-csv": ([*FIT, "{dir}/cold.csv", "--thermal", "--format", "csv"],
                    "the thermal models have no CSV form"),
    # ramsey synthesizes a trace and ramsey-fit fits a given one; neither
    # reads the other's flags, also at their default values.
    "ramsey-synth-trace-in-flags": (
        [*RAMSEY, "--bz", "470", "--sign", "-1", "--f-rf-khz", "5"],
        "unrecognized arguments: --sign -1 --f-rf-khz 5"),
    "ramsey-trace-in-synth-flags": (
        [*RAMSEY_FIT, "--isotope", "n15", "--bz", "100", "--transition", "f7", "--samples", "3"],
        "unrecognized arguments: --isotope n15 --bz 100 --transition f7 --samples 3"),
    "ramsey-synth-default-sign": ([*RAMSEY, "--bz", "470", "--sign", "1"],
                                  "unrecognized arguments: --sign 1"),
    "ramsey-trace-in-default-flags": ([*RAMSEY_FIT, "--samples", "200", "--temp", "297"],
                                      "unrecognized arguments: --samples 200 --temp 297"),
    "transitions-bz-and-b": (
        [*TRANSITIONS_N14, "--bz", "470", "--b", "480", "--theta-deg", "0.5"],
        "argument --b: not allowed with argument --bz"),
    "transitions-theta-and-bx": (
        [*TRANSITIONS_N14, "--b", "480", "--theta-deg", "0.5", "--bx", "5"],
        "argument --bx: not allowed with argument --theta-deg"),
    "ramsey-bz-and-b": ([*RAMSEY, "--b", "480", "--bz", "470"],
                        "argument --bz: not allowed with argument --b"),
    "ramsey-theta-and-default-bx": ([*RAMSEY, "--b", "480", "--theta-deg", "0.5", "--bx", "0"],
                                    "argument --bx: not allowed with argument --theta-deg"),
    "ramsey-one-sample": ([*RAMSEY, "--bz", "470", "--samples", "1"],
                          "a Ramsey trace needs at least 2 samples, not 1"),
    "ramsey-no-samples": ([*RAMSEY, "--bz", "470", "--samples", "0"],
                          "a Ramsey trace needs at least 2 samples, not 0"),
    "ramsey-one-row-trace": (["ramsey-fit", "--trace-in", "{dir}/one_row.csv", "--f-rf-khz", "100"],
                             "a Ramsey trace needs at least 2 samples, not 1"),
    "ramsey-nan-tau-trace": (["ramsey-fit", "--trace-in", "{dir}/nan_tau.csv", "--f-rf-khz", "100"],
                             "times must be finite"),
    "ramsey-header-only-trace": (
        ["ramsey-fit", "--trace-in", "{dir}/header_only.csv", "--f-rf-khz", "100"],
        "a Ramsey trace needs at least 2 samples, not 0"),
    # The trace is written only once it fits.
    "ramsey-unfit-trace-out": (
        [*RAMSEY, "--bz", "470", "--samples", "5", "--trace-out", "{dir}/never.csv"],
        "trace spans 0.80 periods at 0.4 kHz; need >= 3"),
    # Every float flag refuses nan and inf (and an overflowing literal) at
    # parse time, before a command can write anything.
    "synth-nan-noise": ([*SYNTH, "--noise-scale", "nan", "--out", "{dir}/never.csv"],
                        "argument --noise-scale: must be finite, not 'nan'"),
    "synth-negative-noise": ([*SYNTH, "--noise-scale", "-1", "--out", "{dir}/never.csv"],
                             "--noise-scale must be finite and >= 0"),
    "ramsey-inf-t2-star": (
        [*RAMSEY, "--bz", "470", "--t2-star-ms", "inf", "--trace-out", "{dir}/never.csv"],
        "argument --t2-star-ms: must be finite, not 'inf'"),
    "ramsey-fit-nan-drive": (["ramsey-fit", "--trace-in", "{dir}/trace.csv", "--f-rf-khz", "nan"],
                             "argument --f-rf-khz: must be finite, not 'nan'"),
    "ramsey-inf-phase": ([*RAMSEY, "--bz", "470", "--phase", "inf"],
                         "argument --phase: must be finite, not 'inf'"),
    "transitions-overflowing-bz": ([*TRANSITIONS_N14, "--bz", "1e400"],
                                   "argument --bz: must be finite, not '1e400'"),
    "perturb-check-inf-tolerance": (["perturb-check", "--tolerance-hz", "inf"],
                                    "argument --tolerance-hz: must be finite, not 'inf'"),
    "ramsey-not-a-number": ([*RAMSEY, "--bz", "470", "--amp", "abc"],
                            "argument --amp: invalid float value: 'abc'"),
    "ramsey-negative-noise-sigma": (
        [*RAMSEY, "--bz", "470", "--noise-sigma", "-0.02", "--trace-out", "{dir}/never.csv"],
        "noise_sigma must be finite and >= 0, not -0.02"),
    "synth-repeated-temperature": ([*SYNTH, "--temps", "297,77,297.0", "--out", "{dir}/never.csv"],
                                   "--temps lists 297 K more than once"),
    "perturb-check-negative-tolerance": (["perturb-check", "--tolerance-hz", "-1"],
                                         "--tolerance-hz must be finite and positive"),
    # The closed forms are odd in Bz where the lines are even.
    "angular-scan-negative-bz-n14": (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "-480"],
                                     "the perturbative formulas take Bz >= 0, not -480 G"),
    "angular-scan-negative-bz-n15": (["angular-scan", "--isotope", "n15", *PRESET, "--bz", "-480"],
                                     "the perturbative formulas take Bz >= 0, not -480 G"),
    "perturb-check-negative-bz": (["perturb-check", "--bz-min", "-600", "--bz-max", "-300"],
                                  "the perturbative formulas take Bz >= 0, not -600 G"),
    # With no detuning the fringe has no period; the refusal names the
    # guessed frequency in 6 significant digits.
    "ramsey-zero-detuning": ([*RAMSEY, "--bz", "470", "--detune-khz", "0"],
                             "trace spans 1.00 periods at 0.4975 kHz; need >= 3"),
    # A fit of uniform samples cannot tell the 60 kHz detuning from its
    # 10.5 kHz alias; ramsey knows what it synthesized and refuses it.
    "ramsey-aliased-detuning": (
        [*RAMSEY, "--bz", "470", "--detune-khz", "60", "--samples", "100",
         "--trace-out", "{dir}/never.csv"],
        "the requested 60 kHz detuning is not resolved by the trace, sampled at "
        "1/dt = 49.5 kHz: fewer than 4 samples per period at 60 kHz"),
    "ramsey-other-isotopes-line": ([*RAMSEY, "--bz", "470", "--transition", "f9"],
                                   "unknown transition 'f9' for N14"),
    "transitions-b-without-theta": ([*TRANSITIONS_N14, "--b", "480"],
                                    "--b and --theta-deg go together"),
    "angular-scan-one-step": (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "480",
                               "--steps", "1"], "--steps must be at least 2"),
}
# Each leaves out a flag the command needs: one of --preset/--params, one of
# --bz/--b, or a flag of its own.  (transitions without a source is no-source.)
NO_SOURCE = "one of the arguments --preset --params is required"
NO_FIELD = "one of the arguments --bz --b is required"
REQUIRED = "the following arguments are required: "
MEASURED = ("--measurements", "{dir}/cold.csv")
MISSING = {
    "fit-no-source": (["fit", "--isotope", "n14", "--bz", "470", *MEASURED], NO_SOURCE),
    "angular-scan-no-source": (["angular-scan", "--isotope", "n14", "--bz", "480"], NO_SOURCE),
    "ramsey-no-source": (["ramsey", "--isotope", "n14", "--bz", "470"], NO_SOURCE),
    "transitions-no-field": ([*TRANSITIONS_N14], NO_FIELD),
    "ramsey-no-field": ([*RAMSEY], NO_FIELD),
    "fit-no-bz": (["fit", "--isotope", "n14", *PRESET, *MEASURED], REQUIRED + "--bz"),
    "angular-scan-no-bz": (["angular-scan", "--isotope", "n14", *PRESET], REQUIRED + "--bz"),
    "synth-no-bz": (["synth", "--isotope", "n14", *PRESET, "--out", "{dir}/never.csv"],
                    REQUIRED + "--bz"),
    "synth-no-preset": (["synth", "--isotope", "n14", "--bz", "470", "--out", "{dir}/never.csv"],
                        REQUIRED + "--preset"),
    "synth-no-out": ([*SYNTH], REQUIRED + "--out"),
    "ramsey-fit-no-trace-in": (["ramsey-fit", "--f-rf-khz", "5090"], REQUIRED + "--trace-in"),
    "ramsey-fit-no-f-rf": (["ramsey-fit", "--trace-in", "{dir}/trace.csv"],
                           REQUIRED + "--f-rf-khz"),
}
# Each gives a file or a flag value that the command cannot read or use.
UNUSABLE = {
    "params-not-json": ([*PARAMS_N14, "{dir}/not_json.json", "--bz", "470"],
                        "cannot parse params file: Expecting value: line 1 column 1 (char 0)"),
    "fit-header-only": ([*FIT, "{dir}/no_rows.csv"], "measurement file contains no rows"),
    "synth-word-temperature": ([*SYNTH, "--temps", "297,abc", "--out", "{dir}/never.csv"],
                               "bad --temps list: could not convert string to float: 'abc'"),
    "synth-no-temperature": ([*SYNTH, "--temps", ",", "--out", "{dir}/never.csv"],
                             "--temps must list at least one temperature"),
    "fit-fix-unknown": ([*FIT, "{dir}/cold.csv", "--fix", "bogus"],
                        "cannot fix unknown parameter 'bogus'"),
    "transitions-past-preset-range": (
        [*TRANSITIONS_N14, "--bz", "470", "--temp", "500"],
        "temperature 500.0 K outside the d model range [77.0, 400.0] K"),
}


@pytest.mark.parametrize(
    "argv, code, names",
    [
        (["transitions", "--isotope", "n14", "--bz", "470"], 2, NO_SOURCE),
        (["transitions", "--isotope", "n14", "--preset", "nope", "--bz", "470"], 2,
         "argument --preset: invalid choice: 'nope'"),
        (["transitions", "--isotope", "n14", *PRESET, "--bz", "1022.8"], 3, ""),
        ([*FIT, "{dir}/one.csv"], 2, ""),
        ([*FIT, "{dir}/missing.csv"], 2, ""),
        ([*FIT, "{dir}/huge.csv"], 4, ""),
        ([*FIT, "{dir}/cold_huge.csv"], 4, "T = 77.0 K: objective returned inf at ["),
        (["fit", "--isotope", "n14", *PRESET, "--bz", "1022.8", "--measurements", "{dir}/cold.csv"],
         3, "T = 77.0 K: labeling failed at trial point {'d': 2870280.0, "),
        (["ramsey-fit", "--trace-in", "{dir}/huge_trace.csv", "--f-rf-khz", "100"], 4, ""),
        (["ramsey-fit", "--trace-in", "{dir}/flat.csv", "--f-rf-khz", "100"], 2,
         "no dominant oscillation peak in the trace spectrum"),
        *((["ramsey-fit", "--trace-in", f"{{dir}}/{name}", "--f-rf-khz", "100"], 2, names)
          for name, names in (
              ("word_sigma.csv", "bad noise_sigma: could not convert string to float: 'abc'"),
              ("nan_sigma.csv", "noise_sigma must be finite and >= 0, not nan"),
              ("negative_sigma.csv", "noise_sigma must be finite and >= 0, not -0.02"),
              ("two_sigmas.csv", "trace file gives noise_sigma more than once"),
          )),
        (["ramsey", *PRESET, "--bz", "470"], 2, "the following arguments are required: --isotope"),
        (["angular-scan", "--isotope", "n15", *PRESET, "--bz", "0"], 2, ""),
        (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "0"], 3, ""),
        (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "480", "--theta-max-deg", "3"], 2, ""),
        # gamma_e/gamma_n is finite, but beta is about -3e300 and the baseline
        # prints as 0
        (["angular-scan", "--isotope", "n14", "--params", "{dir}/small_gamma_n.json", "--bz", "480"],
         2, "fdq at Bz = 480 G has beta_perturbative=-3.05374e+300 and baseline_khz=0.000000"),
        (["perturb-check", "--tolerance-hz", "0.001"], 5, ""),
        (["perturb-check", "--bz-max", "1024", "--bz-steps", "3"], 2, ""),
        (["perturb-check", "--bz-steps", "0"], 2, ""),
        ([*FIT, "{dir}/cold.csv", *(f for name in PARAM_FIELDS["N14"] for f in ("--fix", name))], 2,
         "T = 77.0 K: every parameter is fixed; nothing to fit"),
        *(([*PARAMS_N14, f"{{dir}}/{name}", "--bz", "470"], 2, f"bad params file: {names}")
          for name, names in (
              ("gamma_e.json", "unknown key 'gamma_e'"),
              ("misspelt.json", "unknown key 'a_prep'"),
              ("zero_gamma_n.json", "gamma_n must be nonzero"),
              ("bool_q.json", "q must be a number, not true"),
              ("string_d.json", 'd must be a number, not "2870280"'),
              # an integer literal too large for a float reads as inf
              ("huge_int_d.json", "coupling parameters must be finite"),
              ("no_d.json", "missing key 'd'"),
          )),
        *(([command, "--isotope", iso, "--params", f"{{dir}}/{name}", "--bz", "470", *more], 2,
           f"bad params file: {names}")
          for command, more in (("fit", MEASURED), ("angular-scan", ()))
          for iso, name, names in (
              ("n14", "zero_gamma_n.json", "gamma_n must be nonzero"),
              ("n15", "zero_gamma_n_n15.json", "gamma_n must be nonzero"),
              ("n14", "tiny_gamma_n.json",
               "gamma_n 1e-320 is too small: gamma_e/gamma_n overflows"),
          )),
        *((argv, 2, names) for argv, names in (REFUSED | MISSING | UNUSABLE).values()),
    ],
    ids=[
        "no-source", "unknown-preset", "gslac", "underdetermined-fit", "missing-file",
        "huge-f1", "cold-huge-f1", "gslac-fit-guess", "huge-trace", "flat-trace",
        "word-noise-sigma", "nan-noise-sigma", "negative-noise-sigma", "two-noise-sigmas",
        "ramsey-no-isotope", "n15-zero-field", "n14-zero-field", "wide-angle",
        "angular-scan-small-gamma-n", "tripwire",
        "perturb-gslac", "empty-grid", "fit-every-parameter-fixed", "params-gamma-e",
        "params-misspelt-key", "params-zero-gamma-n", "params-bool-q", "params-string-d",
        "params-huge-int-d", "params-no-d", "fit-zero-gamma-n-n14", "fit-zero-gamma-n-n15",
        "fit-tiny-gamma-n", "angular-scan-zero-gamma-n-n14", "angular-scan-zero-gamma-n-n15",
        "angular-scan-tiny-gamma-n", *REFUSED, *MISSING, *UNUSABLE,
    ],
)
def test_failures_end_in_one_error_line(bad_inputs, capsys, argv, code, names):
    # Exit codes 2-5 with one stderr line, never a traceback or a warning
    # (the suite's filterwarnings turns a warning into an uncaught error).
    # A fit failure names the temperature it happened at.
    assert main([a.format(dir=bad_inputs) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert names in err
    assert not (bad_inputs / "never.csv").exists()


def test_unconverged_fit_ends_in_one_error_line(bad_inputs, capsys, monkeypatch):
    # A simplex that runs out of iterations is a fit failure (exit 4) that
    # names its temperature.
    monkeypatch.setattr(optimize, "_MAX_ITER", 5)
    assert main([*FIT, str(bad_inputs / "cold.csv")]) == 4
    err = capsys.readouterr().err
    assert err == "error: fit at T = 77.0 K did not converge in 5 iterations\n"


def _failing_on_call(monkeypatch, k, fail):
    """Make extraction.model_frequencies return ``fail(x, labels)`` on its
    k-th call; returns the trial points it was called at."""
    real, points = extraction.model_frequencies, []

    def model_frequencies(x, iso, labels):
        points.append(x.copy())
        return fail(x, labels) if len(points) == k else real(x, iso, labels)

    monkeypatch.setattr(extraction, "model_frequencies", model_frequencies)
    return points


def _refuse_labels(x, labels):
    raise AmbiguousLabelingError("eigenstate 4 has max squared overlap 0.512 < 0.6")


@pytest.mark.parametrize("k", [1, 7])
def test_a_labeling_failure_inside_the_simplex_names_its_point(bad_inputs, capsys, monkeypatch, k):
    # A refusal raised at a simplex trial point ends the fit with exit 3 and
    # names the temperature and that point.
    points = _failing_on_call(monkeypatch, k, _refuse_labels)
    assert main([*FIT, str(bad_inputs / "cold.csv")]) == 3
    point = dict(zip(PARAM_FIELDS["N14"], points[-1].tolist()))
    assert len(points) == k and capsys.readouterr().err == (
        f"error: ambiguous state labeling: T = 77.0 K: labeling failed at trial point {point}: "
        "eigenstate 4 has max squared overlap 0.512 < 0.6\n"
    )


@pytest.mark.parametrize("k", [1, 7])
def test_a_non_finite_chi2_inside_the_simplex_names_its_point(bad_inputs, capsys, monkeypatch, k):
    # A non-finite chi^2 at a simplex trial point ends the fit with exit 4
    # and names the temperature and that point in the fit's own parameters.
    points = _failing_on_call(monkeypatch, k, lambda x, labels: np.full(len(labels), np.inf))
    assert main([*FIT, str(bad_inputs / "cold.csv")]) == 4
    assert len(points) == k and capsys.readouterr().err == (
        f"error: T = 77.0 K: objective returned inf at {points[-1].tolist()}\n"
    )


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """A noiseless N14 series (one and five temperatures) and a Ramsey trace."""
    d = tmp_path_factory.mktemp("reports")
    for name, temps in (("one.csv", "297"), ("series.csv", "77,150,225,297,400")):
        assert main(
            ["synth", "--isotope", "n14", *PRESET, "--bz", "470", "--temps", temps,
             "--noise-scale", "0", "--out", str(d / name)]
        ) == 0
    write_trace(d / "trace.csv", synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, np.linspace(0.0, 2e-3, 200)))
    return d


TRANSITIONS = ("transitions", "--isotope", "n14", *PRESET, "--bz", "470")
ANGULAR = ("angular-scan", "--isotope", "n15", *PRESET, "--bz", "480", "--steps", "3")
FIXED = ("--fix", "gamma_e_bx")


@pytest.mark.parametrize(
    "argv, csv_header",
    [
        (TRANSITIONS, "transition,freq_khz,df_dt_hz_per_k"),
        ([*TRANSITIONS, "--format", "json"], None),
        ([*FIT, "{dir}/one.csv", *FIXED], None),
        ([*FIT, "{dir}/series.csv", *FIXED, "--thermal"], None),
        (ANGULAR, "# transition=f7 bz_G=480 beta_perturbative="),
        ([*ANGULAR, "--format", "json"], None),
        (["perturb-check"], None),
        (["ramsey", "--isotope", "n14", *PRESET, "--bz", "470"], None),
        (["ramsey-fit", "--trace-in", "{dir}/trace.csv", "--f-rf-khz", "100"], None),
    ],
    ids=[
        "transitions-csv", "transitions-json", "fit", "thermal", "angular-csv", "angular-json",
        "perturb-check", "ramsey", "ramsey-trace-in",
    ],
)
def test_every_report_goes_through_one_writer(report_inputs, tmp_path, capsys, argv, csv_header):
    argv = [a.format(dir=report_inputs) for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "report"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and not text.endswith("\n\n")
    if csv_header is None:
        # The same report as on stdout; only the config's --out differs.
        report, shown = json.loads(text), json.loads(printed)
        assert next(iter(report)) == "config"
        assert shown["config"]["out"] is None
        shown["config"]["out"] = str(path)
        assert report == shown
    else:
        assert text == printed
        assert text.splitlines()[0].startswith(csv_header)


@pytest.mark.parametrize(
    "argv, out, kind",
    [
        ([*TRANSITIONS, "--out"], "{dir}/missing/t.csv", "report"),
        (["perturb-check", "--bz-steps", "2", "--bx-steps", "2", "--out"], "{dir}/missing/p.json",
         "report"),
        ([*FIT, "{dir}/one.csv", *FIXED, "--out"], "{dir}", "report"),
        (["synth", "--isotope", "n14", *PRESET, "--bz", "470", "--out"], "{dir}", "measurement"),
        (["ramsey", "--isotope", "n14", *PRESET, "--bz", "470", "--trace-out"],
         "{dir}/missing/trace.csv", "trace"),
    ],
    ids=["transitions", "perturb-check", "fit", "synth", "ramsey-trace-out"],
)
def test_a_refused_output_path_ends_in_one_error_line(report_inputs, capsys, argv, out, kind):
    # A missing directory or a directory as the file: exit 2 with one line
    # that names the path.  Nothing is written, and nothing is printed: a
    # trace that cannot be written leaves ramsey without a report.
    before = sorted(report_inputs.iterdir())
    out = out.format(dir=report_inputs)
    assert main([*(a.format(dir=report_inputs) for a in argv), out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: cannot write {kind} file {out!r}: ")
    assert sorted(report_inputs.iterdir()) == before


def test_perturb_check_passes_and_trips(capsys):
    code, out = run(capsys, "perturb-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    worst = max(
        row["max_residual_hz"]
        for iso in payload["isotopes"].values()
        for row in iso.values()
    )
    assert worst < 20.0
    # an absurdly tight tolerance trips the wire (exit 5)
    code, out = run(capsys, "perturb-check", "--tolerance-hz", "0.001")
    assert code == 5
    # grid crossing the anti-crossing is a config error (exit 2)
    code, _ = run(capsys, "perturb-check", "--bz-max", "1024", "--bz-steps", "3")
    assert code == 2


@pytest.mark.parametrize("flag", ["--bz-steps", "--bx-steps"])
def test_perturb_check_refuses_empty_grid(capsys, flag):
    code, out = run(capsys, "perturb-check", flag, "0")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["perturb-check", "--isotope", "n14", "--params", "odd.json", "--format", "csv"],
        ["synth", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470", "--bx", "5"],
        ["synth", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470", "--temp", "77"],
        ["synth", "--isotope", "n14", "--bz", "470"],
        ["ramsey", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470", "--format", "csv"],
        *(argv for argv, _ in REFUSED.values()),
    ],
)
def test_flags_a_command_does_not_read_are_refused(bad_inputs, capsys, argv):
    out = bad_inputs / "out"
    assert main([a.format(dir=bad_inputs) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_synth_deterministic_and_fit_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "synth", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--temps", "297", "--seed", "11",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    noiseless = tmp_path / "clean.csv"
    assert main(
        ["synth", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
         "--temps", "297", "--noise-scale", "0", "--out", str(noiseless)]
    ) == 0
    capsys.readouterr()
    code, out = run(
        capsys,
        "fit", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--measurements", str(noiseless), "--fix", "gamma_e_bx",
    )
    assert code == 0
    rec = json.loads(out)["results"][0]
    assert rec["params"]["q"] == pytest.approx(-4945.88, abs=0.02)
    assert rec["unresolved"] == []


def test_synth_writes_the_sigma_of_the_noise_it_draws(tmp_path):
    # --noise-scale k draws k sigma of noise and writes k sigma, so a fit's
    # chi^2 stays calibrated; noiseless lines (k = 0) keep the unscaled sigma.
    sigmas = {}
    for k in ("0", "1", "3"):
        out = tmp_path / f"k{k}.csv"
        assert main([*SYNTH, "--temps", "297", "--noise-scale", k, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        sigmas[k] = {label: sigma for _, label, _, sigma in rows}
    assert sigmas["3"]["f1"] == "0.030000" and sigmas["1"]["f1"] == "0.010000"
    assert sigmas["0"] == sigmas["1"]
    assert sigmas["3"] == {label: f"{3 * float(s):.6f}" for label, s in sigmas["1"].items()}


def test_fit_reports_each_fits_evaluation_count(report_inputs, capsys):
    # n_evals is FitResult.n_evals: the forward evaluations each fit made.
    series = report_inputs / "series.csv"
    code, out = run(capsys, *FIT, str(series), *FIXED)
    assert code == 0
    guess = ParamVector.from_physical("N14", params_at(N14, 297.0), FieldConfig(bz=470.0))
    counts = [
        extract_params(ms, guess, fixed=("gamma_e_bx",)).n_evals
        for ms in read_measurements(series, N14)
    ]
    assert [rec["n_evals"] for rec in json.loads(out)["results"]] == counts
    assert min(counts) > 0


def test_fit_holds_and_reports_an_unresolved_field(report_inputs, capsys):
    # On axis the lines are even in Bx: without --fix, every record holds
    # gamma_e_bx at its guess (0) and lists it; CSV says so once, after the
    # header, and only when a field is held.
    series = str(report_inputs / "series.csv")
    code, out = run(capsys, *FIT, series)
    assert code == 0
    results = json.loads(out)["results"]
    assert [rec["unresolved"] for rec in results] == [["gamma_e_bx"]] * 5
    assert all(rec["params"]["gamma_e_bx"] == 0 for rec in results)
    code, out = run(capsys, *FIT, series, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["temperature_K,param,value", "# unresolved=gamma_e_bx"]
    assert sum(line.startswith("#") for line in lines) == 1
    code, out = run(capsys, *FIT, series, *FIXED, "--format", "csv")
    assert code == 0
    assert not any(line.startswith("#") for line in out.splitlines())


def test_fit_holds_a_gamma_ratio_whose_square_overflows(report_inputs, tmp_path, capsys):
    # gamma_n = 1e-300 passes the --params check (gamma_e/gamma_n, 2.8e303,
    # is finite), but the Jacobian's chain rule divides by gamma_ratio
    # squared, which overflows to inf: the lines are flat in gamma_ratio, so
    # the fit holds it at the guess and reports it, with no traceback.
    params = tmp_path / "tiny_gamma_n.json"
    params.write_text(json.dumps(
        {"d": 2870.28e3, "q": -4945.88, "a_par": -2165.19, "a_perp": -2635.0, "gamma_n": 1e-300}
    ))
    code = main(["fit", "--isotope", "n14", "--params", str(params), "--bz", "470",
                 "--measurements", str(report_inputs / "one.csv"), *FIXED])
    captured = capsys.readouterr()
    # The fit is meaningless, and says so in one warning line.
    assert code == 0 and captured.err.startswith("warning: T = 297.0 K: ")
    assert captured.err.count("\n") == 1
    (rec,) = json.loads(captured.out)["results"]
    assert rec["unresolved"] == ["gamma_ratio"]
    assert rec["params"]["gamma_ratio"] == pytest.approx(GAMMA_E_KHZ_PER_G / 1e-300, rel=1e-4)
    # Its thermal model has a finite value but an overflowing residual rms:
    # refused in one line that names it, not in the JSON writer's words.
    code = main(["fit", "--isotope", "n14", "--params", str(params), "--bz", "470",
                 "--measurements", str(report_inputs / "series.csv"), *FIXED, "--thermal"])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: the gamma_ratio thermal model is not finite: at 297 K its value")
    assert err.endswith("its residual rms is inf\n")


README_TEMPS = "77,107,137,167,197,227,257,287,317,347,377,400"


def test_fit_warns_when_its_chi2_is_improbable(tmp_path, capsys):
    # gamma_n = 1e-300 on the README's series: gamma_e/gamma_n is held, as
    # the lines are flat in it, so each fit resolves 5 directions from 8
    # lines and ends at a chi^2 of about 1.4e11.  The command still exits 0,
    # but each temperature gets one warning line that names it.
    series, params = tmp_path / "series.csv", tmp_path / "p.json"
    assert main([*SYNTH, "--temps", README_TEMPS, "--noise-scale", "0", "--out", str(series)]) == 0
    params.write_text(json.dumps(
        {"d": 2870280, "q": -4945.88, "a_par": -2165.19, "a_perp": -2635, "gamma_n": 1e-300}
    ))
    capsys.readouterr()
    code = main(["fit", "--isotope", "n14", "--params", str(params), "--bz", "470",
                 "--measurements", str(series), *FIXED])
    captured = capsys.readouterr()
    assert code == 0
    results = json.loads(captured.out)["results"]
    assert [(rec["dof"], rec["tail_probability"]) for rec in results] == [(3, 0.0)] * 12
    assert all(1.3e11 < rec["objective"] < 1.4e11 for rec in results)
    warnings = captured.err.splitlines()
    assert len(warnings) == 12
    for line, rec in zip(warnings, results):
        assert line.startswith(f"warning: T = {rec['temperature_K']} K: chi^2 ")


def test_fit_reports_dof_and_tail_probability(report_inputs, tmp_path, capsys):
    # N14 with gamma_e_bx fixed: 8 lines, 6 resolved directions.  Noiseless
    # lines fit to a chi^2 near 0, whose tail probability is near 1.  15NV
    # on axis: 5 lines resolve its 5 other fields, so 0 dof and no
    # probability (null), and no warning either.
    code, out = run(capsys, *FIT, str(report_inputs / "series.csv"), *FIXED)
    assert code == 0 and capsys.readouterr().err == ""
    for rec in json.loads(out)["results"]:
        assert rec["dof"] == 2
        assert rec["tail_probability"] == optimize.chi2_tail(rec["objective"], 2)
        assert rec["tail_probability"] > 1 - FALSE_ALARM_PROBABILITY
    series15 = tmp_path / "series15.csv"
    assert main(["synth", "--isotope", "n15", *PRESET, "--bz", "470", "--temps", "77,297",
                 "--noise-scale", "0", "--out", str(series15)]) == 0
    capsys.readouterr()
    code = main(["fit", "--isotope", "n15", *PRESET, "--bz", "470", "--measurements", str(series15)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    results = json.loads(captured.out)["results"]
    assert [(rec["dof"], rec["tail_probability"]) for rec in results] == [(0, None)] * 2


def test_thermal_command_recovers_fractional_derivative(tmp_path, capsys):
    data = tmp_path / "series.csv"
    temps = ",".join(str(t) for t in np.linspace(77, 400, 12))
    assert main(
        ["synth", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
         "--temps", temps, "--noise-scale", "0", "--out", str(data)]
    ) == 0
    capsys.readouterr()
    code, out = run(
        capsys,
        "fit", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--measurements", str(data), "--fix", "gamma_e_bx", "--thermal",
    )
    assert code == 0
    thermal = json.loads(out)["thermal"]
    assert thermal["d"]["fractional_ppm_per_k"] == pytest.approx(-25.3, rel=0.02)
    assert thermal["q"]["fractional_ppm_per_k"] == pytest.approx(-7.17, rel=0.02)
    # kHz models keep their unit in their keys; gamma_ratio is dimensionless.
    khz_keys = ["value_khz", "derivative_hz_per_k", "fractional_ppm_per_k",
                "second_derivative_hz_per_k2", "coeffs", "residual_rms_khz"]
    for name in ("d", "q", "a_par", "a_perp"):
        assert list(thermal[name]) == khz_keys
    assert list(thermal["gamma_ratio"]) == [
        "value", "derivative_per_k", "fractional_ppm_per_k", "second_derivative_per_k2",
        "coeffs", "residual_rms",
    ]
    ratio = GAMMA_E_KHZ_PER_G / N14.gamma_n
    assert thermal["gamma_ratio"]["value"] == pytest.approx(ratio, rel=1e-6)
    assert abs(thermal["gamma_ratio"]["derivative_per_k"]) < 1e-5


def test_angular_scan(capsys):
    code, out = run(
        capsys,
        "angular-scan", "--isotope", "n15", "--preset", "table1_297K", "--bz", "480",
        "--theta-max-deg", "0.1", "--steps", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["transition"] == "f7"
    assert payload["beta_perturbative"] == pytest.approx(460.0, abs=5.0)
    shift_hz = 1e3 * (payload["rows"][-1]["f_khz"] - payload["rows"][0]["f_khz"])
    assert shift_hz == pytest.approx(130.0, rel=0.15)
    assert payload["rows"][0]["fractional_shift"] == 0.0
    # theta = 0.1 deg moves f7 by roughly 600 ppm
    assert payload["rows"][-1]["fractional_shift"] == pytest.approx(6e-4, rel=0.1)

    code, _ = run(
        capsys,
        "angular-scan", "--isotope", "n14", "--preset", "table1_297K", "--bz", "480",
        "--theta-max-deg", "3.0",
    )
    assert code == 2


def test_angular_scan_beta_row_n14(capsys):
    code, out = run(
        capsys,
        "angular-scan", "--isotope", "n14", "--preset", "table1_297K", "--bz", "480",
        "--theta-max-deg", "0.1", "--steps", "2",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert "beta_perturbative=-9.9" in header


def test_ramsey_end_to_end(capsys):
    code, out = run(
        capsys,
        "ramsey", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--transition", "f1", "--detune-khz", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["recovery_error_hz"]) < 2.0
    assert payload["f_rf_khz"] == pytest.approx(payload["f_true_khz"] + 4.0)


def test_ramsey_takes_the_polar_field(capsys):
    code, out = run(capsys, *RAMSEY, "--b", "480", "--theta-deg", "0.5")
    assert code == 0
    field = FieldConfig.from_polar(480.0, math.radians(0.5))
    f1 = float(transition_set(params_at(N14), field, N14)["f1"])
    assert json.loads(out)["f_true_khz"] == round(f1, 6)


def test_ramsey_trace_file_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out = run(
        capsys,
        "ramsey", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--transition", "f1", "--detune-khz", "4", "--trace-out", str(trace_path),
    )
    assert code == 0
    f_rf = json.loads(out)["f_rf_khz"]
    code, out = run(
        capsys, "ramsey-fit", "--trace-in", str(trace_path), "--f-rf-khz", str(f_rf),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_fit_khz"] == pytest.approx(4.0, abs=1e-3)


def test_ramsey_trace_file_keeps_noise_sigma(tmp_path, capsys):
    # The trace file carries the trace's noise_sigma; a file without the
    # line reads as 0.0, and other comment lines are skipped.
    trace_path = tmp_path / "trace.csv"
    argv = [*RAMSEY, "--bz", "470", "--noise-sigma", "0.02", "--trace-out", str(trace_path)]
    code, out = run(capsys, *argv)
    assert code == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["tau_s,signal", "# noise_sigma=0.02"]
    assert read_trace(trace_path).noise_sigma == 0.02
    f_rf = json.loads(out)["f_rf_khz"]
    code, fit = run(capsys, "ramsey-fit", "--trace-in", str(trace_path), "--f-rf-khz", str(f_rf))
    assert code == 0
    # The file holds 12 significant digits, so the refit moves by about 1e-9 kHz.
    assert json.loads(fit)["delta_fit_khz"] == pytest.approx(json.loads(out)["delta_fit_khz"], abs=1e-6)
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(["# written by hand", lines[0], "# no noise_sigma", *lines[2:]]))
    back = read_trace(bare)
    assert back.noise_sigma == 0.0
    assert np.array_equal(back.signal, read_trace(trace_path).signal)


def test_ramsey_trace_in_needs_no_isotope(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, np.linspace(0.0, 2e-3, 200)))
    code, out = run(capsys, "ramsey-fit", "--trace-in", str(trace_path), "--f-rf-khz", "100")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["config"]) == ["command", "f_rf_khz", "out", "sign", "trace_in"]
    assert payload["f_recovered_khz"] == pytest.approx(97.0, abs=1e-3)


def test_ramsey_synthesis_without_isotope_is_a_config_error(capsys):
    code = main(["ramsey", "--preset", "table1_297K", "--bz", "470"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the following arguments are required: --isotope\n"


def test_closed_stdout_ends_quietly():
    # The reader has gone before the report is written: exit 0, no traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = [str(Path(nvground.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "nvground.cli", *TRANSITIONS]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_ramsey_flat_trace_is_a_config_error(tmp_path, capsys):
    trace_path = tmp_path / "flat.csv"
    write_trace(trace_path, RamseyTrace(times=np.linspace(0.0, 1e-3, 100), signal=np.ones(100)))
    code = main(["ramsey-fit", "--trace-in", str(trace_path), "--f-rf-khz", "100"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("error:") == 1


def test_measurement_csv_roundtrip(tmp_path):
    rows = [
        MeasurementRow(297.0, "f1", 5085.123456789012, 0.01),
        MeasurementRow(297.0, "fplus_+1", 4185667.123456, 2.0),
        MeasurementRow(300.5, "f2", 4799.65, 0.01),
    ]
    path = tmp_path / "m.csv"
    write_measurements(path, rows)
    sets = read_measurements(path, N14)
    assert [s.temperature for s in sets] == [297.0, 300.5]
    assert sets[0].entries[0].freq_khz == pytest.approx(5085.123456789012, abs=5e-7)
    assert sets[0].entries[1].label == "fplus_+1"


def test_measurement_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("temperature_K,transition,freq_khz,sigma_khz\n297,f77,5.0,0.1\n")
    with pytest.raises(ValueError):
        read_measurements(path, N14)
    path.write_text("temperature_K,transition,freq_khz,sigma_khz\n297,f1,5.0,-0.1\n")
    with pytest.raises(ValueError):
        read_measurements(path, N14)
    path.write_text("temperature_K,transition,freq_khz,sigma_khz\n297,f1,nan,0.1\n")
    with pytest.raises(ValueError, match="finite"):
        read_measurements(path, N14)
    path.write_text(
        "temperature_K,transition,freq_khz,sigma_khz\n297,f1,5.0,0.1\n77,f1,5.1,0.1\n297,f1,5.2,0.1\n"
    )
    with pytest.raises(ValueError, match="^line 4: f1 is listed twice at 297.0 K$"):
        read_measurements(path, N14)
    # Comment and blank lines count: errors name the file's line.
    path.write_text(
        "temperature_K,transition,freq_khz,sigma_khz\n297,f1,5.0,0.1\n# comment\n\n297,f77,5.0,0.1\n"
    )
    with pytest.raises(ValueError, match="^line 5: unknown transition 'f77' for N14$"):
        read_measurements(path, N14)
    # An indented comment is a comment, as in a trace file.
    path.write_text(
        "temperature_K,transition,freq_khz,sigma_khz\n297,f1,5.0,0.1\n  # comment\n297,f77,5.0,0.1\n"
    )
    with pytest.raises(ValueError, match="^line 4: unknown transition 'f77' for N14$"):
        read_measurements(path, N14)
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError):
        read_measurements(path, N14)


GOOD_ROW = {"measurement": "297,f1,5.0,0.1", "trace": "0.0,1.0"}
HEADER = {"measurement": MEASUREMENT_HEADER, "trace": TRACE_HEADER}
# Each CSV format's refusals, in the one ConfigError line the CLI prints:
# (format, file text or None for no file, the whole message).
CSV_CASES = [
    *[(kind, None, rf"cannot read {kind} file: \[Errno 2\] No such file or directory: .*")
      for kind in HEADER],
    *[(kind, f"wrong,header\n{GOOD_ROW[kind]}\n",
       re.escape(f"{kind} file must start with header {HEADER[kind]!r}")) for kind in HEADER],
    ("measurement", f"{MEASUREMENT_HEADER}\n297,f1,5.0\n", "line 2: expected 4 comma-separated fields"),
    ("trace", f"{TRACE_HEADER}\n0.0,1.0,2.0\n", "line 2: expected 2 comma-separated fields"),
    ("measurement", f"{MEASUREMENT_HEADER}\n297,f1,abc,0.1\n",
     "line 2: could not convert string to float: 'abc'"),
    ("trace", f"{TRACE_HEADER}\n0.0,abc\n", "line 2: could not convert string to float: 'abc'"),
    # Blank and # lines, indented or not, before and after the header, are
    # skipped, and still counted in the line numbers.
    *[(kind, f"\n  # by hand\n{HEADER[kind]}\n{GOOD_ROW[kind]}\n\n   # gap\n#\n1,2,3,4,5\n",
       f"line 8: expected {HEADER[kind].count(',') + 1} comma-separated fields") for kind in HEADER],
    ("measurement", f"{MEASUREMENT_HEADER}\n297,f1,5.0,0\n", "line 2: sigma for f1 must be positive"),
    ("measurement", f"{MEASUREMENT_HEADER}\n297,f1,nan,0.1\n",
     "line 2: frequency and sigma for f1 must be finite"),
]


@pytest.mark.parametrize(
    "kind, text, message", CSV_CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CSV_CASES)]
)
def test_csv_formats_share_their_conventions(tmp_path, kind, text, message):
    path = tmp_path / "in.csv"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        read_measurements(path, N14) if kind == "measurement" else read_trace(path)


def test_trace_csv_roundtrip_precision(tmp_path):
    times = np.linspace(0.0, 2e-3, 50)
    trace = synthesize(3.123456789, 1e-3, 0.5, 0.1, 1.0, times, noise_sigma=0.01, rng_seed=2)
    path = tmp_path / "t.csv"
    write_trace(path, trace)
    back = read_trace(path)
    # 12 significant digits survive the round trip
    assert np.max(np.abs(back.signal - trace.signal)) < 1e-11
    assert np.max(np.abs(back.times - trace.times)) < 1e-14
