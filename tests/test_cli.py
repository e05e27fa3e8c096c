import json

import numpy as np
import pytest

from nvground.cli import build_parser, main
from nvground.extraction import transition_table
from nvground.io import (
    MEASUREMENT_HEADER,
    MeasurementRow,
    read_measurements,
    read_trace,
    write_measurements,
    write_trace,
)
from nvground.presets import TABLE3, params_at, thermal_presets
from nvground.ramsey import RamseyTrace, synthesize
from nvground.spin_core import N14, FieldConfig, get_isotope
from nvground.transitions import known_labels, transition_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


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
    tbl = transition_table(thermal_presets(spec), temp, 470.0, spec)
    assert slopes == {label: round(slope, 6) for label, _, slope in tbl.rows}


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
    lines = transition_set(params_at(N14), FieldConfig(bz=470.0), N14)
    rows = [f"297,{l},{1e200 if l == 'f1' else float(lines[l])!r},0.01" for l in known_labels(N14)]
    (tmp_path / "huge.csv").write_text("\n".join([MEASUREMENT_HEADER, *rows]) + "\n")
    trace = synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, np.linspace(0.0, 2e-3, 200))
    write_trace(tmp_path / "huge_trace.csv", RamseyTrace(trace.times, 1e200 * trace.signal))
    write_trace(tmp_path / "flat.csv", RamseyTrace(np.linspace(0.0, 1e-3, 100), np.ones(100)))
    return tmp_path


PRESET = ("--preset", "table1_297K")
FIT = ("fit", "--isotope", "n14", *PRESET, "--bz", "470", "--measurements")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["transitions", "--isotope", "n14", "--bz", "470"], 2),
        (["transitions", "--isotope", "n14", "--preset", "nope", "--bz", "470"], 2),
        (["transitions", "--isotope", "n14", *PRESET, "--bz", "1022.8"], 3),
        ([*FIT, "{dir}/one.csv"], 2),
        ([*FIT, "{dir}/missing.csv"], 2),
        ([*FIT, "{dir}/huge.csv"], 4),
        (["ramsey", "--trace-in", "{dir}/huge_trace.csv", "--f-rf-khz", "100"], 4),
        (["ramsey", "--trace-in", "{dir}/flat.csv", "--f-rf-khz", "100"], 2),
        (["ramsey", *PRESET, "--bz", "470"], 2),
        (["angular-scan", "--isotope", "n15", *PRESET, "--bz", "0"], 2),
        (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "0"], 3),
        (["angular-scan", "--isotope", "n14", *PRESET, "--bz", "480", "--theta-max-deg", "3"], 2),
        (["perturb-check", "--tolerance-hz", "0.001"], 5),
        (["perturb-check", "--bz-max", "1024", "--bz-steps", "3"], 2),
        (["perturb-check", "--bz-steps", "0"], 2),
    ],
    ids=[
        "no-source", "unknown-preset", "gslac", "underdetermined-fit", "missing-file",
        "huge-f1", "huge-trace", "flat-trace", "ramsey-no-isotope", "n15-zero-field",
        "n14-zero-field", "wide-angle", "tripwire", "perturb-gslac", "empty-grid",
    ],
)
def test_failures_end_in_one_error_line(bad_inputs, capsys, argv, code):
    # Exit codes 2-5 with one stderr line, never a traceback or a warning
    # (the suite's filterwarnings turns a warning into an uncaught error).
    assert main([a.format(dir=bad_inputs) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


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
    ],
)
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
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
    assert rec["converged"] is True


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
        "thermal", "--isotope", "n14", "--preset", "table1_297K", "--bz", "470",
        "--measurements", str(data), "--fix", "gamma_e_bx",
    )
    assert code == 0
    thermal = json.loads(out)["thermal"]
    assert thermal["d"]["fractional_ppm_per_k"] == pytest.approx(-25.3, rel=0.02)
    assert thermal["q"]["fractional_ppm_per_k"] == pytest.approx(-7.17, rel=0.02)


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
        capsys, "ramsey", "--isotope", "n14", "--trace-in", str(trace_path),
        "--f-rf-khz", str(f_rf),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_fit_khz"] == pytest.approx(4.0, abs=1e-3)


def test_ramsey_trace_in_needs_no_isotope(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, np.linspace(0.0, 2e-3, 200)))
    code, out = run(capsys, "ramsey", "--trace-in", str(trace_path), "--f-rf-khz", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["isotope"] is None
    assert payload["f_recovered_khz"] == pytest.approx(97.0, abs=1e-3)


def test_ramsey_synthesis_without_isotope_is_a_config_error(capsys):
    code = main(["ramsey", "--preset", "table1_297K", "--bz", "470"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --isotope is required when synthesizing a trace\n"


def test_ramsey_flat_trace_is_a_config_error(tmp_path, capsys):
    trace_path = tmp_path / "flat.csv"
    write_trace(trace_path, RamseyTrace(times=np.linspace(0.0, 1e-3, 100), signal=np.ones(100)))
    code = main(
        ["ramsey", "--isotope", "n14", "--trace-in", str(trace_path), "--f-rf-khz", "100"]
    )
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
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError):
        read_measurements(path, N14)


def test_trace_csv_roundtrip_precision(tmp_path):
    times = np.linspace(0.0, 2e-3, 50)
    trace = synthesize(3.123456789, 1e-3, 0.5, 0.1, 1.0, times, noise_sigma=0.01, rng_seed=2)
    path = tmp_path / "t.csv"
    write_trace(path, trace)
    back = read_trace(path)
    # 12 significant digits survive the round trip
    assert np.max(np.abs(back.signal - trace.signal)) < 1e-11
    assert np.max(np.abs(back.times - trace.times)) < 1e-14
