"""Each output check passes real results and counts corrupted ones as failed ops.

A zero fail_ratio means something only if the checks can fail: every test
here feeds one good and one corrupted result through run.judge, the
function that produces the failure count.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from nvground import extraction

ROOT = Path(__file__).resolve().parents[2]


def judged(w, *records):
    return run.judge(w, [workloads.OpResult(0.0, r) for r in records])


def _fit_record(tmp_path, k):
    w = workloads.ThermalFit(7, tmp_path)
    series = w.make_unit(k)
    temp = series.rows[0].temperature
    entries = tuple(
        extraction.MeasurementEntry(r.label, r.freq_khz, r.sigma_khz)
        for r in series.rows
        if r.temperature == temp
    )
    ms = extraction.MeasurementSet(temp, series.iso, entries)
    fit = extraction.extract_params(ms, series.guess, fixed=workloads.THERMAL_FIXED)
    return w, workloads.FitRecord(series, ms, fit, None)


@pytest.mark.parametrize("k", [0, 1])
def test_chi2_check(tmp_path, k):
    w, good = _fit_record(tmp_path, k)
    values = good.fit.params.as_array()
    values[good.fit.params.fields().index("a_par")] += 1.0  # kHz, ten RF sigmas or more
    shifted = good.fit.params.with_array(values)
    bad = dataclasses.replace(good, fit=dataclasses.replace(good.fit, params=shifted))
    raised = dataclasses.replace(good, fit=None, error="FitConvergenceError: no")
    failures = judged(w, good, bad, raised)
    assert [f["op"] for f in failures] == [1, 2]
    assert "above truth" in failures[0]["problem"]


def test_chi2_check_accepts_the_truth_itself(tmp_path):
    w, good = _fit_record(tmp_path, 1)
    truth = good.series.truths[good.ms.temperature]
    at_truth = dataclasses.replace(good, fit=dataclasses.replace(good.fit, params=truth))
    assert judged(w, at_truth) == []


@pytest.fixture(scope="module")
def survey(tmp_path_factory):
    w = workloads.Lines(11, tmp_path_factory.mktemp("lines"))
    (result,) = w.run_unit(w.make_unit(0), lambda: None)
    return w, result.record


def _corrupt(tmp_path, rec, stem, edit):
    """Copy the survey's outputs, apply ``edit`` to one payload, return the record."""
    rec = copy.deepcopy(rec)
    argvs = {}
    for path, argv in rec.survey.argvs.items():
        new = tmp_path / Path(path).name
        shutil.copy(path, new)
        if stem in new.name:
            payload = json.loads(new.read_text())
            edit(payload)
            new.write_text(json.dumps(payload))
        argvs[str(new)] = argv
    rec.survey.argvs = argvs
    return rec


def _bump_row(label, key, delta):
    def edit(payload):
        for row in payload["rows"]:
            if row.get("transition") == label:
                row[key] += delta
    return edit


def _bump_last_angle(payload):
    payload["rows"][-1]["f_khz"] += 1e-5


def _fail_perturb(payload):
    payload["pass"] = False


@pytest.mark.parametrize(
    "stem,edit",
    [
        ("transitions-n14", _bump_row("f3", "freq_khz", 1e-4)),
        ("transitions-n15", _bump_row("f7", "freq_khz", 1e-4)),
        ("transitions-n14", _bump_row("f1-f2", "df_dt_hz_per_k", 0.01)),
        ("perturb-check", _fail_perturb),
        ("angular-n14", _bump_last_angle),
        ("angular-n15", _bump_last_angle),
    ],
)
def test_line_checks(tmp_path, survey, stem, edit):
    w, good = survey
    bad = _corrupt(tmp_path, good, stem, edit)
    assert [f["op"] for f in judged(w, good, bad)] == [1]


def test_exit_code_check(survey):
    w, good = survey
    bad = dataclasses.replace(good, codes=[0, 0, 5, 0, 0])
    assert [f["problem"] for f in judged(w, good, bad)] == ["exit codes [0, 0, 5, 0, 0]"]


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_fringe_check(sigma):
    rng = np.random.default_rng(0)
    fr = workloads.Ramsey.make_fringe(0, 4.0, 0.7e-3, 1.0, sigma, 300, 5000.0, -1, rng=rng)
    w = workloads.Ramsey(0, Path("."))
    (result,) = w.run_unit(fr, lambda: None)
    good = result.record
    bound_khz = 1e-3 * workloads.delta_bound_hz(fr.delta_khz, fr.t2_s, fr.phase, sigma, 300)
    off_delta = dataclasses.replace(good, delta_fit_khz=fr.delta_khz + 1.01 * bound_khz)
    off_f = dataclasses.replace(good, f_recovered_khz=fr.f_true_khz - 1.01 * bound_khz)
    assert [f["op"] for f in judged(w, good, off_delta, off_f)] == [1, 2]


def test_fringe_bound_matches_criterion_9():
    bound = workloads.delta_bound_hz(3.0, 1e-3, 0.3, 0.025, 200)
    assert bound == pytest.approx(1.0 + 5 * 5.0)
    assert workloads.delta_bound_hz(3.0, 1e-3, 0.3, 0.0, 200) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ramsey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
