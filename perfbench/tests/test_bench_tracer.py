"""The tracer sees every call: all binding sites patched, counts match the program's."""

import json
from pathlib import Path

import numpy as np
import pytest

import tracer
import workloads
from nvground import cli, extraction

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _module_refs(mod):
    """Module-level names plus one level into module-level containers."""
    for attr, obj in vars(mod).items():
        yield f"{mod.__name__}.{attr}", obj
        if isinstance(obj, dict):
            items = obj.values()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            items = obj
        else:
            continue
        for item in items:
            yield f"{mod.__name__}.{attr}[...]", item


def test_every_binding_site_is_patched_and_restored():
    tr = tracer.Tracer()
    originals = {id(fn): qual for qual, fn in tr.functions.items()}
    with tr:
        for mod in tracer.package_modules():
            for where, obj in _module_refs(mod):
                assert id(obj) not in originals, f"{where} still binds the unwrapped function"
        # The sites a `from .x import y` creates, named explicitly.
        sites = {
            "transitions.transition_set": ("transitions", "extraction", "perturbation", "cli"),
            "optimize.nelder_mead": ("optimize", "extraction", "ramsey"),
        }
        mods = {m.__name__.rpartition(".")[2]: m for m in tracer.package_modules()}
        for qual, where in sites.items():
            for site in where:
                bound = getattr(mods[site], qual.split(".")[1])
                assert bound is tr.wrappers[qual], f"{site}.{qual} not patched"
    for mod in tracer.package_modules():
        for where, obj in _module_refs(mod):
            assert not getattr(obj, "__wrapped_by_tracer__", False), f"{where} not restored"


def test_every_per_layer_metric_is_computable(tmp_path):
    tr = tracer.Tracer()
    with tr:
        argv = ["perturb-check", "--bz-steps", "2", "--bx-steps", "2", "--out", str(tmp_path / "p.json")]
        assert cli.main(argv) == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    values = tracer.layer_metrics(tracer.Spans.from_tracer(tr), 1, 0.0, names)
    assert set(values) == set(names)
    assert values["perturbation.residuals_vs_exact.calls"] == 2


def test_fit_counts_match_the_program(tmp_path):
    w = workloads.ThermalFit(3, tmp_path)
    series = w.make_unit(1)
    temp = series.rows[0].temperature
    entries = tuple(
        extraction.MeasurementEntry(r.label, r.freq_khz, r.sigma_khz)
        for r in series.rows
        if r.temperature == temp
    )
    ms = extraction.MeasurementSet(temp, series.iso, entries)
    tr = tracer.Tracer()
    tr.op_id = 0
    with tr:
        fit = extraction.extract_params(ms, series.guess, fixed=workloads.THERMAL_FIXED)
    spans = tracer.Spans.from_tracer(tr)
    assert spans.calls("extraction.model_frequencies") == fit.n_evals + 1
    metrics = tracer.layer_metrics(
        spans, 1, 0.0,
        ["optimize.nelder_mead.evals", "optimize.nelder_mead.calls", "extraction.extract_params.restarts"],
    )
    assert metrics["optimize.nelder_mead.evals"] == fit.n_evals
    assert metrics["extraction.extract_params.restarts"] == metrics["optimize.nelder_mead.calls"] - 1
    assert set(np.unique(spans.op)) == {0}


@pytest.mark.parametrize("iso,steps", [("n14", 3), ("n15", 5)])
def test_jacobi_calls_per_angular_scan(tmp_path, iso, steps):
    argv = [
        "angular-scan", "--isotope", iso, "--preset", "table1_297K", "--bz", "480",
        "--steps", str(steps), "--format", "json", "--out", str(tmp_path / "scan.json"),
    ]
    tr = tracer.Tracer()
    with tr:
        assert cli.main(argv) == 0
    spans = tracer.Spans.from_tracer(tr)
    assert spans.calls("eigensolve.jacobi_eigh") == 2 * steps + 1
    assert spans.tags_of("cli.main") == ["angular-scan"]


def test_self_time_subtracts_child_spans():
    arrays = {
        "name_id": np.array([0, 1, 1], dtype=np.int32),
        "start": np.array([0, 10, 40], dtype=np.int64),
        "end": np.array([100, 30, 70], dtype=np.int64),
        "parent": np.array([-1, 0, 0], dtype=np.int32),
        "op": np.zeros(3, dtype=np.int32),
        "tag": np.full(3, -1, dtype=np.int32),
        "value": np.zeros(3, dtype=np.int64),
        "err": np.zeros(3, dtype=np.int8),
    }
    spans = tracer.Spans(["a.outer", "a.inner"], [""], arrays)
    assert spans.self_ns.tolist() == [50, 20, 30]
    assert spans.calls("a.inner") == 2
