"""Every recorded benchmark run (the root BENCH_*.json files) is a correct,
complete run of a workload that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_run_is_correct_and_complete(path):
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    assert runs
    for i, run in enumerate(runs):
        where = f"{path.name} run {i}"
        assert run["workload"] in workloads, where
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, where
        metrics = result["metrics"]
        for name, unit in units.items():
            assert metrics[name]["unit"] == unit, f"{where}: {name}"
            assert isinstance(metrics[name]["value"], (int, float)), f"{where}: {name}"
