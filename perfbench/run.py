"""nvground benchmark.

    python3 perfbench/run.py --workload {thermal-fit,lines,ramsey} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it prints the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it runs the ops a second time,
under the span tracer, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record (provenance, failing inputs, set-up
samples) goes to perfbench/out/, and the traced run's spans to
perfbench/out/spans-<workload>-seed<N>.npz for perfbench/baseline.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
# At least 100 ops per timed run, so that at least 10 lie beyond p90.
MIN_OPS = 100
PROBE_TIMEOUT_S = 60.0
# Past this much timed work a run stops even short of MIN_OPS, so that a
# much slower program still finishes inside the 180 s a run may take.
MAX_TIMED_S = 120.0


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(workload: str, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its warm-up op returning."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def loop(w, seconds: float, min_ops: int, between=None):
    """Closed loop over units until `seconds` of timed work and `min_ops` ops.

    Each unit's inputs are built before its clock starts.
    ``between(timed)`` runs untimed after each unit.
    """
    results, timed, k = [], 0.0, 0
    while (timed < seconds or len(results) < min_ops) and timed < MAX_TIMED_S:
        unit = w.make_unit(k)
        t0 = time.perf_counter()
        results += w.run_unit(unit, lambda: None)
        timed += time.perf_counter() - t0
        k += 1
        if between:
            between(timed)
    return results, timed


def judge(w, results):
    failures = []
    for i, r in enumerate(results):
        problem = w.check(r.record)
        if problem:
            failures.append({"op": i, "input": w.describe(r.record), "problem": problem})
    return failures


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def timed_run(w, seconds, workdir):
    # Set-up probes are spread over the run, between units, so that their
    # median does not hang on the machine's speed at one moment.
    setup = []

    def probe_due(timed):
        if len(setup) < SETUP_PROBES - 1 and timed >= len(setup) * seconds / (SETUP_PROBES - 1):
            setup.append(probe_setup(w.name, workdir))

    probe_due(0.0)
    w.warm_up()
    results, timed = loop(w, seconds, MIN_OPS, between=probe_due)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(w.name, workdir))
    setup.sort()
    failures = judge(w, results)
    lat_ms = [1e3 * r.latency_s for r in results]
    p90 = percentile(lat_ms, 90)
    metrics = {
        "setup_s": setup[len(setup) // 2],
        "ops_per_s": len(results) / timed,
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "ops": len(results),
        "timed_s": timed,
        "beyond_p90": sum(x > p90 for x in lat_ms),
        "fail_ratio": len(failures) / len(results),
        "setup_samples_s": setup,
        "latencies_ms": lat_ms,
    }
    return results, failures, metrics, extra


def traced_run(w, seconds, spans_path, meta, names):
    """Run each unit twice, plain and traced, in alternating order.

    Adjacent pairs see the same machine speed, so the summed time ratio
    measures the tracer's overhead.  Inputs are built before the tracer
    is installed, so that building them stays out of the trace.
    """
    import tracer

    plain_dir = w.workdir / "plain"
    plain_dir.mkdir()
    plain = type(w)(w.seed, plain_dir)
    w.warm_up()
    tr = tracer.Tracer()

    def begin_op():
        tr.op_id += 1

    results, plain_s, traced_s, k = [], 0.0, 0.0, 0
    while plain_s < seconds / 2 and plain_s < MAX_TIMED_S / 2:
        plain_unit, traced_unit = plain.make_unit(k), w.make_unit(k)
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                with tr:
                    t0 = time.perf_counter()
                    results += w.run_unit(traced_unit, begin_op)
                    traced_s += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                plain.run_unit(plain_unit, lambda: None)
                plain_s += time.perf_counter() - t0
        k += 1
    failures = judge(w, results)
    spans = tracer.Spans.from_tracer(tr)
    overhead = traced_s / plain_s - 1
    tr.save(spans_path, dict(meta, ops=len(results), overhead_ratio=overhead))
    values = tracer.layer_metrics(spans, len(results), overhead, names)
    extra = {"ops": len(results), "plain_s": plain_s, "traced_s": traced_s, "spans": len(spans.dur)}
    return results, failures, values, extra


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [wl["name"] for wl in spec["workloads"]])
    if not (SRC / "nvground" / "__init__.py").is_file():
        print(f"error: no nvground sources under {SRC}", file=sys.stderr)
        return 2
    threads = provenance.cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    prov = provenance.collect(
        ROOT, SRC / "nvground", threads,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            specs = spec["per_layer"]
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            results, failures, values, extra = traced_run(
                w, args.seconds, spans_path, prov, [m["name"] for m in specs]
            )
        else:
            results, failures, values, extra = timed_run(w, args.seconds, workdir)
            specs = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"result": result, "extra": extra, "failures": failures, "provenance": prov}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(results)}")
    for name, m in metrics.items():
        note = ""
        if name == "op_p90_ms":
            note = f"  ({extra['ops']} samples, {extra['beyond_p90']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh interpreters)"
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<42} {len(failures) / len(results):.6g} 1  ({len(failures)}/{len(results)})")
    for f in failures:
        print(f"  FAILED op {f['op']}: {f['input']}: {f['problem']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
