"""Turn traced runs into the per-layer baseline table (medians and quartiles).

    python3 perfbench/baseline.py [perfbench/out/spans-*.npz ...]

Run the traced workloads first, for example

    for w in thermal-fit lines ramsey; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done

Every number comes from spans recorded inside the workloads, not from
separate microbenchmarks.  Durations are per call and include the
tracer's own cost; each run's overhead ratio is listed under the table.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def within(spans: tracer.Spans, outer: np.ndarray) -> np.ndarray:
    """Spans that have an ``outer`` span among their ancestors."""
    inside = np.zeros(len(outer), dtype=bool)
    cur = spans.parent.copy()
    while (live := cur >= 0).any():
        inside[live] |= outer[cur[live]]
        cur[live] = spans.parent[cur[live]]
    return inside


def rows(spans: tracer.Spans) -> list[tuple[str, str, np.ndarray]]:
    out = []
    for iso in ("N14", "N15"):
        ts = spans.mask("transitions.transition_set", f"{iso}/float64")
        if ts.any():
            out.append((f"`transition_set` {iso} float64", "µs", spans.dur[ts] / 1e3))
            inner = within(spans, ts)
            for name in ("spin_core.build_hamiltonian", "eigensolve.eigh", "transitions.label_states"):
                m = spans.mask(name) & inner
                out.append((f"  of which `{name.split('.')[1]}`", "µs", spans.dur[m] / 1e3))
    for iso in ("N14", "N15"):
        fits = spans.mask("extraction.extract_params", iso)
        if fits.any():
            nm = spans.mask("optimize.nelder_mead") & (spans.parent >= 0)
            nm &= fits[np.where(nm, spans.parent, 0)]
            evals = np.bincount(spans.parent[nm], weights=np.abs(spans.value[nm]), minlength=len(fits))
            out.append((f"`extract_params` {iso} fit", "ms", spans.dur[fits] / 1e6))
            out.append((f"  Nelder-Mead evaluations per {iso} fit", "count", evals[fits]))
    mf = spans.mask("extraction.model_frequencies")
    if mf.any():
        out.append(("`model_frequencies` (one objective evaluation)", "µs", spans.dur[mf] / 1e3))
    for tag in sorted(spans.tags_of("eigensolve.jacobi_eigh")):
        m = spans.mask("eigensolve.jacobi_eigh", tag)
        out.append((f"longdouble Jacobi `jacobi_eigh` {tag}", "ms", spans.dur[m] / 1e6))
    for command in sorted(spans.tags_of("cli.main")):
        m = spans.mask("cli.main", command)
        out.append((f"CLI `{command}` (in-process `cli.main`)", "ms", spans.dur[m] / 1e6))
        out.append(("  of which `cli.main` self (argparse, formatting)", "ms", spans.self_ns[m] / 1e6))
    ff = spans.mask("ramsey.fit_fringes")
    if ff.any():
        nm = spans.mask("optimize.nelder_mead") & within(spans, ff)
        out.append(("`fit_fringes`", "ms", spans.dur[ff] / 1e6))
        out.append(("  Nelder-Mead evaluations per fringe fit", "count", np.abs(spans.value[nm])))
    return out


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        paths = sorted((HERE / "out").glob("spans-*.npz"))
    if not paths:
        print("no traced runs found; run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 2
    print("| workload | layer | unit | median | q1 | q3 | n |")
    print("| -------- | ----- | ---- | -----: | -: | -: | -: |")
    notes = []
    for path in paths:
        spans, meta = tracer.Spans.load(path)
        run = meta["run"]
        notes.append(
            f"- `{path.name}`: {run['workload']}, seed {run['seed']}, {meta['ops']} ops, "
            f"tracer overhead {meta['overhead_ratio']:+.1%}, {meta['cpu']}, "
            f"Python {meta['python']}, numpy {meta['numpy']}"
        )
        for label, unit, values in rows(spans):
            if len(values):
                q1, med, q3 = np.percentile(values, [25, 50, 75])
                print(
                    f"| {run['workload']} | {label} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                    f"| {len(values)} |"
                )
    print()
    print("\n".join(notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
