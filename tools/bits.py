"""Print one SHA-256 per benchmark artifact, to show that a change keeps every bit.

    python3 tools/bits.py

Run from any directory; it loads nvground from src/ and the seeded inputs
from perfbench/workloads.py, and writes only to a temporary directory.  It
prints four lines, each an artifact's name and digest:

- thermal-fit, seeds 1 and 41 (one line each): every extract_params fit of
  units 0-15, each its params, objective, residuals, unresolved fields,
  iterations and n_evals, floats by float.hex, or its error text;
- lines, seed 1: the bytes of the five JSON reports of ops 0-49, with the
  temporary directory's name replaced by a fixed one;
- ramsey, seed 7: fit_fringes and frequency_from_detuning on traces 0-99.

A refactor that claims to keep the program's output prints the same four
digests on its parent and on itself.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from nvground import extraction, io, ramsey  # noqa: E402

THERMAL_SEEDS = (1, 41)
THERMAL_UNITS = range(16)
LINES_SEED, LINES_OPS = 1, range(50)
RAMSEY_SEED, RAMSEY_TRACES = 7, range(100)


def _floats(values) -> str:
    return ",".join(float(v).hex() for v in values)


def thermal_fits(seed: int, workdir: Path) -> str:
    w = workloads.ThermalFit(seed, workdir)
    digest = hashlib.sha256()
    for k in THERMAL_UNITS:
        s = w.make_unit(k)
        io.write_measurements(s.path, s.rows)
        for ms in io.read_measurements(s.path, s.iso):
            try:
                fit = extraction.extract_params(ms, s.guess, workloads.THERMAL_FIXED)
            except Exception as exc:
                text = f"{type(exc).__name__}: {exc}"
            else:
                text = "|".join([
                    _floats(fit.params.as_array()),
                    float(fit.objective).hex(),
                    ",".join(f"{label}={float(r).hex()}" for label, r in fit.residuals.items()),
                    ",".join(fit.unresolved),
                    str(fit.iterations),
                    str(fit.n_evals),
                ])
            digest.update(f"{k} {ms.temperature!r} {text}\n".encode())
    return digest.hexdigest()


def line_reports(workdir: Path) -> str:
    w = workloads.Lines(LINES_SEED, workdir)
    digest = hashlib.sha256()
    for k in LINES_OPS:
        s = w.make_unit(k)
        w.run_unit(s, lambda: None)
        for path in s.argvs:
            digest.update(Path(path).read_bytes().replace(str(workdir).encode(), b"<workdir>"))
    return digest.hexdigest()


def ramsey_fits(workdir: Path) -> str:
    w = workloads.Ramsey(RAMSEY_SEED, workdir)
    digest = hashlib.sha256()
    for k in RAMSEY_TRACES:
        fr = w.make_unit(k)
        fit = ramsey.fit_fringes(fr.trace)
        f = ramsey.frequency_from_detuning(fr.f_rf_khz, fit.delta_khz, fr.sign)
        values = (fit.delta_khz, fit.t2_star_s, fit.amplitude, fit.phase, fit.offset,
                  fit.rms_residual, f)
        digest.update(f"{k} {_floats(values)} {fit.iterations}\n".encode())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for seed in THERMAL_SEEDS:
            print(f"thermal-fit seed {seed} units 0-15  {thermal_fits(seed, workdir)}")
        print(f"lines seed {LINES_SEED} ops 0-49  {line_reports(workdir)}")
        print(f"ramsey seed {RAMSEY_SEED} traces 0-99  {ramsey_fits(workdir)}")


if __name__ == "__main__":
    main()
