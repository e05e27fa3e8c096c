"""File formats: measurement CSV, Ramsey trace CSV, JSON reports.

Frequencies are serialized in fixed-point kHz with 6 decimals (1 mHz
granularity, finer than any quoted uncertainty); generic floats use 12
significant digits so CSV round trips are lossless at that precision.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .extraction import MeasurementEntry, MeasurementSet
from .ramsey import RamseyTrace
from .spin_core import IsotopeSpec

MEASUREMENT_HEADER = "temperature_K,transition,freq_khz,sigma_khz"
TRACE_HEADER = "tau_s,signal"
NOISE_SIGMA_PREFIX = "# noise_sigma="


class ConfigError(ValueError):
    """Bad configuration or unparseable input file (CLI exit code 2)."""


def fmt_khz(x: float) -> str:
    return f"{x:.6f}"


def fmt_g(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True, slots=True)
class MeasurementRow:
    """One line of a measurement CSV, as written by ``write_measurements``."""

    temperature: float
    label: str
    freq_khz: float
    sigma_khz: float


def _write_text(path: str | Path, kind: str, text: str) -> None:
    """The one writer of every output file: ``text`` and a final newline.  A
    path the OS refuses (a missing directory, a directory, no permission) is
    a ConfigError naming it, as a file that cannot be read is."""
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write {kind} file {str(path)!r}: {err.strerror or err}") from err


def write_measurements(path: str | Path, rows: list[MeasurementRow]) -> None:
    lines = [MEASUREMENT_HEADER]
    for r in rows:
        lines.append(
            f"{fmt_g(r.temperature)},{r.label},{fmt_khz(r.freq_khz)},{fmt_khz(r.sigma_khz)}"
        )
    _write_text(path, "measurement", "\n".join(lines))


def _read_csv(path: str | Path, kind: str, header: str, parse):
    """The conventions both CSV formats share: the file's stripped ``#``
    lines, and parse(fields) of each row after ``header``, taken lazily so
    that a file's errors come in its line order, each with its line number."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read {kind} file: {err}") from err
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)]
    rows = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0][1] != header:
        raise ConfigError(f"{kind} file must start with header {header!r}")
    return [ln for _, ln in lines if ln.startswith("#")], _parsed(rows[1:], header, parse)


def _parsed(rows, header: str, parse):
    width = header.count(",") + 1
    for n, line in rows:
        try:
            fields = line.split(",")
            if len(fields) != width:
                raise ValueError(f"expected {width} comma-separated fields")
            yield parse(fields)
        except ValueError as err:
            raise ConfigError(f"line {n}: {err}") from err


def read_measurements(path: str | Path, iso: IsotopeSpec) -> list[MeasurementSet]:
    """Parse a measurement CSV into per-temperature sets (ascending T)."""
    sets: dict[float, MeasurementSet] = {}

    def grow(fields) -> tuple[float, MeasurementSet]:
        # Each row grows its set through MeasurementSet's checks; labels are interned.
        temperature, label = float(fields[0]), sys.intern(fields[1].strip())
        entry = MeasurementEntry(label, float(fields[2]), float(fields[3]))
        earlier = sets[temperature].entries if temperature in sets else ()
        return temperature, MeasurementSet(temperature, iso, (*earlier, entry))

    for temperature, ms in _read_csv(path, "measurement", MEASUREMENT_HEADER, grow)[1]:
        sets[temperature] = ms
    return [sets[t] for t in sorted(sets)]


def write_trace(path: str | Path, trace: RamseyTrace) -> None:
    lines = [TRACE_HEADER, f"{NOISE_SIGMA_PREFIX}{fmt_g(trace.noise_sigma)}"]
    for t, s in zip(trace.times, trace.signal):
        lines.append(f"{fmt_g(t)},{fmt_g(s)}")
    _write_text(path, "trace", "\n".join(lines))


def read_trace(path: str | Path) -> RamseyTrace:
    """Parse a trace CSV; ``#`` lines are comments, except that one
    ``# noise_sigma=<value>`` line sets ``noise_sigma`` (0.0 without it)."""
    comments, rows = _read_csv(path, "trace", TRACE_HEADER, lambda f: (float(f[0]), float(f[1])))
    noise = [ln[len(NOISE_SIGMA_PREFIX):] for ln in comments if ln.startswith(NOISE_SIGMA_PREFIX)]
    if len(noise) > 1:
        raise ConfigError("trace file gives noise_sigma more than once")
    try:
        noise_sigma = float(noise[0]) if noise else 0.0
    except ValueError as err:
        raise ConfigError(f"bad noise_sigma: {err}") from err
    samples = list(rows)
    times, signal = np.array([t for t, _ in samples]), np.array([s for _, s in samples])
    try:
        return RamseyTrace(times=times, signal=signal, noise_sigma=noise_sigma)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def dump_json(payload: dict) -> str:
    """Serialize a report deterministically."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
