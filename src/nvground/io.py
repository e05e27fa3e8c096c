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


def write_measurements(path: str | Path, rows: list[MeasurementRow]) -> None:
    lines = [MEASUREMENT_HEADER]
    for r in rows:
        lines.append(
            f"{fmt_g(r.temperature)},{r.label},{fmt_khz(r.freq_khz)},{fmt_khz(r.sigma_khz)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_measurements(path: str | Path, iso: IsotopeSpec) -> list[MeasurementSet]:
    """Parse a measurement CSV into per-temperature sets (ascending T)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read measurement file: {err}") from err
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0][1] != MEASUREMENT_HEADER:
        raise ConfigError(
            f"measurement file must start with header {MEASUREMENT_HEADER!r}"
        )
    sets: dict[float, MeasurementSet] = {}
    for n, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"line {n}: expected 4 comma-separated fields")
        try:
            temperature = float(parts[0])
            # One string per label name, however many rows name it.
            label = sys.intern(parts[1].strip())
            entry = MeasurementEntry(label, float(parts[2]), float(parts[3]))
            # Each line grows its temperature's set through MeasurementSet's checks.
            earlier = sets[temperature].entries if temperature in sets else ()
            sets[temperature] = MeasurementSet(temperature, iso, (*earlier, entry))
        except ValueError as err:
            raise ConfigError(f"line {n}: {err}") from err
    return [sets[t] for t in sorted(sets)]


def write_trace(path: str | Path, trace: RamseyTrace) -> None:
    lines = [TRACE_HEADER, f"{NOISE_SIGMA_PREFIX}{fmt_g(trace.noise_sigma)}"]
    for t, s in zip(trace.times, trace.signal):
        lines.append(f"{fmt_g(t)},{fmt_g(s)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> RamseyTrace:
    """Parse a trace CSV; ``#`` lines are comments, except that one
    ``# noise_sigma=<value>`` line sets ``noise_sigma`` (0.0 without it)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read trace file: {err}") from err
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    noise = [ln[len(NOISE_SIGMA_PREFIX):] for _, ln in lines if ln.startswith(NOISE_SIGMA_PREFIX)]
    lines = [(n, ln) for n, ln in lines if not ln.startswith("#")]
    if not lines or lines[0][1] != TRACE_HEADER:
        raise ConfigError(f"trace file must start with header {TRACE_HEADER!r}")
    if len(noise) > 1:
        raise ConfigError("trace file gives noise_sigma more than once")
    try:
        noise_sigma = float(noise[0]) if noise else 0.0
    except ValueError as err:
        raise ConfigError(f"bad noise_sigma: {err}") from err
    times, signal = [], []
    for n, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"line {n}: expected 2 comma-separated fields")
        try:
            times.append(float(parts[0]))
            signal.append(float(parts[1]))
        except ValueError as err:
            raise ConfigError(f"line {n}: {err}") from err
    try:
        return RamseyTrace(times=np.array(times), signal=np.array(signal), noise_sigma=noise_sigma)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def dump_json(payload: dict) -> str:
    """Serialize a report deterministically."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
