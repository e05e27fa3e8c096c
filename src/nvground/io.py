"""File formats: measurement CSV, Ramsey trace CSV, JSON reports.

Frequencies are serialized in fixed-point kHz with 6 decimals (1 mHz
granularity, finer than any quoted uncertainty); generic floats use 12
significant digits so CSV round trips are lossless at that precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .extraction import MeasurementEntry, MeasurementSet
from .ramsey import RamseyTrace
from .spin_core import IsotopeSpec

MEASUREMENT_HEADER = "temperature_K,transition,freq_khz,sigma_khz"
TRACE_HEADER = "tau_s,signal"


class ConfigError(ValueError):
    """Bad configuration or unparseable input file (CLI exit code 2)."""


def fmt_khz(x: float) -> str:
    return f"{x:.6f}"


def fmt_g(x: float) -> str:
    return f"{x:.12g}"


@dataclass(frozen=True)
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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != MEASUREMENT_HEADER:
        raise ConfigError(
            f"measurement file must start with header {MEASUREMENT_HEADER!r}"
        )
    groups: dict[float, list[MeasurementEntry]] = {}
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"line {n}: expected 4 comma-separated fields")
        try:
            temperature = float(parts[0])
            entry = MeasurementEntry(parts[1].strip(), float(parts[2]), float(parts[3]))
            MeasurementSet(temperature, iso, (entry,))  # MeasurementSet's checks, per line
        except ValueError as err:
            raise ConfigError(f"line {n}: {err}") from err
        groups.setdefault(temperature, []).append(entry)
    return [
        MeasurementSet(temperature=t, isotope=iso, entries=tuple(groups[t])) for t in sorted(groups)
    ]


def write_trace(path: str | Path, trace: RamseyTrace) -> None:
    lines = [TRACE_HEADER]
    for t, s in zip(trace.times, trace.signal):
        lines.append(f"{fmt_g(t)},{fmt_g(s)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path: str | Path) -> RamseyTrace:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read trace file: {err}") from err
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"trace file must start with header {TRACE_HEADER!r}")
    times, signal = [], []
    for n, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"line {n}: expected 2 comma-separated fields")
        try:
            times.append(float(parts[0]))
            signal.append(float(parts[1]))
        except ValueError as err:
            raise ConfigError(f"line {n}: {err}") from err
    try:
        return RamseyTrace(times=np.array(times), signal=np.array(signal))
    except ValueError as err:
        raise ConfigError(str(err)) from err


def dump_json(payload: dict) -> str:
    """Serialize a report deterministically."""
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False)
