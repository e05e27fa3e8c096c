"""Ramsey fringe synthesis and detuning extraction.

A two-pulse free-precession signal oscillates at the detuning of the
drive from the true transition, delta = f_rf - f, damped on the T2*
scale.  Fitting the fringes therefore measures |delta|; the caller
resolves the sign, e.g. by stepping f_rf and watching the fitted delta
move.  The fit starts from the trace's FFT peak, and that start refuses
a trace it cannot resolve.  Detunings are kHz, times are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import FitConvergenceError, nelder_mead

# Signal model: offset + amp * exp(-tau/T2*) * cos(2 pi delta tau + phase)


class NonIdentifiableTraceError(ValueError):
    """The trace carries no resolvable oscillation."""


class UndersampledTraceError(ValueError):
    """Sampling too sparse (or span too short) for the expected detuning."""


def _require_noise_sigma(noise_sigma: float) -> None:
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, not {noise_sigma!r}")


@dataclass(frozen=True, slots=True)
class RamseyTrace:
    times: np.ndarray  # seconds, strictly increasing
    signal: np.ndarray  # fluorescence contrast, dimensionless
    noise_sigma: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.signal, dtype=float)
        if t.ndim != 1 or t.shape != s.shape:
            raise ValueError("times and signal must be 1-d arrays of equal length")
        if t.size < 2:
            raise ValueError(f"a Ramsey trace needs at least 2 samples, not {t.size}")
        if not np.all(np.isfinite(t)):  # a NaN time passes the increasing check
            raise ValueError("times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(s)):
            raise ValueError("signal must be finite")
        _require_noise_sigma(self.noise_sigma)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "signal", s)


@dataclass(frozen=True, slots=True)
class RamseyFit:
    delta_khz: float
    t2_star_s: float
    amplitude: float
    phase: float
    offset: float
    rms_residual: float
    iterations: int

    def __post_init__(self):
        if self.t2_star_s <= 0:
            raise ValueError("T2* must be positive")


def _model(times: np.ndarray, delta_khz, t2_star, amp, phase, offset) -> np.ndarray:
    # T2* = inf gives exp(-0.0) = 1.0 exactly: an undamped trace
    decay = np.exp(-times / t2_star)
    return offset + amp * decay * np.cos(2 * math.pi * (delta_khz * 1e3) * times + phase)


def synthesize(
    delta_khz: float,
    t2_star_s: float,
    amp: float,
    phase: float,
    offset: float,
    times,
    noise_sigma: float = 0.0,
    rng_seed: int = 0,
) -> RamseyTrace:
    """Seeded synthetic fringe trace; identical seeds give identical traces."""
    if not t2_star_s > 0:  # NaN too
        raise ValueError("T2* must be positive")
    _require_noise_sigma(noise_sigma)
    times = np.asarray(times, dtype=float)
    signal = _model(times, delta_khz, t2_star_s, amp, phase, offset)
    if noise_sigma:
        rng = np.random.default_rng(rng_seed)
        signal = signal + rng.normal(scale=noise_sigma, size=times.shape)
    return RamseyTrace(times=times, signal=signal, noise_sigma=noise_sigma)


def initial_guess(trace: RamseyTrace) -> np.ndarray:
    """FFT-peak start (delta kHz, T2* s, amp, phase, offset) for the fringe fit.

    Refuses a trace it cannot resolve, in this order: one with no dominant
    spectral peak (NonIdentifiableTraceError), then one whose span holds
    fewer than 3 periods at the peak's detuning or whose median spacing
    gives fewer than 4 samples per period (UndersampledTraceError).
    """
    t, s = trace.times, trace.signal
    offset = float(np.mean(s))
    dt = float(np.median(np.diff(t)))
    spectrum = np.fft.rfft(s - offset)
    mags = np.abs(spectrum)
    mags[0] = 0.0
    peak = int(np.argmax(mags))
    floor = float(np.median(np.delete(mags, peak)))
    if peak == 0 or mags[peak] <= max(3.0 * floor, 1e-12 * (1 + abs(offset))):
        raise NonIdentifiableTraceError("no dominant oscillation peak in the trace spectrum")
    delta_khz = float(np.fft.rfftfreq(len(t), d=dt)[peak] / 1e3)
    f_hz = delta_khz * 1e3
    span = float(t[-1] - t[0])
    if span * f_hz < 3.0:
        raise UndersampledTraceError(
            f"trace spans {span * f_hz:.2f} periods at {delta_khz:.6g} kHz; need >= 3"
        )
    if dt > 1.0 / (4.0 * f_hz):
        raise UndersampledTraceError(f"fewer than 4 samples per period at {delta_khz:.6g} kHz")
    amp = float(2 * mags[peak] / len(t))
    return np.array([delta_khz, span / 2, amp, float(np.angle(spectrum[peak])), offset])


def _canonicalize(delta, t2, amp, phase, offset):
    # amp's sign folds into phase.  delta needs no fold: the objective is
    # 1e300 at delta <= 0, above the FFT start's, so the best vertex has delta > 0.
    if amp < 0:
        amp, phase = -amp, phase + math.pi
    phase = math.remainder(phase, 2 * math.pi)
    return delta, t2, amp, phase, offset


def fit_fringes(trace: RamseyTrace) -> RamseyFit:
    """Least-squares fringe fit for (delta, T2*, amp, phase, offset) from initial_guess."""
    t, s = trace.times, trace.signal
    big = 1e300

    def objective(x):
        delta, t2, amp, phase, offset = x
        if t2 <= 0 or delta <= 0:
            return big
        r = _model(t, delta, t2, amp, phase, offset) - s
        return float(r @ r)

    result = nelder_mead(objective, initial_guess(trace))
    if not result.converged:
        raise FitConvergenceError(
            f"fringe fit did not converge in {result.iterations} iterations"
        )
    delta, t2, amp, phase, offset = _canonicalize(*result.x_min)
    rms = math.sqrt(objective((delta, t2, amp, phase, offset)) / len(t))
    return RamseyFit(
        delta_khz=float(delta),
        t2_star_s=float(t2),
        amplitude=float(amp),
        phase=float(phase),
        offset=float(offset),
        rms_residual=rms,
        iterations=result.iterations,
    )


def frequency_from_detuning(f_rf_khz: float, delta_khz: float, sign: int = 1) -> float:
    """Resolve the transition frequency: f = f_rf - sign * delta.

    ``sign`` settles the magnitude ambiguity of the fitted detuning; a
    two-point f_rf step determines it experimentally.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return f_rf_khz - sign * delta_khz
