import math

import numpy as np
import pytest

from nvground.ramsey import (
    NonIdentifiableTraceError,
    RamseyTrace,
    UndersampledTraceError,
    fit_fringes,
    frequency_from_detuning,
    initial_guess,
    synthesize,
)

TIMES = np.linspace(0.0, 2e-3, 200)


def test_synthesize_zero_time_and_half_period():
    trace = synthesize(1.0, np.inf, 0.4, 0.0, 1.0, [0.0, 0.5e-3])
    assert trace.signal[0] == pytest.approx(1.0 + 0.4)
    # at tau = 0.5 ms a 1 kHz detuning has advanced by pi
    assert trace.signal[1] == pytest.approx(1.0 - 0.4, abs=1e-12)


def test_synthesize_deterministic():
    a = synthesize(3.0, 1e-3, 0.5, 0.1, 1.0, TIMES, noise_sigma=0.05, rng_seed=7)
    b = synthesize(3.0, 1e-3, 0.5, 0.1, 1.0, TIMES, noise_sigma=0.05, rng_seed=7)
    c = synthesize(3.0, 1e-3, 0.5, 0.1, 1.0, TIMES, noise_sigma=0.05, rng_seed=8)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize(3.0, -1.0, 0.5, 0.0, 1.0, TIMES)
    with pytest.raises(ValueError):
        RamseyTrace(times=np.array([0.0, 0.0, 1.0]), signal=np.zeros(3))


def test_noiseless_fit_recovers_delta():
    trace = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, TIMES)
    fit = fit_fringes(trace)
    assert abs(fit.delta_khz - 3.0) * 1e3 < 1e-3  # well under 1 Hz
    assert fit.t2_star_s == pytest.approx(1e-3, rel=1e-4)
    assert fit.amplitude == pytest.approx(0.5, rel=1e-4)
    assert fit.offset == pytest.approx(1.0, rel=1e-4)


def test_fit_scale_and_offset_invariance():
    base = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, TIMES)
    scaled = RamseyTrace(times=TIMES, signal=7.0 * base.signal + 2.0)
    d1 = fit_fringes(base).delta_khz
    d2 = fit_fringes(scaled).delta_khz
    assert abs(d1 - d2) * 1e3 < 0.1  # Hz


def test_monte_carlo_spread():
    deltas = []
    for seed in range(100):
        trace = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, TIMES, noise_sigma=0.025, rng_seed=seed)
        deltas.append(fit_fringes(trace).delta_khz)
    deltas = np.array(deltas)
    assert abs(deltas.mean() - 3.0) * 1e3 < 1.0  # Hz
    assert deltas.std() * 1e3 < 5.0  # Hz


def test_noise_reduction_tightens_recovery():
    def spread(noise):
        out = []
        for seed in range(50):
            trace = synthesize(
                3.0, 1e-3, 0.5, 0.3, 1.0, TIMES, noise_sigma=noise, rng_seed=seed
            )
            out.append(fit_fringes(trace).delta_khz)
        return np.std(out)

    assert spread(0.02 / 4) < spread(0.02)


def test_zero_amplitude_flagged():
    trace = synthesize(3.0, 1e-3, 0.0, 0.0, 1.0, TIMES)
    with pytest.raises(NonIdentifiableTraceError):
        fit_fringes(trace)


def test_undersampled_trace_rejected():
    sparse = np.linspace(0.0, 2e-3, 12)  # < 4 samples per period at 3 kHz
    trace = synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, sparse)
    with pytest.raises(UndersampledTraceError, match=r"fewer than 4 samples per period at 2\.29"):
        fit_fringes(trace)


def test_short_span_rejected():
    short = np.linspace(0.0, 0.5e-3, 100)  # 1.5 periods at 3 kHz
    trace = synthesize(3.0, 1e-3, 0.5, 0.0, 1.0, short)
    with pytest.raises(UndersampledTraceError, match=r"spans 1\.98 periods at 3\.96"):
        fit_fringes(trace)


def test_initial_guess_near_truth():
    trace = synthesize(3.0, 1e-3, 0.5, 0.3, 1.0, TIMES, noise_sigma=0.02, rng_seed=1)
    guess = initial_guess(trace)
    assert guess.delta_khz == pytest.approx(3.0, rel=0.3)


def test_frequency_from_detuning():
    assert frequency_from_detuning(5090.0, 4.05, 1) == pytest.approx(5085.95)
    assert frequency_from_detuning(5090.0, 0.0, 1) == 5090.0
    with pytest.raises(ValueError):
        frequency_from_detuning(5090.0, 1.0, 0)


def test_two_point_rf_step_disambiguates_sign():
    f_true = 5085.95
    fits = []
    for f_rf in (f_true + 4.0, f_true + 5.0):
        delta = abs(f_rf - f_true)
        trace = synthesize(delta, 1e-3, 0.5, 0.0, 1.0, TIMES)
        fits.append(fit_fringes(trace).delta_khz)
    # fitted |delta| moved with f_rf, so the transition lies below f_rf
    assert fits[1] - fits[0] == pytest.approx(1.0, abs=1e-3)
    assert frequency_from_detuning(f_true + 4.0, fits[0], 1) == pytest.approx(f_true, abs=1e-3)


@pytest.mark.parametrize("n", [0, 1])
def test_trace_needs_two_samples(n):
    # Fewer samples have no spacing to fit; refused before any numpy warning.
    with pytest.raises(ValueError, match=f"^a Ramsey trace needs at least 2 samples, not {n}$"):
        RamseyTrace(times=np.zeros(n), signal=np.zeros(n))
    RamseyTrace(times=np.array([0.0, 1e-3]), signal=np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_times_must_be_finite(bad):
    # A NaN time passes the strictly-increasing check (NaN compares false),
    # and the fit would meet it only as a NaN objective.
    times = np.array([0.0, bad, 2e-5, 3e-5])
    with pytest.raises(ValueError, match="^times must be finite$"):
        RamseyTrace(times=times, signal=np.zeros(4))
    with pytest.raises(ValueError, match="^times must be finite$"):
        RamseyTrace(times=np.array([0.0, 1e-5, bad]), signal=np.zeros(3))
