import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_point import reference_reduced_lines

from nvground.presets import TABLE3, params_at
from nvground.spin_core import GAMMA_E_KHZ_PER_G, N14, N15, CouplingParams, FieldConfig
from nvground.perturbation import (
    ValidityMarginError,
    _reduced_lines,
    beta_coefficient,
    exact_angular_shift,
    exact_beta_estimates,
    ms0_baseline,
    ms0_line,
    nuclear_freqs_2nd,
    nuclear_freqs_full,
    residuals_vs_exact,
)
from nvground.transitions import LINES, AmbiguousLabelingError, nuclear_labels, transition_set

P14 = params_at("N14")
P15 = params_at("N15")


MARGIN_1020_G = r"^\|D - gamma_e Bz\| = 10914\.0 kHz is within 50\.0 x \|A_perp\|"


def test_validity_margin():
    # Every closed form refuses a field within 50 |A_perp| of the GSLAC.
    for refuse in (
        lambda: nuclear_freqs_2nd(P14, N14, 1020.0),
        lambda: nuclear_freqs_full(P14, N14, 1020.0, 0.0),
        lambda: beta_coefficient(P14, N14, 1020.0),
        lambda: ms0_baseline(P14, N14, 1020.0),
    ):
        with pytest.raises(ValidityMarginError, match=MARGIN_1020_G):
            refuse()
    nuclear_freqs_2nd(P14, N14, 970.0)


def test_formulas_refuse_negative_bz():
    # The closed forms are odd in Bz (f7 starts at |gamma_n| Bz); the exact
    # spectrum at -Bz is the +Bz one, so a negative Bz is refused, not mirrored.
    for refuse in (
        lambda: nuclear_freqs_2nd(P15, N15, -1.0),
        lambda: nuclear_freqs_full(P15, N15, -1.0, 0.0),
        lambda: ms0_baseline(P14, N14, -1.0),
        lambda: beta_coefficient(P14, N14, -1.0),
    ):
        with pytest.raises(ValidityMarginError, match=r"^the perturbative formulas take Bz >= 0"):
            refuse()
    assert ms0_baseline(P15, N15, 0.0) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_formulas_refuse_a_non_finite_field(bad):
    # NaN compares false, so without its own check a NaN Bz would pass the
    # sign and margin checks and come back as NaN lines.
    refused = "the field must be finite, not "
    for refuse in (
        lambda: nuclear_freqs_2nd(P14, N14, bad),
        lambda: nuclear_freqs_full(P15, N15, bad, 0.0),
        lambda: ms0_baseline(P15, N15, bad),
        lambda: beta_coefficient(P14, N14, bad),
    ):
        with pytest.raises(ValidityMarginError, match=f"^{refused}Bz = {bad} G, Bx = 0.0 G$"):
            refuse()
    for iso, p in ((N14, P14), (N15, P15)):
        with pytest.raises(ValidityMarginError, match=f"^{refused}Bz = 470.0 G, Bx = {bad} G$"):
            nuclear_freqs_full(p, iso, 470.0, bad)


def test_second_order_f2_matches_table():
    ts = nuclear_freqs_2nd(P14, N14, 470.0)
    q, fp = abs(P14.q), P14.d + GAMMA_E_KHZ_PER_G * 470.0
    closed = q - P14.gamma_n * 470.0 - P14.a_perp**2 / fp
    assert ts["f2"] == pytest.approx(closed, rel=1e-14)
    assert ts["f2"] == pytest.approx(TABLE3["f2"].freq_khz, abs=0.05)


def test_second_order_requires_on_axis():
    with pytest.raises(TypeError):
        nuclear_freqs_2nd(P14, N14, 470.0, 0.5)
    with pytest.raises(ValueError, match="lowest-order formulas hold on axis"):
        residuals_vs_exact(P14, N14, [470.0], [0.0, 0.5], order="2nd")


def test_aperp_zero_reduces_to_exact():
    p0 = CouplingParams(d=P14.d, q=P14.q, a_par=P14.a_par, a_perp=0.0, gamma_n=P14.gamma_n)
    pert = nuclear_freqs_2nd(p0, N14, 470.0)
    exact = transition_set(p0, FieldConfig(bz=470.0), N14)
    for label in ("f1", "f2", "f3", "f4", "f5", "f6"):
        assert pert[label] == pytest.approx(exact[label], abs=1e-9)


@pytest.mark.parametrize("bz", [100.0, 300.0, 470.0])
def test_second_order_gap_to_exact_n14(bz):
    # The lowest-order formulas omit A_perp^2 (Q, A_par)/F^2 cross terms;
    # the worst line sits ~10 Hz off at 100 G growing to ~23 Hz at 470 G.
    worst = residuals_vs_exact(P14, N14, [bz], [0.0], order="2nd")
    bound_khz = {100.0: 0.011, 300.0: 0.016, 470.0: 0.025}[bz]
    assert max(worst.values()) < bound_khz


def test_second_order_gap_to_exact_n15():
    worst = residuals_vs_exact(P15, N15, [300.0, 470.0, 600.0], [0.0], order="2nd")
    assert max(worst.values()) < 0.01


def test_full_formula_f3_row_structure():
    # at Bx = 0 the full f3 is the lowest-order value minus
    # A_perp^2 (2|Q| - |A_par|)/F-^2
    full = nuclear_freqs_full(P14, N14, 470.0, 0.0)
    second = nuclear_freqs_2nd(P14, N14, 470.0)
    q, a = abs(P14.q), abs(P14.a_par)
    fm = P14.d - GAMMA_E_KHZ_PER_G * 470.0
    assert full["f3"] == pytest.approx(second["f3"] - P14.a_perp**2 * (2 * q - a) / fm**2, rel=1e-12)


def test_full_tracks_exact_within_tripwire():
    bz_grid = np.linspace(300.0, 600.0, 7)
    bx_grid = np.linspace(0.0, 1.0, 5)
    assert max(residuals_vs_exact(P14, N14, bz_grid, bx_grid).values()) < 0.020
    assert max(residuals_vs_exact(P15, N15, bz_grid, bx_grid).values()) < 0.020


def test_residuals_match_a_point_by_point_loop():
    # The exact side is one batch; a per-point loop over the reduced
    # Hamiltonian gives the same worst residuals, bit for bit (signed Bx
    # included).
    bz_grid, bx_grid = np.linspace(300.0, 600.0, 4), [-0.5, 0.0, 1.0]
    for iso, p in ((N14, P14), (N15, P15)):
        worst = {}
        for bz in bz_grid:
            for bx in bx_grid:
                pert = nuclear_freqs_full(p, iso, bz, bx)
                reference = reference_reduced_lines(p, FieldConfig(bz=bz, bx=bx), iso)
                exact = dict(zip(LINES[iso.name], reference))
                for name in nuclear_labels(iso):
                    worst[name] = max(worst.get(name, 0.0), abs(pert[name] - exact[name]))
        assert residuals_vs_exact(p, iso, bz_grid, bx_grid) == worst
    assert residuals_vs_exact(P14, N14, [], [0.0]) == {}


def test_residuals_raise_the_first_error_along_the_grid():
    # At 0 G the N14 labeling is refused (the series still holds); at
    # 1020 G the series refuses (the labeling still holds).
    with pytest.raises(AmbiguousLabelingError, match=r"^at Bz = 0\.0 G, Bx = 0\.0 G \(N14\)"):
        residuals_vs_exact(P14, N14, [0.0, 1020.0], [0.0])
    with pytest.raises(ValidityMarginError):
        residuals_vs_exact(P14, N14, [1020.0, 0.0], [0.0])
    _reduced_lines(P14, [FieldConfig(bz=1020.0)], N14)
    nuclear_freqs_full(P14, N14, 0.0, 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    points=st.lists(st.tuples(st.floats(0.0, 2000.0), st.floats(-5.0, 5.0)), max_size=4),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
# A batch whose second point sits on the anti-crossing, so a refusal is always tried.
@example(iso=N14, temp=297.0, points=[(470.0, -0.5), (1022.8, 0.0)], dtype=np.longdouble)
def test_reduced_lines_batch_matches_the_per_point_path(iso, temp, points, dtype):
    # The series' exact side: each point of a batch has the bits of the
    # per-point reduced Hamiltonian (no -gamma_n Bx Ix), and a batch that
    # holds a refused point names the first.
    p = params_at(iso, temp)
    fields = [FieldConfig(bz=bz, bx=bx) for bz, bx in points]
    reference, refused = [], []
    for f in fields:
        try:
            reference.append(reference_reduced_lines(p, f, iso, dtype))
        except AmbiguousLabelingError as err:
            refused.append(f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name}): {err}")
    if refused:
        with pytest.raises(AmbiguousLabelingError) as batch:
            _reduced_lines(p, fields, iso, dtype)
        assert str(batch.value) == refused[0]
        return
    lines = _reduced_lines(p, fields, iso, dtype)
    assert lines.dtype == dtype and lines.shape == (len(fields), len(LINES[iso.name]))
    for one, ref in zip(lines, reference):
        assert np.array_equal(one, ref)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    bz=st.floats(300.0, 600.0),
    bx=st.floats(0.0, 1.0),
)
def test_formulas_hold_over_temperature(iso, temp, bz, bx):
    # Criterion 5's 20 Hz tripwire (checked there at 297 K only) holds
    # over the preset range.
    p = params_at(iso, temp)
    assert max(residuals_vs_exact(p, iso, [bz], [bx]).values()) < 0.020


def test_agreement_hierarchy_at_bx0():
    for iso, p in ((N14, P14), (N15, P15)):
        for bz in np.linspace(100.0, 600.0, 6):
            full = residuals_vs_exact(p, iso, [bz], [0.0], order="full")
            second = residuals_vs_exact(p, iso, [bz], [0.0], order="2nd")
            for label in full:
                assert full[label] <= second[label] + 1e-9


@pytest.mark.parametrize("order", ["ful", "second", "", None])
def test_residuals_refuse_an_unknown_order(order):
    with pytest.raises(ValueError, match="order must be 'full' or '2nd'"):
        residuals_vs_exact(P14, N14, [470.0], [0.0], order=order)


def test_aperp_zero_full_residual_floor():
    # with A_perp = 0 only the expansion of the electron Bx coupling in
    # A_par/F remains; both isotopes sit below 0.2 Hz
    p14_0 = CouplingParams(d=P14.d, q=P14.q, a_par=P14.a_par, a_perp=0.0, gamma_n=P14.gamma_n)
    p15_0 = CouplingParams(d=P15.d, q=0.0, a_par=P15.a_par, a_perp=0.0, gamma_n=P15.gamma_n)
    bz_grid = np.linspace(300.0, 600.0, 4)
    bx_grid = [0.0, 0.5, 1.0]
    assert max(residuals_vs_exact(p14_0, N14, bz_grid, bx_grid).values()) < 2e-4
    assert max(residuals_vs_exact(p15_0, N15, bz_grid, bx_grid).values()) < 2e-4


def test_point_shift_fdq_480():
    shift_hz = 1e3 * float(exact_angular_shift(P14, N14, 480.0, math.radians(0.1)))
    assert shift_hz == pytest.approx(-5.0, abs=1.0)


def test_point_shift_f7_480():
    shift_hz = 1e3 * float(exact_angular_shift(P15, N15, 480.0, math.radians(0.1)))
    assert shift_hz == pytest.approx(130.0, rel=0.15)
    assert shift_hz > 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    bz=st.floats(50.0, 900.0),
    theta_deg=st.floats(0.0, 2.0, exclude_min=True),
)
def test_angular_shift_is_the_difference_of_two_single_points(iso, temp, bz, theta_deg):
    # The tilted and axial fields share one longdouble kernel batch; each
    # keeps the bits of its own single-point solve, and so does the shift.
    p, theta = params_at(iso, temp), math.radians(theta_deg)
    line = ms0_line(iso)
    tilted = transition_set(p, FieldConfig(bz=bz, bx=bz * math.tan(theta)), iso, np.longdouble)
    axial = transition_set(p, FieldConfig(bz=bz), iso, np.longdouble)
    shift, reference = exact_angular_shift(p, iso, bz, theta), tilted[line] - axial[line]
    # equal longdoubles of one sign have the same bits (tobytes would also read padding)
    assert shift.dtype == np.longdouble and shift == reference
    assert np.signbit(shift) == np.signbit(reference)


def test_beta_values_match_quoted():
    # quoted values hold to half a unit in their last printed digit
    assert beta_coefficient(P14, N14, 480.0) == pytest.approx(-9.9, abs=0.05)
    assert beta_coefficient(P14, N14, 10.0) == pytest.approx(-0.003, abs=0.0005)
    assert beta_coefficient(P15, N15, 480.0) == pytest.approx(460.0, abs=5.0)
    assert beta_coefficient(P15, N15, 10.0) == pytest.approx(280.0, abs=5.0)


def test_beta_baselines_and_errors():
    assert ms0_baseline(P14, N14, 480.0) == pytest.approx(2 * P14.gamma_n * 480.0)
    assert ms0_baseline(P15, N15, 480.0) == pytest.approx(abs(P15.gamma_n) * 480.0)
    with pytest.raises(ValidityMarginError):
        beta_coefficient(P14, N14, 1023.0)
    with pytest.raises(ValidityMarginError):
        ms0_baseline(P14, N14, 1023.0)


@pytest.mark.parametrize(
    "iso,p,bz,transition",
    [
        (N14, P14, 480.0, "fdq"),
        (N14, P14, 10.0, "fdq"),
        (N15, P15, 480.0, "f7"),
        (N15, P15, 10.0, "f7"),
    ],
)
def test_quadratic_angular_law(iso, p, bz, transition):
    assert ms0_line(iso) == transition
    beta = beta_coefficient(p, iso, bz)
    estimates = exact_beta_estimates(p, iso, bz)
    assert np.all(np.abs(estimates / beta - 1) < 0.05)


def _field_model(p, iso, bz):
    """The ms = 0 line's field model (nuclear Zeeman + A_perp^2): its
    lowest-order value and fractional correction over its baseline."""
    freq = nuclear_freqs_2nd(p, iso, bz)[ms0_line(iso)]
    return freq, freq / ms0_baseline(p, iso, bz) - 1


def test_field_model_fdq_value():
    freq, fractional = _field_model(P14, N14, 470.0)
    exact = transition_set(P14, FieldConfig(bz=470.0), N14)
    assert freq == pytest.approx(exact["fdq"], abs=0.02)
    assert freq == pytest.approx(286.299, abs=0.03)
    assert fractional < 0


def test_field_model_f7_fractional():
    _, fractional = _field_model(P15, N15, 470.0)
    assert fractional == pytest.approx(1.35e-2, rel=0.01)


def test_field_model_zero_field_limit():
    # the fractional correction tends to +-|gamma_e/gamma_n| A_perp^2/D^2
    _, f7 = _field_model(P15, N15, 1.0)
    f7_expected = (GAMMA_E_KHZ_PER_G / abs(P15.gamma_n)) * P15.a_perp**2 / P15.d**2
    assert f7 == pytest.approx(f7_expected, rel=1e-5)
    _, fdq = _field_model(P14, N14, 1.0)
    fdq_expected = -(GAMMA_E_KHZ_PER_G / P14.gamma_n) * P14.a_perp**2 / P14.d**2
    assert fdq == pytest.approx(fdq_expected, rel=1e-5)


def _model_slope(iso, bz, dt=0.5):
    out = [_field_model(params_at(iso, t), iso, bz)[0] for t in (297.0 - dt, 297.0 + dt)]
    return 1e3 * (out[1] - out[0]) / (2 * dt)


def test_field_model_temperature_slopes():
    # differentiating the closed forms reproduces the tabulated fdq and f7 slopes
    assert _model_slope(N14, 470.0) == pytest.approx(0.149, abs=0.01)
    assert _model_slope(N15, 470.0) == pytest.approx(-0.31, abs=0.03)


def test_ms0_line_is_the_outer_ms0_pair():
    # the ms = 0 line between mI = -I and +I: 14NV fdq (-1 <-> +1), 15NV f7
    assert ms0_line(N14) == "fdq"
    assert ms0_line(N15) == "f7"


def test_full_formula_guards():
    degenerate = CouplingParams(d=P14.d, q=-2165.19, a_par=-2165.19, a_perp=-2635.0, gamma_n=P14.gamma_n)
    with pytest.raises(ValueError):
        nuclear_freqs_full(degenerate, N14, 470.0, 0.5)
