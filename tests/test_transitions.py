import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_point import reference_derivatives, reference_lines

from nvground import transitions
from nvground.eigensolve import _eigh, eigh
from nvground.extraction import transition_table
from nvground.presets import GAMMA_RATIO_N14, TABLE3, params_at, thermal_presets
from nvground.spin_core import (
    GAMMA_E_KHZ_PER_G,
    N14,
    N15,
    CouplingParams,
    FieldConfig,
    StateLabel,
    _coefficients,
    basis_labels,
    build_hamiltonian,
)
from nvground.transitions import (
    LINES,
    OVERLAP_THRESHOLD,
    AmbiguousLabelingError,
    _kernel,
    isotopic_d_shift,
    known_labels,
    label_states,
    nuclear_labels,
    ratio_estimators,
    transition_lines,
    transition_set,
)

P14 = params_at("N14")
P15 = params_at("N15")
B470 = FieldConfig(bz=470.0)


def test_labeling_diagonal_hamiltonian():
    p0 = CouplingParams(d=P14.d, q=P14.q, a_par=P14.a_par, a_perp=0.0, gamma_n=P14.gamma_n)
    h = build_hamiltonian(p0, B470, N14)
    energies, vectors = label_states(*eigh(h))
    assert np.diagonal(vectors) ** 2 == pytest.approx(1.0, abs=1e-12)
    # basis order: each level sits on its own diagonal entry
    assert energies == pytest.approx(np.diag(h), rel=1e-14)


def test_labeling_clean_at_operating_field():
    _, vectors = label_states(*eigh(build_hamiltonian(P14, B470, N14)))
    assert (np.diagonal(vectors) ** 2).min() > 0.999


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    bz=st.floats(0.0, 2000.0),
    bx=st.floats(0.0, 5.0),
)
def test_labeling_is_a_bijection_or_refused(iso, bz, bx):
    values, vectors = eigh(build_hamiltonian(params_at(iso), FieldConfig(bz=bz, bx=bx), iso))
    weights = vectors * vectors
    try:
        energies, by_basis = label_states(values, vectors)
    except AmbiguousLabelingError:
        assert weights.max(axis=0).min() < OVERLAP_THRESHOLD
        return
    assert np.array_equal(np.sort(energies), values)
    assert np.all(np.diagonal(by_basis) ** 2 >= OVERLAP_THRESHOLD)
    # level k is the eigenpair whose vector weighs most on basis state k
    owner = np.argmax(weights, axis=1)
    assert np.array_equal(energies, values[owner])
    assert np.array_equal(by_basis, vectors[:, owner])


def test_label_states_on_a_stack_matches_each_matrix():
    fields = [FieldConfig(bz=bz, bx=bx) for bz, bx in ((470.0, 0.0), (30.0, 2.0), (900.0, 0.3))]
    h = np.array([build_hamiltonian(P14, f, N14) for f in fields])
    energies, vectors = label_states(*eigh(h))
    for i in range(len(h)):
        one = label_states(*eigh(h[i]))
        assert np.array_equal(energies[i], one[0])
        assert np.array_equal(vectors[i], one[1])


def test_label_states_stack_refusal_names_the_first_refused_matrix():
    # Both 1022.8 G and 1023 G are refused, with different messages.
    fields = [FieldConfig(bz=470.0), FieldConfig(bz=1022.8), FieldConfig(bz=1023.0)]
    h = np.array([build_hamiltonian(P14, f, N14) for f in fields])
    messages = []
    for i in (1, 2):
        with pytest.raises(AmbiguousLabelingError) as alone:
            label_states(*eigh(h[i]))
        messages.append(str(alone.value))
    assert messages[0] != messages[1]
    with pytest.raises(AmbiguousLabelingError) as stacked:
        label_states(*eigh(h))
    assert str(stacked.value) == messages[0]
    assert stacked.value.index == (1,)


def derivative_stack(p, fields, iso, dtype=np.float64):
    """The kernel's (lines, derivatives) at FieldConfigs ``fields``."""
    points = [(f.bz, f.bx) for f in fields]
    return _kernel(_coefficients(p, points, iso, dtype), iso, points, derivatives=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    points=st.lists(st.tuples(st.floats(0.0, 2000.0), st.floats(0.0, 5.0)), max_size=4),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
# A batch whose second point sits on the anti-crossing, so a refusal is always tried.
@example(
    iso=N14,
    temp=297.0,
    points=[(470.0, 0.0), (1022.8, 0.0)],
    dtype=np.float64,
)
def test_kernel_batches_match_the_per_point_path(iso, temp, points, dtype):
    # Lines in either dtype, and in float64 the derivative stack too: each
    # point of a stack has the bits of the per-point path, or its refusal.
    p = params_at(iso, temp)
    stacks = (transition_lines, derivative_stack) if dtype is np.float64 else (transition_lines,)
    fields = [FieldConfig(bz=bz, bx=bx) for bz, bx in points]
    refused = []
    for f in fields:
        try:
            reference = reference_lines(p, f, iso, dtype)
        except AmbiguousLabelingError as err:
            where = f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name}): {err}"
            refused.append(where)
            for call in (transition_lines, transition_set):
                with pytest.raises(AmbiguousLabelingError) as one:
                    call(p, [f] if call is transition_lines else f, iso, dtype)
                assert str(one.value) == where
            continue
        lines = transition_lines(p, [f], iso, dtype)
        assert lines.dtype == dtype
        assert np.array_equal(lines[0], reference)
        ts = transition_set(p, f, iso, dtype)
        assert np.array_equal(np.array(list(ts.frequencies.values()), dtype=dtype), reference)
    if refused:
        for stack in stacks:
            with pytest.raises(AmbiguousLabelingError) as batch:
                stack(p, fields, iso, dtype)
            assert str(batch.value) == refused[0]
        return
    batch = transition_lines(p, fields, iso, dtype)
    assert len(batch) == len(fields)
    for i, f in enumerate(fields):
        assert np.array_equal(batch[i], transition_lines(p, [f], iso, dtype)[0])
    if dtype is np.float64:
        lines, derivatives = derivative_stack(p, fields, iso)
        assert np.array_equal(lines, batch)
        assert derivatives.shape == (len(fields), len(LINES[iso.name]), 8)
        for i, f in enumerate(fields):
            assert derivatives[i].tobytes() == reference_derivatives(p, f, iso).tobytes()


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
@pytest.mark.parametrize("bx", [0.0, 0.3], ids=["axial", "tilted"])
def test_no_result_reads_eigenvector_signs(monkeypatch, iso, bx):
    # An eigenvector's sign is arbitrary: negating every other column of the
    # kernel's eigensolver output leaves lines and derivatives bit for bit,
    # over a stack of fields.
    p, fields = params_at(iso), [FieldConfig(bz=bz, bx=bx) for bz in (10.0, 470.0, 900.0)]
    calls = [
        functools.partial(stack, p, fields, iso, dtype)
        for stack in (transition_lines, derivative_stack)
        for dtype in (np.float64, np.longdouble)
    ]
    before = [call() for call in calls]

    def flipped(m):
        values, vectors = _eigh(m)
        vectors[..., 1::2] *= -1
        return values, vectors

    monkeypatch.setattr(transitions, "_eigh", flipped)
    for call, old in zip(calls, before):
        assert all(np.array_equal(x, y) for x, y in zip(call(), old, strict=True))


def test_kernel_refuses_a_hamiltonian_that_overflows():
    # Finite coefficients whose H[0, 0] = D + gamma_e Bz overflows: the
    # kernel skips eigh's symmetry check, not its finiteness check.
    p = CouplingParams(d=1.5e308, q=0.0, a_par=0.0, a_perp=0.0, gamma_n=N14.gamma_n)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        transition_lines(p, [FieldConfig(bz=1e308 / GAMMA_E_KHZ_PER_G)], N14)


def test_labeling_ambiguous_near_anticrossing():
    # the (0,0)/(-1,+1) pair degenerates near 1022.8 G for these parameters
    with pytest.raises(AmbiguousLabelingError):
        transition_set(P14, FieldConfig(bz=1022.8), N14)


def test_table_values_n14():
    ts = transition_set(P14, B470, N14)
    for label in ("f1", "f2", "f3", "f4", "f5", "f6"):
        assert ts[label] == pytest.approx(TABLE3[label].freq_khz, abs=0.1)
    assert ts["f1"] - ts["f2"] == pytest.approx(286.299, abs=0.06)
    assert ts["f3"] - ts["f6"] == pytest.approx(289.081, abs=0.06)
    assert ts["fdq"] == pytest.approx(ts["f1"] - ts["f2"], abs=1e-9)


def test_table_values_n15():
    ts = transition_set(P15, B470, N15)
    for label in ("f7", "f8", "f9"):
        assert ts[label] == pytest.approx(TABLE3[label].freq_khz, abs=0.5)


def test_diagonal_f1_closed_form():
    p0 = CouplingParams(d=P14.d, q=P14.q, a_par=P14.a_par, a_perp=0.0, gamma_n=P14.gamma_n)
    ts = transition_set(p0, B470, N14)
    assert ts["f1"] == pytest.approx(abs(p0.q - p0.gamma_n * 470.0), rel=1e-12)


def test_all_frequencies_positive_and_pairs_ordered():
    for iso, p in ((N14, P14), (N15, P15)):
        ts = transition_set(p, B470, iso)
        assert all(f > 0 for f in ts.frequencies.values())
        assert tuple(ts.frequencies) == tuple(LINES[iso.name])


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
def test_difference_rows_are_differences_bit_for_bit(iso):
    # f1-f2, f5-f4 and f3-f6 go through the same row map as the
    # splittings; each equals the difference of its two lines, and
    # so do its derivatives over a stack of fields.  transition_table's dT
    # slopes contract those derivatives, then convert kHz/K to Hz/K, which
    # rounds, so its frequencies are checked exactly and its slopes' keys.
    fields = [FieldConfig(bz=bz, bx=bx) for bz in (10.0, 470.0, 900.0) for bx in (0.0, 0.3)]
    names = list(LINES[iso.name])
    p = params_at(iso)
    for dtype in (np.float64, np.longdouble):
        lines, derivatives = derivative_stack(p, fields, iso, dtype)
        for name, line in LINES[iso.name].items():
            if line.minus:
                a, b = (names.index(term) for term in line.minus)
                for x in (lines, derivatives):
                    assert np.array_equal(x[:, names.index(name)], x[:, a] - x[:, b])
    for f in fields:
        freqs, slopes = transition_table(thermal_presets(iso), 297.0, f, iso)
        assert list(freqs) == list(slopes) == names
        for name, line in LINES[iso.name].items():
            if line.minus:
                assert freqs[name] == freqs[line.minus[0]] - freqs[line.minus[1]]


def mirror_partners(iso) -> dict[str, str]:
    """Each line between two levels -> the line between their mirror
    levels, (ms, mI) -> (-ms, -mI)."""
    lines = LINES[iso.name]
    by_levels = {frozenset(line.levels): name for name, line in lines.items() if line.levels}
    return {
        name: by_levels[frozenset(StateLabel(-s.ms, -s.mi) for s in lines[name].levels)]
        for name in known_labels(iso)
    }


def test_mirror_partners_and_nuclear_labels():
    # README's list of the mirror pairs; no line is a splitting and a difference.
    pairs = {
        "N14": [("f1", "f2"), ("f3", "f6"), ("f4", "f5"), ("fdq", "fdq")]
        + [(f"fplus_{m}", f"fminus_{n}") for m, n in (("+1", "-1"), ("0", "0"), ("-1", "+1"))],
        "N15": [("f7", "f7"), ("f8", "f9")]
        + [(f"fplus_{m}", f"fminus_{n}") for m, n in (("+1/2", "-1/2"), ("-1/2", "+1/2"))],
    }
    for iso in (N14, N15):
        expected = {a: b for a, b in pairs[iso.name]} | {b: a for a, b in pairs[iso.name]}
        assert mirror_partners(iso) == expected
        assert not any(line.levels and line.minus for line in LINES[iso.name].values())
    assert nuclear_labels(N14) == ("f1", "f2", "f3", "f4", "f5", "f6")
    assert nuclear_labels(N15) == ("f7", "f8", "f9")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    bz=st.floats(1.0, 2200.0),
    bx=st.floats(0.0, 40.0),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
# Just below the anti-crossing f2 > f1, so f1 - f2 is no splitting there.
@example(iso=N14, temp=297.0, bz=1017.0, bx=5.0, dtype=np.float64)
def test_minus_bz_mirrors_plus_bz(iso, temp, bz, bx, dtype):
    # H is unchanged by (ms, mI) -> (-ms, -mI) with Bz -> -Bz, so each line
    # at -Bz is its mirror partner at +Bz, and is positive; a refusal on one
    # side comes with one on the other.  The partners differ by eigensolver
    # rounding, at most 14 (float64) and 5 (longdouble) eps (D + gamma_e |Bz|)
    # over 1,500 random points.
    p = params_at(iso, temp)
    sides = []
    for sign in (1, -1):
        try:
            sides.append(transition_set(p, FieldConfig(bz=sign * bz, bx=bx), iso, dtype))
        except AmbiguousLabelingError:
            sides.append(None)
    plus, minus = sides
    assert (plus is None) == (minus is None)
    if plus is None:
        return
    tol = 64 * np.finfo(dtype).eps * (p.d + GAMMA_E_KHZ_PER_G * bz)
    for name, partner in mirror_partners(iso).items():
        assert plus[name] > 0 and minus[name] > 0
        assert abs(minus[name] - plus[partner]) <= tol, (name, partner)


def test_fdq_equals_f5_minus_f4():
    ts = transition_set(P14, B470, N14)
    assert ts["f1"] - ts["f2"] == pytest.approx(ts["f5"] - ts["f4"], abs=1e-9)


@pytest.mark.parametrize("bz", [100.0, 300.0, 470.0, 600.0])
@pytest.mark.parametrize("temp", [150.0, 297.0, 380.0])
def test_f3_minus_f6_tracks_nuclear_zeeman(bz, temp):
    # f3 - f6 = 2 gamma_n Bz up to a second-order A_perp^2 term
    # A_perp^2 (2|Q|-|A_par|)(1/F-^2 - 1/F+^2), which reaches ~39 Hz at
    # 600 G.  The residual dependence on everything else is below that.
    p = params_at("N14", temp)
    ts = transition_set(p, FieldConfig(bz=bz), N14)
    assert ts["f3"] - ts["f6"] == pytest.approx(2 * p.gamma_n * bz, abs=0.05)


def test_spectrum_even_in_bx():
    ts_plus = transition_set(P14, FieldConfig(bz=470.0, bx=0.8), N14)
    ts_minus = transition_set(P14, FieldConfig(bz=470.0, bx=-0.8), N14)
    for label in ts_plus.frequencies:
        assert ts_plus[label] == pytest.approx(ts_minus[label], abs=1e-9)


def test_mw_monotonicity_near_470():
    lo = transition_set(P14, FieldConfig(bz=468.0), N14)
    hi = transition_set(P14, FieldConfig(bz=472.0), N14)
    for mi in ("+1", "0", "-1"):
        assert hi[f"fplus_{mi}"] > lo[f"fplus_{mi}"]
        assert hi[f"fminus_{mi}"] < lo[f"fminus_{mi}"]


def test_f1_upper_level_at_470():
    energies, _ = label_states(*eigh(build_hamiltonian(P14, B470, N14)))
    labels = basis_labels(N14)
    # (0,+1) lies below (0,0) here, so (0,0) is the upper level of f1
    assert energies[labels.index(StateLabel(0, 1.0))] < energies[labels.index(StateLabel(0, 0.0))]


def test_isotopic_d_shift_identity_and_zero():
    assert isotopic_d_shift(10.0, 20.0, 10.0, 20.0) == 0.0
    # consistent with line centers built from D14 = 2870.26 MHz, D15 = 2870.38 MHz
    d14, d15 = 2870.26e3, 2870.38e3
    shift = isotopic_d_shift(d14 + 100.0, d14 - 100.0, d15 + 70.0, d15 - 70.0)
    assert shift == pytest.approx(120.0, abs=1e-9)


def test_isotopic_d_shift_from_exact_diag_at_475():
    ts14 = transition_set(params_at("N14"), FieldConfig(bz=475.0), N14)
    ts15 = transition_set(params_at("N15"), FieldConfig(bz=475.0), N15)
    shift = isotopic_d_shift(
        ts14["fplus_+1"], ts14["fminus_+1"], ts15["fplus_+1/2"], ts15["fminus_+1/2"]
    )
    # Table-derived central values put the shift near 0.10 MHz
    assert shift == pytest.approx(100.0, abs=30.0)


def test_ratio_estimators_against_exact_diag():
    ts = transition_set(P14, B470, N14)
    est = ratio_estimators(ts)
    assert est["gamma_ratio"] == pytest.approx(GAMMA_RATIO_N14, rel=0.002)
    assert est["gamma_n_bz"] == pytest.approx((ts["f3"] - ts["f6"]) / 2, abs=1e-12)
    # the 6-line mean for |Q| carries a second-order A_perp^2 bias of
    # A_perp^2 (|Q| - |A_par|/2)(1/F-^2 + 1/F+^2) ~ 12.7 Hz at 470 G
    assert abs(est["q_abs"] - 4945.88) == pytest.approx(0.01266, abs=0.002)
    # the same combination cancels exactly for |A_par|
    assert est["a_par_abs"] == pytest.approx(2165.19, abs=1e-4)


def test_ratio_estimators_table_fixture_gamma_n_bz():
    est_gnb = (TABLE3["f3-f6"].freq_khz) / 2
    assert est_gnb == pytest.approx(144.5405, abs=1e-4)


def test_ratio_estimators_require_n14():
    ts15 = transition_set(P15, B470, N15)
    with pytest.raises(ValueError):
        ratio_estimators(ts15)
