import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from per_point import reference_lines

from nvground import transitions
from nvground.eigensolve import eigh
from nvground.presets import GAMMA_RATIO_N14, TABLE3, params_at
from nvground.spin_core import (
    N14,
    N15,
    CouplingParams,
    FieldConfig,
    StateLabel,
    basis_labels,
    build_hamiltonian,
)
from nvground.transitions import (
    LINES,
    OVERLAP_THRESHOLD,
    AmbiguousLabelingError,
    isotopic_d_shift,
    label_states,
    line_derivatives,
    line_slopes,
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    points=st.lists(st.tuples(st.floats(0.0, 2000.0), st.floats(0.0, 5.0)), max_size=4),
    nuclear_transverse=st.booleans(),
    dtype=st.sampled_from([np.float64, np.longdouble]),
)
# A batch whose second point sits on the anti-crossing, so a refusal is always tried.
@example(
    iso=N14,
    temp=297.0,
    points=[(470.0, 0.0), (1022.8, 0.0)],
    nuclear_transverse=True,
    dtype=np.float64,
)
def test_kernel_batches_match_the_per_point_path(iso, temp, points, nuclear_transverse, dtype):
    p = params_at(iso, temp)
    fields = [FieldConfig(bz=bz, bx=bx) for bz, bx in points]
    refused = []
    for f in fields:
        try:
            reference = reference_lines(p, f, iso, dtype, nuclear_transverse)
        except AmbiguousLabelingError as err:
            where = f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name}): {err}"
            refused.append(where)
            for call in (transition_lines, transition_set):
                with pytest.raises(AmbiguousLabelingError) as one:
                    call(p, [f] if call is transition_lines else f, iso, dtype, nuclear_transverse)
                assert str(one.value) == where
            continue
        lines, _ = transition_lines(p, [f], iso, dtype, nuclear_transverse)
        assert lines.dtype == dtype
        assert np.array_equal(lines[0], reference)
        ts = transition_set(p, f, iso, dtype, nuclear_transverse)
        assert np.array_equal(np.array(list(ts.frequencies.values()), dtype=dtype), reference)
    if refused:
        with pytest.raises(AmbiguousLabelingError) as batch:
            transition_lines(p, fields, iso, dtype, nuclear_transverse)
        assert str(batch.value) == refused[0]
        return
    batch = transition_lines(p, fields, iso, dtype, nuclear_transverse)
    assert [len(x) for x in batch] == [len(fields)] * 2
    for i, f in enumerate(fields):
        for whole, one in zip(batch, transition_lines(p, [f], iso, dtype, nuclear_transverse)):
            assert np.array_equal(whole[i], one[0])


@pytest.mark.parametrize("iso", [N14, N15], ids=["N14", "N15"])
@pytest.mark.parametrize("bx", [0.0, 0.3], ids=["axial", "tilted"])
def test_no_result_reads_eigenvector_signs(monkeypatch, iso, bx):
    # An eigenvector's sign is arbitrary: negating every other column of
    # eigh's output leaves lines, energies and derivatives bit for bit.
    p, f = params_at(iso), FieldConfig(bz=470.0, bx=bx)
    dtypes = (np.float64, np.longdouble)
    before = {dtype: transition_lines(p, [f], iso, dtype) for dtype in dtypes}
    derivatives = line_derivatives(p, f, iso)

    def flipped(m):
        values, vectors = eigh(m)
        vectors[..., 1::2] *= -1
        return values, vectors

    monkeypatch.setattr(transitions, "eigh", flipped)
    for dtype, (lines, energies) in before.items():
        after_lines, after_energies = transition_lines(p, [f], iso, dtype)
        assert np.array_equal(after_lines, lines) and np.array_equal(after_energies, energies)
    for old, new in zip(derivatives, line_derivatives(p, f, iso)):
        assert np.array_equal(old, new)


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
    # fdq = f1 - f2, f1-f2, f5-f4 and f3-f6 go through the same row map
    # as the splittings; each equals the difference of its two lines.
    fields = [FieldConfig(bz=bz, bx=bx) for bz in (10.0, 470.0, 900.0) for bx in (0.0, 0.3)]
    names = list(LINES[iso.name])
    p, rates = params_at(iso), params_at(iso, 300.0)  # any direction serves as rates
    for dtype in (np.float64, np.longdouble):
        lines = transition_lines(p, fields, iso, dtype)[0]
        for name, line in LINES[iso.name].items():
            if line.minus:
                a, b = (names.index(term) for term in line.minus)
                assert np.array_equal(lines[:, names.index(name)], lines[:, a] - lines[:, b])
    for f in fields:
        for table in line_slopes(p, rates, f, iso):
            assert list(table) == names
            for name, line in LINES[iso.name].items():
                if line.minus:
                    assert table[name] == table[line.minus[0]] - table[line.minus[1]]


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


def test_ratio_estimators_mw_override():
    ts = transition_set(P14, B470, N14)
    est0 = ratio_estimators(ts)
    est1 = ratio_estimators(ts, mw={"fplus_+1": ts["fplus_+1"] + 1.0, "fminus_+1": ts["fminus_+1"]})
    assert est1["gamma_ratio"] > est0["gamma_ratio"]
