import numpy as np
import pytest

from nvground.cli import main
from nvground.extraction import (
    MeasurementEntry,
    MeasurementSet,
    ParamVector,
    extract_params,
    model_frequencies,
    params_from_models,
)
from nvground.presets import (
    FRACTIONAL_PPM_PER_K,
    MW_SIGMA_KHZ,
    PRESET_NAMES,
    TABLE1,
    TABLE3,
    TABLE3_BZ_G,
    line_sigma_khz,
    params_at,
    thermal_presets,
)
from nvground.spin_core import GAMMA_E_KHZ_PER_G, FieldConfig, get_isotope
from nvground.transitions import LINES, transition_set


def test_reference_values_at_297():
    p14 = params_at("N14")
    assert p14.d == 2870.28e3
    assert p14.q == -4945.88
    assert p14.a_par == -2165.19
    assert p14.a_perp == -2635.0
    p15 = params_at("N15")
    assert p15.q == 0.0
    assert p15.a_par == 3033.3
    assert p15.a_perp == 3680.0


def test_preset_models_match_quoted_fractional_derivatives():
    for (iso, name), ppm in FRACTIONAL_PPM_PER_K.items():
        model = thermal_presets(iso)[name]
        assert model.fractional_derivative_ppm(297.0) == pytest.approx(ppm, rel=0.01)


# Temperatures probed against the thermal models: a fine grid over the
# preset range plus the CLI's usual points.
GRID_K = np.concatenate([np.linspace(77.0, 400.0, 647), [78.5, 297.0, 399.5]])


def test_n15_a_perp_tied_to_a_par():
    assert params_at("N15", 297.0).a_perp == 3680.0
    a_par_ref = params_at("N15", 297.0).a_par
    for t in GRID_K:
        p = params_at("N15", float(t))
        # The tie as a formula: A_perp scales with A_par from 3680 kHz at 297 K.
        tied = 3680.0 * (p.a_par / a_par_ref)
        assert abs(p.a_perp - tied) <= 1e-15 * abs(tied)


@pytest.mark.parametrize("iso", ["N14", "N15"])
def test_params_at_equals_params_from_models(iso):
    models = thermal_presets(iso)
    for t in GRID_K:
        assert params_at(iso, float(t)) == params_from_models(models, get_isotope(iso), float(t))


def test_quadratic_coefficient_is_half_second_derivative():
    model = TABLE1["N14"]["q"].model()
    assert model.coeffs[2] == pytest.approx(0.00022 / 2)
    assert 1e3 * model.second_derivative(297.0) == pytest.approx(0.22)


def test_temperature_range_enforced():
    with pytest.raises(ValueError):
        params_at("N14", 50.0)


def test_preset_name_validation(tmp_path, capsys):
    # argparse checks --preset against PRESET_NAMES, synth's own flag included
    for command in ("transitions", "synth"):
        out = tmp_path / command
        argv = [command, "--isotope", "n14", "--bz", "470", "--out", str(out)]
        assert main(argv + ["--preset", "table2"]) == 2
        assert "invalid choice: 'table2'" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--preset", PRESET_NAMES[0]]) == 0
        assert out.exists()


# Central-difference steps (kHz) for the J^T J sigmas of a Table 3 fit.
STEPS = {"gamma_e_bz": 0.1, "q": 0.01, "a_par": 0.01, "a_perp": 0.01}


def _fit_table3(iso, labels, free):
    """Table 3's ``labels`` fitted from TABLE3_BZ_G with the fields ``free``
    free and every other field at its 297 K preset: the fit, and each free
    field's sigma from J^T J, J by central differences as in the acceptance
    tests."""
    sigmas = np.array([TABLE3[label].freq_sigma_khz for label in labels])
    ms = MeasurementSet(297.0, iso, tuple(
        MeasurementEntry(label, TABLE3[label].freq_khz, TABLE3[label].freq_sigma_khz)
        for label in labels
    ))
    guess = ParamVector.from_physical(iso.name, params_at(iso), FieldConfig(bz=TABLE3_BZ_G))
    fit = extract_params(ms, guess, fixed=tuple(n for n in guess.fields() if n not in free))
    x, columns = fit.params.as_array(), []
    for name in free:
        k, step = guess.fields().index(name), STEPS[name]
        up, down = x.copy(), x.copy()
        up[k] += step
        down[k] -= step
        columns.append(
            (model_frequencies(up, iso, labels) - model_frequencies(down, iso, labels)) / (2 * step)
        )
    jac = np.array(columns).T / sigmas[:, None]
    return fit, dict(zip(free, np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))))


@pytest.mark.parametrize(
    "iso_name, labels, bz, sigma_bz, chi2, line_pull, difference_pulls",
    [
        ("N14", ("f1", "f2", "f3", "f4", "f5", "f6"), 469.9459, 0.02297, 0.08346, 0.2007,
         {"f1-f2": 0.461, "f5-f4": 0.461, "f3-f6": 0.582}),
        ("N15", ("f7", "f8", "f9"), 470.7634, 0.06279, 0.03808, 0.1775, {}),
    ],
)
def test_table3_is_the_presets_at_one_fitted_field(
    iso_name, labels, bz, sigma_bz, chi2, line_pull, difference_pulls
):
    # Table 3's nuclear lines, fitted with only gamma_e Bz free and every
    # other field at its 297 K preset: one field per isotope, 0.82 G apart,
    # brings every line within its table sigma of the presets (chi^2 well
    # below its 5 or 2 dof), where the nominal 470 G misses f1-f2 by 17 sigma.
    iso = get_isotope(iso_name)
    fit, sigma = _fit_table3(iso, labels, ("gamma_e_bz",))
    assert fit.unresolved == ()
    assert fit.params.gamma_e_bz / GAMMA_E_KHZ_PER_G == pytest.approx(bz, abs=1e-4)
    assert fit.objective == pytest.approx(chi2, abs=1e-5)
    assert sigma["gamma_e_bz"] / GAMMA_E_KHZ_PER_G == pytest.approx(sigma_bz, abs=1e-5)
    lines = transition_set(*fit.params.to_physical(), iso)
    pulls = {
        label: (lines[label] - row.freq_khz) / row.freq_sigma_khz
        for label, row in TABLE3.items()
        if label in LINES[iso.name]
    }
    assert max(abs(pulls[label]) for label in labels) == pytest.approx(line_pull, abs=1e-3)
    for label, pull in difference_pulls.items():
        assert pulls[label] == pytest.approx(pull, abs=1e-3)


@pytest.mark.parametrize(
    "iso_name, labels, expected, chi2",
    [
        ("N14", ("f1", "f2", "f3", "f4", "f5", "f6"),
         {"gamma_e_bz": (469.94675, 0.045234), "q": (-4945.88250, 0.026308),
          "a_par": (-2165.19007, 0.042131), "a_perp": (-2635.2247, 11.2993)}, 5.983e-4),
        ("N15", ("f7", "f8", "f9"),
         {"gamma_e_bz": (470.70683, 0.33504), "a_par": (3033.32255, 0.18332),
          "a_perp": (3697.9496, 104.161)}, 0.0),
    ],
)
def test_table3_with_free_couplings_puts_each_preset_a_perp_within_1_sigma(
    iso_name, labels, expected, chi2
):
    # The same fit with the couplings free too (D and gamma_e/gamma_n stay at
    # their presets): 15NV's three lines fix its three fields (0 dof) but
    # barely constrain A_perp.  Values (Bz in G, the rest in kHz) are pinned
    # to a hundredth of their sigma.
    iso = get_isotope(iso_name)
    fit, sigma = _fit_table3(iso, labels, tuple(expected))
    assert fit.unresolved == ()
    assert fit.objective == pytest.approx(chi2, abs=1e-6)
    for name, (value, sigma_value) in expected.items():
        unit = GAMMA_E_KHZ_PER_G if name == "gamma_e_bz" else 1.0
        assert getattr(fit.params, name) / unit == pytest.approx(value, abs=0.01 * sigma_value)
        assert sigma[name] / unit == pytest.approx(sigma_value, rel=1e-3)
    assert abs(fit.params.a_perp - TABLE1[iso.name]["a_perp"].value) <= sigma["a_perp"]


def test_line_sigma_is_mw_for_electron_lines_and_table3_for_the_rest():
    for label in ("fplus_+1", "fminus_-1", "fplus_+1/2", "fminus_-1/2"):
        assert line_sigma_khz(label) == MW_SIGMA_KHZ
    for label, row in TABLE3.items():
        assert line_sigma_khz(label) == row.freq_sigma_khz
