import numpy as np
import pytest

from nvground.cli import main
from nvground.extraction import params_from_models
from nvground.presets import (
    FRACTIONAL_PPM_PER_K,
    PRESET_NAMES,
    TABLE1,
    params_at,
    thermal_presets,
)
from nvground.spin_core import get_isotope


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
