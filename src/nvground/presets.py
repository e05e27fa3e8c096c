"""Measured 297 K coupling parameters and their temperature derivatives.

These presets are the single source of truth used by the CLI preset
"table1_297K", the synthetic-data generator and the verification tests.
Values are stored in kHz, kHz/K and kHz/K^2; the quadratic polynomial
coefficient about 297 K is half the second derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extraction import THERMAL_DEGREE, T_REF_K, params_from_models
from .optimize import PolynomialModel
from .spin_core import CouplingParams, IsotopeSpec, get_isotope

T_RANGE_K = (77.0, 400.0)

PRESET_NAMES = ("table1_297K",)


@dataclass(frozen=True)
class ParamPreset:
    """297 K value with first/second temperature derivatives (kHz units)."""

    value: float
    value_sigma: float
    slope: float                # kHz/K
    slope_sigma: float | None   # None: no measured slope of its own
    curvature: float            # kHz/K^2

    def model(self) -> PolynomialModel:
        return PolynomialModel(
            coeffs=(self.value, self.slope, self.curvature / 2.0) + (0.0,) * (THERMAL_DEGREE - 2),
            t0=T_REF_K,
            t_min=T_RANGE_K[0],
            t_max=T_RANGE_K[1],
        )


def _following(value: float, sigma: float, ref: ParamPreset) -> ParamPreset:
    """A parameter without a measured temperature dependence of its own:
    ``ref``'s polynomial scaled to ``value`` at T_REF_K."""
    scale = value / ref.value
    return ParamPreset(value, sigma, ref.slope * scale, None, ref.curvature * scale)


_A_PAR_N15 = ParamPreset(3033.3, 0.1, -0.269, 0.003, -0.00098)

TABLE1: dict[str, dict[str, ParamPreset]] = {
    "N14": {
        "d": ParamPreset(2870.28e3, 0.03e3, -72.5, 0.5, -0.39),
        "q": ParamPreset(-4945.88, 0.01, 0.0355, 0.0003, 0.00022),
        "a_par": ParamPreset(-2165.19, 0.08, 0.197, 0.001, 0.00073),
        "a_perp": ParamPreset(-2635.0, 2.0, 0.154, 0.005, 0.00053),
    },
    "N15": {
        "d": ParamPreset(2870.38e3, 0.03e3, -72.0, 1.0, -0.40),
        "a_par": _A_PAR_N15,
        # No measured temperature dependence; follows a_par's fractional one.
        "a_perp": _following(3680.0, 20.0, _A_PAR_N15),
    },
}

# Fractional derivatives at 297 K (ppm/K) as quoted alongside TABLE1.
FRACTIONAL_PPM_PER_K = {
    ("N14", "d"): -25.3,
    ("N14", "q"): -7.17,
    ("N14", "a_par"): -91.0,
    ("N14", "a_perp"): -58.0,
    ("N15", "d"): -25.1,
    ("N15", "a_par"): -89.0,
}


@dataclass(frozen=True)
class TransitionFixture:
    """Reference transition frequency and temperature slope at 470 G, 297 K."""

    freq_khz: float
    freq_sigma_khz: float
    slope_hz_per_k: float
    slope_sigma_hz_per_k: float


TABLE3_BZ_G = 470.0

TABLE3: dict[str, TransitionFixture] = {
    "f1": TransitionFixture(5085.95, 0.01, -35.2, 0.2),
    "f2": TransitionFixture(4799.65, 0.01, -35.3, 0.2),
    "f3": TransitionFixture(2925.22, 0.08, 161.5, 0.7),
    "f4": TransitionFixture(6970.98, 0.08, -232.8, 0.7),
    "f5": TransitionFixture(7257.28, 0.08, -232.7, 0.7),
    "f6": TransitionFixture(2636.14, 0.08, 161.5, 0.7),
    "f1-f2": TransitionFixture(286.299, 0.002, 0.149, 0.008),
    "f5-f4": TransitionFixture(286.299, 0.002, 0.149, 0.008),
    "f3-f6": TransitionFixture(289.081, 0.002, -0.000, 0.005),
    "f7": TransitionFixture(205.89, 0.03, -0.31, 0.02),
    "f8": TransitionFixture(2825.8, 0.1, -268.0, 2.0),
    "f9": TransitionFixture(3234.8, 0.1, -269.0, 2.0),
}

# Measurement noise scale for synthetic electron (MW) lines, kHz.  The RF
# sigmas come from TABLE3; the MW lines are known to ODMR-level precision.
MW_SIGMA_KHZ = 2.0

# Reference ratios of temperature-insensitive quantities.
GAMMA_RATIO_N14 = 9113.9       # gamma_e / gamma_n(14N)
GAMMA_N_ISOTOPE_RATIO = 1.40285   # |gamma_n(15N) / gamma_n(14N)|
A_PAR_ISOTOPE_RATIO = 1.40096     # |A_par(15N) / A_par(14N)|


def line_sigma_khz(label: str) -> float:
    """Measurement sigma of a line, kHz: MW_SIGMA_KHZ for the electron
    lines, else its TABLE3 sigma."""
    if label.startswith(("fplus", "fminus")):
        return MW_SIGMA_KHZ
    return TABLE3[label].freq_sigma_khz


def thermal_presets(isotope: str | IsotopeSpec) -> dict[str, PolynomialModel]:
    """Degree-4 polynomial models (quadratic content) for one isotope."""
    iso = isotope if isinstance(isotope, IsotopeSpec) else get_isotope(isotope)
    return {name: preset.model() for name, preset in TABLE1[iso.name].items()}


def params_at(isotope: str | IsotopeSpec, temperature: float = T_REF_K) -> CouplingParams:
    """Coupling parameters evaluated at ``temperature`` from the presets."""
    iso = isotope if isinstance(isotope, IsotopeSpec) else get_isotope(isotope)
    return params_from_models(thermal_presets(iso), iso, temperature)

