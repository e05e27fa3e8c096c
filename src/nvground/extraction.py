"""Inverse problem: measured frequencies -> coupling parameters.

The fit vector mirrors the forward model's natural parametrization:
(D, gamma_e*Bz, Q, A_par, A_perp, gamma_e*Bx, gamma_e/gamma_n), with Q
dropped for 15NV.  Model frequencies come from exact diagonalization;
the weighted squared error is minimized with the simplex optimizer.
gamma_e itself is an external constant, so Bz and gamma_n in physical
units appear only at reporting time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (
    FitConvergenceError,
    OptimOptions,
    PolynomialModel,
    _weighted_objective_of,
    nelder_mead,
    polyfit_weighted,
)
from .spin_core import GAMMA_E_KHZ_PER_G, CouplingParams, FieldConfig, IsotopeSpec
from .transitions import AmbiguousLabelingError, known_labels, line_slopes, transition_set

# Thermal models are polynomials of this degree in (T - T_REF_K).
T_REF_K = 297.0
THERMAL_DEGREE = 4

# Hyperfine decomposition scales (kHz): contact term per unit |cs|^2 eta,
# dipolar term per unit |cp|^2 eta.
FERMI_CONTACT_SCALE_KHZ = 1.811e6
DIPOLAR_SCALE_KHZ = 55.52e3


class InconsistentModelError(ValueError):
    """The requested reading of the hyperfine decomposition has no solution."""


@dataclass(frozen=True)
class MeasurementEntry:
    label: str
    freq_khz: float
    sigma_khz: float


@dataclass(frozen=True)
class MeasurementSet:
    """Measured transitions at one temperature, with uncertainties."""

    temperature: float
    isotope: IsotopeSpec
    entries: tuple[MeasurementEntry, ...]

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        valid = set(known_labels(self.isotope))
        for e in self.entries:
            if e.label not in valid:
                raise ValueError(f"unknown transition {e.label!r} for {self.isotope.name}")
            if not (math.isfinite(e.freq_khz) and math.isfinite(e.sigma_khz)):
                raise ValueError(f"frequency and sigma for {e.label} must be finite")
            if e.sigma_khz <= 0:
                raise ValueError(f"sigma for {e.label} must be positive")


PARAM_FIELDS = {
    "N14": ("d", "gamma_e_bz", "q", "a_par", "a_perp", "gamma_e_bx", "gamma_ratio"),
    "N15": ("d", "gamma_e_bz", "a_par", "a_perp", "gamma_e_bx", "gamma_ratio"),
}


@dataclass(frozen=True)
class ParamVector:
    """Fit parametrization; kHz except the dimensionless gamma_ratio.

    gamma_ratio = gamma_e / gamma_n is signed (negative for 15NV).
    """

    isotope: str
    d: float
    gamma_e_bz: float
    a_par: float
    a_perp: float
    gamma_ratio: float
    q: float = 0.0
    gamma_e_bx: float = 0.0

    def fields(self) -> tuple[str, ...]:
        return PARAM_FIELDS[self.isotope]

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.fields()], dtype=float)

    def with_array(self, values) -> "ParamVector":
        updates = zip(self.fields(), np.asarray(values, dtype=float).tolist())
        return type(self)(**vars(self) | dict(updates))

    def to_physical(self) -> tuple[CouplingParams, FieldConfig]:
        gamma_n = GAMMA_E_KHZ_PER_G / self.gamma_ratio
        params = CouplingParams(
            d=self.d,
            q=self.q,
            a_par=self.a_par,
            a_perp=self.a_perp,
            gamma_n=gamma_n,
        )
        field = FieldConfig(
            bz=self.gamma_e_bz / GAMMA_E_KHZ_PER_G,
            bx=self.gamma_e_bx / GAMMA_E_KHZ_PER_G,
        )
        return params, field

    @classmethod
    def from_physical(
        cls, isotope: str, p: CouplingParams, f: FieldConfig
    ) -> "ParamVector":
        return cls(
            isotope=isotope,
            d=p.d,
            q=p.q,
            a_par=p.a_par,
            a_perp=p.a_perp,
            gamma_e_bz=p.gamma_e * f.bz,
            gamma_e_bx=p.gamma_e * f.bx,
            gamma_ratio=p.gamma_e / p.gamma_n,
        )


@dataclass(frozen=True)
class FitResult:
    params: ParamVector
    objective: float
    residuals: dict[str, float]  # model - measured, kHz
    converged: bool
    iterations: int
    n_evals: int


def model_frequencies(vec: ParamVector, iso: IsotopeSpec, labels) -> np.ndarray:
    """Forward model: exact-diagonalization frequencies for the fit labels."""
    params, field = vec.to_physical()
    freqs = transition_set(params, field, iso).frequencies
    return np.array([freqs[label] for label in labels], dtype=float)


# The simplex is rebuilt at the current best vertex and rerun until a
# converged run no longer improves the objective; a fresh full-rank
# simplex reliably unsticks degenerate collapses.
MAX_RESTARTS = 5
_RESTART_RTOL = 1e-7

# Extraction-specific simplex settings.  Parameter uncertainties sit many
# orders below the parameters themselves (sub-kHz against D ~ 2.87 GHz),
# so the initial simplex is scaled down accordingly.  The objective
# carries a deterministic jitter floor near 1e-9 (eigensolver rounding
# propagated through the chi^2), which caps how small an objective spread
# is meaningful; 1e-7 stays well above it while pinning parameters far
# beyond statistical precision.
_FIT_OPTIONS = OptimOptions(initial_simplex_scale=1e-5, tol_f=1e-7, tol_x=1e-9)


def extract_params(
    ms: MeasurementSet,
    guess: ParamVector,
    fixed: tuple[str, ...] = (),
) -> FitResult:
    """Least-squares extraction of the coupling parameters at one temperature.

    ``fixed`` names parameters pinned at their guess value (useful for
    gamma_e_bx on deliberately on-axis synthetic data, where the objective
    is flat in that direction).
    """
    fields = guess.fields()
    for name in fixed:
        if name not in fields:
            raise ValueError(f"cannot fix unknown parameter {name!r}")
    free = [i for i, name in enumerate(fields) if name not in fixed]
    if len(ms.entries) < len(free):
        raise ValueError(
            f"T = {ms.temperature} K: {len(ms.entries)} measurements cannot "
            f"determine {len(free)} parameters"
        )
    labels = [e.label for e in ms.entries]
    measured = np.array([e.freq_khz for e in ms.entries])
    chi2 = _weighted_objective_of(measured, [e.sigma_khz for e in ms.entries])
    full = guess.as_array()

    def objective(xfree: np.ndarray) -> float:
        x = full.copy()
        x[free] = xfree
        vec = guess.with_array(x)
        try:
            model = model_frequencies(vec, ms.isotope, labels)
        except AmbiguousLabelingError as err:
            raise AmbiguousLabelingError(
                f"labeling failed at trial point {dict(zip(fields, x))}: {err}"
            ) from err
        return chi2(model)

    start = full[free]
    iterations = evals = 0
    result = None
    previous_f = None
    for _ in range(1 + MAX_RESTARTS):
        result = nelder_mead(objective, start, _FIT_OPTIONS)
        iterations += result.iterations
        evals += result.n_evals
        start = result.x_min
        done = (
            result.converged
            and previous_f is not None
            and previous_f - result.f_min <= _RESTART_RTOL * max(1.0, abs(previous_f))
        )
        if done:
            break
        previous_f = result.f_min
    if not (result.converged and done):
        raise FitConvergenceError(
            f"fit at T = {ms.temperature} K did not converge in {iterations} iterations"
        )
    x = full.copy()
    x[free] = result.x_min
    best = guess.with_array(x)
    model = model_frequencies(best, ms.isotope, labels)
    residuals = {label: float(m - y) for label, m, y in zip(labels, model, measured)}
    return FitResult(
        params=best,
        objective=result.f_min,
        residuals=residuals,
        converged=result.converged,
        iterations=iterations,
        n_evals=evals,
    )


# Coupling parameters whose temperature dependence is physical (field
# quantities gamma_e_b* drift with the magnet, not the diamond).
THERMAL_PARAMS = {
    iso: tuple(name for name in names if name not in ("gamma_e_bz", "gamma_e_bx"))
    for iso, names in PARAM_FIELDS.items()
}

MIN_THERMAL_POINTS = 5
MIN_THERMAL_SPAN_K = 100.0


def thermal_models(series: list[tuple[float, FitResult]]) -> dict[str, PolynomialModel]:
    """Fit each parameter's temperature dependence: THERMAL_DEGREE about T_REF_K."""
    if not series:
        raise ValueError("empty fit series")
    temps = np.array([t for t, _ in series], dtype=float)
    if len(temps) < MIN_THERMAL_POINTS:
        raise ValueError(f"need at least {MIN_THERMAL_POINTS} temperatures")
    if temps.max() - temps.min() < MIN_THERMAL_SPAN_K:
        raise ValueError(
            f"temperature span {temps.max() - temps.min():.0f} K below "
            f"{MIN_THERMAL_SPAN_K:.0f} K; derivatives would be unconstrained"
        )
    iso = series[0][1].params.isotope
    order = np.argsort(temps, kind="stable")
    ones = np.ones_like(temps)
    models = {}
    for name in THERMAL_PARAMS[iso]:
        values = np.array([getattr(series[i][1].params, name) for i in order])
        models[name] = polyfit_weighted(temps[order], values, ones, THERMAL_DEGREE, T_REF_K)
    return models


@dataclass(frozen=True)
class AnisotropyResult:
    """Contact/dipolar split of the hyperfine coupling and orbital content."""

    fermi_f: float  # A_par + 2 A_perp, kHz, signed
    dipolar_d: float  # A_par - A_perp, kHz, signed
    eta: float
    cs2: float
    cp2: float
    hybridization_ratio: float  # cp2 / cs2


def anisotropy(a_par: float, a_perp: float, contact_reading: str = "cs2") -> AnisotropyResult:
    """Decompose (A_par, A_perp) into contact/dipolar terms and orbital content.

    With |cs|^2 + |cp|^2 = 1: |f| = 1811 MHz * |cs|^2 eta and
    |d| = 55.52 MHz * |cp|^2 eta.  contact_reading="one_minus_cs2" exercises
    the alternative normalization in which the contact term carries
    (1 - |cs|^2): both equations then constrain the same product |cp|^2 eta,
    which the data contradict, so that reading raises.
    """
    f = a_par + 2 * a_perp
    d = a_par - a_perp
    if f == 0:
        raise ValueError("Fermi contact term vanishes; orbital split undefined")
    cs2_eta = abs(f) / FERMI_CONTACT_SCALE_KHZ
    cp2_eta = abs(d) / DIPOLAR_SCALE_KHZ
    if contact_reading == "one_minus_cs2":
        raise InconsistentModelError(
            "with the contact term proportional to (1-|cs|^2) = |cp|^2, both "
            f"equations determine |cp|^2 eta, but they disagree: {cs2_eta:.4g} "
            f"(contact) vs {cp2_eta:.4g} (dipolar)"
        )
    if contact_reading != "cs2":
        raise ValueError("contact_reading must be 'cs2' or 'one_minus_cs2'")
    eta = cs2_eta + cp2_eta
    cs2 = cs2_eta / eta
    cp2 = cp2_eta / eta
    if cs2 == 0:
        raise ValueError("pure p character; hybridization ratio undefined")
    return AnisotropyResult(
        fermi_f=f,
        dipolar_d=d,
        eta=eta,
        cs2=cs2,
        cp2=cp2,
        hybridization_ratio=cp2 / cs2,
    )


@dataclass(frozen=True)
class TransitionTable:
    """Frequencies and temperature slopes at one (T, Bz) point."""

    temperature: float
    bz: float
    isotope: str
    rows: tuple[tuple[str, float, float], ...]  # (label, kHz, Hz/K)

    def freq(self, label: str) -> float:
        return {r[0]: r[1] for r in self.rows}[label]

    def slope(self, label: str) -> float:
        return {r[0]: r[2] for r in self.rows}[label]


def params_from_models(
    models: dict[str, PolynomialModel], iso: IsotopeSpec, temperature: float
) -> CouplingParams:
    """Coupling coefficients from thermal models at a temperature (q is 0 when
    absent), or their temperature rates from the models' derived()
    polynomials.  The one map from models to CouplingParams: gamma_n is the
    isotope's, so a gamma_ratio model is range-checked but never read."""
    for name, model in models.items():
        if not model.covers(temperature):
            raise ValueError(
                f"temperature {temperature} K outside the {name} model range "
                f"[{model.t_min}, {model.t_max}] K"
            )
    return CouplingParams(
        d=models["d"].value(temperature),
        q=models["q"].value(temperature) if "q" in models else 0.0,
        a_par=models["a_par"].value(temperature),
        a_perp=models["a_perp"].value(temperature),
        gamma_n=iso.gamma_n,
    )


def transition_table(
    models: dict[str, PolynomialModel],
    temperature: float,
    bz: float,
    iso: IsotopeSpec,
) -> TransitionTable:
    """Exact-diagonalization line table with exact dT slopes from the same
    solve: the field does not depend on T, so the rates are those of the
    models' derived() polynomials (transitions.line_slopes)."""
    params = params_from_models(models, iso, temperature)
    rates = params_from_models({n: m.derived() for n, m in models.items()}, iso, temperature)
    freqs, slopes = line_slopes(params, rates, FieldConfig(bz=bz), iso)
    rows = tuple((label, float(f), float(1e3 * slopes[label])) for label, f in freqs.items())
    return TransitionTable(temperature=temperature, bz=bz, isotope=iso.name, rows=rows)
