"""Inverse problem: measured frequencies -> coupling parameters.

The fit vector mirrors the forward model's natural parametrization:
(D, gamma_e*Bz, Q, A_par, A_perp, gamma_e*Bx, gamma_e/gamma_n), with Q
dropped for 15NV.  Model frequencies come from exact diagonalization;
the weighted squared error is minimized with the simplex optimizer.
gamma_e itself is an external constant, so Bz and gamma_n in physical
units appear only at reporting time.

The simplex runs in whitened coordinates.  One Jacobian of the
sigma-weighted lines at the guess (Hellmann-Feynman, from the guess's own
diagonalization) is taken apart by its SVD J = U S V^T; the origin moves
to the Gauss-Newton point x_gn = x0 - V S^-1 U^T r0, and the simplex
searches z with x = x_gn + V S^-1 z.  A unit of z then moves the chi^2 by
about one, so every direction is in sigma units, where the raw kHz
coordinates differ in scale by up to 1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (
    FitConvergenceError,
    NonFiniteObjectiveError,
    PolynomialModel,
    _ZERO_STEP,
    nelder_mead,
    polyfit_weighted,
    weighted_objective,
)
from .spin_core import GAMMA_E_KHZ_PER_G, CouplingParams, FieldConfig, IsotopeSpec, _coefficients
from .transitions import (
    AmbiguousLabelingError,
    _kernel,
    _row_index,
    known_labels,
    line_derivatives,
    line_slopes,
    transition_set,  # unused here; perfbench's tracer pins this binding site
)

# Thermal models are polynomials of this degree in (T - T_REF_K).
T_REF_K = 297.0
THERMAL_DEGREE = 4

# Hyperfine decomposition scales (kHz): contact term per unit |cs|^2 eta,
# dipolar term per unit |cp|^2 eta.
FERMI_CONTACT_SCALE_KHZ = 1.811e6
DIPOLAR_SCALE_KHZ = 55.52e3


class InconsistentModelError(ValueError):
    """The requested reading of the hyperfine decomposition has no solution."""


@dataclass(frozen=True, slots=True)
class MeasurementEntry:
    label: str
    freq_khz: float
    sigma_khz: float


@dataclass(frozen=True, slots=True)
class MeasurementSet:
    """Measured transitions at one temperature, with uncertainties."""

    temperature: float
    isotope: IsotopeSpec
    entries: tuple[MeasurementEntry, ...]

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        valid = set(known_labels(self.isotope))
        seen = set()
        for e in self.entries:
            if e.label not in valid:
                raise ValueError(f"unknown transition {e.label!r} for {self.isotope.name}")
            if e.label in seen:
                raise ValueError(f"{e.label} is listed twice at {self.temperature} K")
            seen.add(e.label)
            if not (math.isfinite(e.freq_khz) and math.isfinite(e.sigma_khz)):
                raise ValueError(f"frequency and sigma for {e.label} must be finite")
            if e.sigma_khz <= 0:
                raise ValueError(f"sigma for {e.label} must be positive")


PARAM_FIELDS = {
    "N14": ("d", "gamma_e_bz", "q", "a_par", "a_perp", "gamma_e_bx", "gamma_ratio"),
    "N15": ("d", "gamma_e_bz", "a_par", "a_perp", "gamma_e_bx", "gamma_ratio"),
}


@dataclass(frozen=True, slots=True)
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
        given = dict(zip(self.fields(), np.asarray(values, dtype=float).tolist(), strict=True))
        return ParamVector(**{"isotope": self.isotope, "q": self.q, **given})

    # What _coefficients reads of CouplingParams beside d, q, a_par and a_perp:
    gamma_e = GAMMA_E_KHZ_PER_G
    gamma_n = property(lambda self: GAMMA_E_KHZ_PER_G / self.gamma_ratio)

    def to_physical(self) -> tuple[CouplingParams, FieldConfig]:
        params = CouplingParams(
            d=self.d,
            q=self.q,
            a_par=self.a_par,
            a_perp=self.a_perp,
            gamma_n=self.gamma_n,
        )
        return params, FieldConfig(*self.field_point())

    def field_point(self) -> tuple[float, float]:
        """(Bz, |Bx|) in Gauss, as FieldConfig keeps them."""
        return self.gamma_e_bz / GAMMA_E_KHZ_PER_G, abs(self.gamma_e_bx / GAMMA_E_KHZ_PER_G)

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


@dataclass(frozen=True, slots=True)
class FitResult:
    params: ParamVector
    objective: float
    residuals: dict[str, float]  # model - measured, kHz
    converged: bool
    iterations: int
    n_evals: int


def model_frequencies(vec: ParamVector, iso: IsotopeSpec, labels) -> np.ndarray:
    """Forward model: exact-diagonalization frequencies for the fit labels, the
    bits and refusals of transition_set at vec.to_physical(), without its objects."""
    point = vec.field_point()
    lines = _kernel(_coefficients(vec, [point], iso), iso, [point])[0]
    return lines[0, _row_index(iso.name, tuple(labels))]


def _jacobian(vec: ParamVector, iso: IsotopeSpec, labels) -> tuple[np.ndarray, np.ndarray]:
    """Model frequencies for ``labels`` at ``vec`` and their derivatives with
    respect to every fit field, (M,) and (M, len(vec.fields())), from one
    diagonalization (transitions.line_derivatives).  The chain rule runs
    from the fields to the eight coefficients of H: c0..c2 and c5 are d, q,
    a_par and a_perp; c3 = gamma_e_bz, c4 = -gamma_e_bz / r, c6 = |gamma_e_bx|
    and c7 = -|gamma_e_bx| / r, with r = gamma_ratio (the field folds Bx
    onto +x)."""
    lines, dlines = line_derivatives(*vec.to_physical(), iso)
    rows = _row_index(iso.name, tuple(labels))
    dc = dlines[rows].T
    r, bx_sign = vec.gamma_ratio, math.copysign(1.0, vec.gamma_e_bx)
    by_field = {
        "d": dc[0],
        "q": dc[1],
        "a_par": dc[2],
        "a_perp": dc[5],
        "gamma_e_bz": dc[3] - dc[4] / r,
        "gamma_e_bx": bx_sign * (dc[6] - dc[7] / r),
        "gamma_ratio": (vec.gamma_e_bz * dc[4] + abs(vec.gamma_e_bx) * dc[7]) / r**2,
    }
    return lines[rows], np.column_stack([by_field[name] for name in vec.fields()])


# The relative chi^2 noise floor: the deterministic jitter that eigensolver
# rounding puts on the objective, and the one source of the fit's stopping
# rules.  In the whitened coordinates z (sigma units, see the module
# docstring; the first simplex steps _ZERO_STEP = 1e-3 sigma from z = 0) a
# step of sqrt(floor) = 1e-4 sigma moves the chi^2 by about the floor, so
# that is the finest extent (tol_x) the objective can tell apart; tol_f and
# the restart tolerance, 10 floors = 1e-7, stay above the jitter.  Both
# values are exact in float64.
CHI2_NOISE_FLOOR = 1e-8
_FIT_TOLERANCES = dict(tol_f=10 * CHI2_NOISE_FLOOR, tol_x=math.sqrt(CHI2_NOISE_FLOOR))

# The simplex is rebuilt at the current best vertex and rerun until a
# converged run improves the objective by no more than _RESTART_RTOL; a
# fresh full-rank simplex reliably unsticks degenerate collapses.
MAX_RESTARTS = 5
_RESTART_RTOL = 10 * CHI2_NOISE_FLOOR

# A direction whose singular value is below _FLAT_RTOL of the largest is
# one the lines do not resolve (gamma_e_bx at Bx = 0, where the spectrum is
# even in Bx).  It gets no Gauss-Newton step, and a z unit that keeps the
# raw-coordinate simplex's size: _RAW_SIMPLEX_SCALE of each coordinate, or
# _ZERO_STEP where it is 0.
_FLAT_RTOL = 1e-9
_RAW_SIMPLEX_SCALE = 1e-5


def _whitened(jac: np.ndarray, r0: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origin and basis of the simplex coordinates z, x = origin + basis @ z,
    from the sigma-weighted Jacobian ``jac`` and residuals ``r0`` at x0: the
    Gauss-Newton point and V S^-1 (see the module docstring)."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    solid = s > _FLAT_RTOL * s.max(initial=0.0)
    origin = x0 - vt[solid].T @ ((u[:, solid].T @ r0) / s[solid])
    raw_step = np.where(x0 != 0, _RAW_SIMPLEX_SCALE * np.abs(x0), _ZERO_STEP)
    scale = np.linalg.norm(vt * raw_step, axis=1) / _ZERO_STEP
    scale[solid] = 1 / s[solid]
    return origin, vt.T * scale


def extract_params(
    ms: MeasurementSet,
    guess: ParamVector,
    fixed: tuple[str, ...] = (),
) -> FitResult:
    """Least-squares extraction of the coupling parameters at one temperature.

    ``fixed`` names parameters pinned at their guess value (useful for
    gamma_e_bx on deliberately on-axis synthetic data, where the objective
    is flat in that direction).  The entries are fitted in known_labels
    order, so their order in ``ms`` does not change a bit of the result.
    """
    if guess.isotope != ms.isotope.name:
        raise ValueError(
            f"T = {ms.temperature} K: the guess is {guess.isotope}, the measurements "
            f"are {ms.isotope.name}"
        )
    fields = guess.fields()
    for name in fixed:
        if name not in fields:
            raise ValueError(f"cannot fix unknown parameter {name!r}")
    free = np.array([i for i, name in enumerate(fields) if name not in fixed], dtype=np.intp)
    if len(ms.entries) < len(free):
        raise ValueError(
            f"T = {ms.temperature} K: {len(ms.entries)} measurements cannot "
            f"determine {len(free)} parameters"
        )
    order = known_labels(ms.isotope)
    entries = sorted(ms.entries, key=lambda e: order.index(e.label))
    labels = [e.label for e in entries]
    measured = np.array([e.freq_khz for e in entries])
    sigmas = np.array([e.sigma_khz for e in entries])
    chi2 = weighted_objective(measured, sigmas)
    full = guess.as_array()

    def at_temperature(err: Exception) -> Exception:
        err.args = (f"T = {ms.temperature} K: {err}",)  # same type, so the same exit code
        return err

    def trial(xfree: np.ndarray) -> ParamVector:
        x = full.copy()
        x[free] = xfree
        return guess.with_array(x)

    def labeling_failed(vec: ParamVector, err: AmbiguousLabelingError):
        point = dict(zip(fields, vec.as_array().tolist()))
        return AmbiguousLabelingError(f"labeling failed at trial point {point}: {err}")

    x0 = full[free]
    try:
        model0, jac = _jacobian(guess, ms.isotope, labels)
    except AmbiguousLabelingError as err:
        raise at_temperature(labeling_failed(guess, err)) from err
    f0 = chi2(model0)
    if not math.isfinite(f0):
        raise at_temperature(NonFiniteObjectiveError(x0, f0))
    origin, basis = _whitened(jac[:, free] / sigmas[:, None], (model0 - measured) / sigmas, x0)

    def objective(z: np.ndarray) -> float:
        vec = trial(origin + basis @ z)
        try:
            model = model_frequencies(vec, ms.isotope, labels)
        except AmbiguousLabelingError as err:
            raise labeling_failed(vec, err) from err
        return chi2(model)

    start = np.zeros(len(free))
    iterations = evals = 0
    result = None
    previous_f = None
    for _ in range(1 + MAX_RESTARTS):
        try:
            result = nelder_mead(objective, start, **_FIT_TOLERANCES)
        except NonFiniteObjectiveError as err:
            point = origin + basis @ err.point
            raise at_temperature(NonFiniteObjectiveError(point, err.value)) from None
        except AmbiguousLabelingError as err:
            raise at_temperature(err)
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
    best = trial(origin + basis @ result.x_min)
    model = dict(zip(labels, model_frequencies(best, ms.isotope, labels)))
    residuals = {e.label: float(model[e.label] - e.freq_khz) for e in ms.entries}
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
    field: FieldConfig,
    iso: IsotopeSpec,
) -> tuple[dict[str, float], dict[str, float]]:
    """Exact-diagonalization line table with exact dT slopes from the same
    solve, at any field: the field does not depend on T, so the rates are
    those of the models' derived() polynomials (transitions.line_slopes).
    Returns (freqs, slopes), keyed in LINES row order: kHz and Hz/K."""
    params = params_from_models(models, iso, temperature)
    rates = params_from_models({n: m.derived() for n, m in models.items()}, iso, temperature)
    freqs, slopes = line_slopes(params, rates, field, iso)
    return (
        {label: float(f) for label, f in freqs.items()},
        {label: float(1e3 * slope) for label, slope in slopes.items()},
    )
