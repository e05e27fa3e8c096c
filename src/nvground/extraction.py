"""Inverse problem: measured frequencies -> coupling parameters.

The fit vector mirrors the forward model's natural parametrization:
(D, gamma_e*Bz, Q, A_par, A_perp, gamma_e*Bx, gamma_e/gamma_n), with Q
dropped for 15NV.  Model frequencies come from exact diagonalization;
the weighted squared error is minimized with the simplex optimizer.
gamma_e itself is an external constant, so Bz and gamma_n in physical
units appear only at reporting time.

The simplex runs in whitened coordinates.  One Jacobian of the
sigma-weighted lines at the guess (the kernel's Hellmann-Feynman
derivative stack at the guess, a batch of one, through the chain rule of
_coefficient_row) is taken apart by its SVD J = U S V^T over the directions
the lines resolve (_FLAT_RTOL); the origin moves to the Gauss-Newton point
x_gn = x0 - V S^-1 U^T r0, and the simplex searches z with
x = x_gn + V S^-1 z.  A unit of z moves the chi^2 by about one, so every
direction is in sigma units, where the raw kHz coordinates differ in
scale by up to 1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (
    FitConvergenceError,
    NonFiniteObjectiveError,
    PolynomialModel,
    nelder_mead,
    polyfit_weighted,
)
from .spin_core import (
    GAMMA_E_KHZ_PER_G,
    CouplingParams,
    FieldConfig,
    IsotopeSpec,
    _coefficients,
    _require_finite,
    _weights,
)
from .transitions import (
    _ROW_MAP,
    AmbiguousLabelingError,
    _kernel,
    _row_index,
    known_labels,
    transition_set,  # unused here; perfbench's tracer pins this binding site
)

# Thermal models are polynomials of this degree in (T - T_REF_K).
T_REF_K = 297.0
THERMAL_DEGREE = 4


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

    def to_physical(self) -> tuple[CouplingParams, FieldConfig]:
        g = GAMMA_E_KHZ_PER_G
        params = CouplingParams(self.d, self.q, self.a_par, self.a_perp, gamma_n=g / self.gamma_ratio)
        return params, FieldConfig(self.gamma_e_bz / g, self.gamma_e_bx / g)  # Bx folds onto +x

    @classmethod
    def from_physical(
        cls, isotope: str, p: CouplingParams, f: FieldConfig
    ) -> "ParamVector":
        g = GAMMA_E_KHZ_PER_G
        return cls(
            isotope=isotope,
            d=p.d,
            q=p.q,
            a_par=p.a_par,
            a_perp=p.a_perp,
            gamma_e_bz=g * f.bz,
            gamma_e_bx=g * f.bx,
            gamma_ratio=g / p.gamma_n,
        )


@dataclass(frozen=True, slots=True)
class FitResult:
    """One temperature's fit.  ``iterations`` and ``n_evals`` count its one
    Nelder-Mead run, each evaluation one forward-model solve; a field in
    ``unresolved`` keeps its guess value to SVD rounding (about 1e-14 kHz).
    ``dof`` is the number of lines less the directions they resolve."""

    params: ParamVector
    objective: float
    residuals: dict[str, float]  # model - measured, kHz
    unresolved: tuple[str, ...]  # free fields held at the guess: the lines are flat there
    iterations: int
    n_evals: int
    dof: int


def _coefficient_row(x: np.ndarray, iso: IsotopeSpec, dc: np.ndarray | None = None):
    """The one map from a fit array ``x`` (PARAM_FIELDS order) to the
    _coefficients row (8,) and field point (Bz, |Bx|) of
    ParamVector(x).to_physical(), by their float operations, with their
    refusals in their order: gamma_ratio 0, non-finite couplings, field.  A
    15NV x has no Q (its row's is 0).  Given the derivatives ``dc`` (8, M) of
    M quantities with respect to the row, also theirs with respect to x,
    (M, len(x)), by the chain rule (dc = np.eye(8) gives the row's own):
    c4 = -gamma_e_bz / r and c7 = -|gamma_e_bx| / r with r = gamma_ratio."""
    if iso.name == "N14":
        d, gamma_e_bz, q, a_par, a_perp, gamma_e_bx, r = x.tolist()
    else:
        (d, gamma_e_bz, a_par, a_perp, gamma_e_bx, r), q = x.tolist(), 0.0
    g = GAMMA_E_KHZ_PER_G
    gamma_n = g / r
    bz, bx = gamma_e_bz / g, abs(gamma_e_bx / g)
    _require_finite("coupling parameters", d, q, a_par, a_perp, gamma_n)
    _require_finite("field components", bz, bx)
    row = np.array(_weights(d, q, a_par, a_perp, gamma_n, bz, bx))
    if dc is None:
        return row, (bz, bx)
    by_field = dict(
        d=dc[0], q=dc[1], a_par=dc[2], a_perp=dc[5],
        gamma_e_bz=dc[3] - dc[4] / r,
        gamma_e_bx=math.copysign(1.0, gamma_e_bx) * (dc[6] - dc[7] / r),
        # r * r overflows to inf (a flat column); a Python float's r**2 raises
        gamma_ratio=(gamma_e_bz * dc[4] + abs(gamma_e_bx) * dc[7]) / (r * r),
    )
    return row, (bz, bx), np.column_stack([by_field[name] for name in PARAM_FIELDS[iso.name]])


def model_frequencies(x: np.ndarray, iso: IsotopeSpec, labels) -> np.ndarray:
    """Forward model: exact-diagonalization frequencies for the fit labels at
    the fit array ``x`` (PARAM_FIELDS order), the bits and refusals of
    transition_set at ParamVector(x).to_physical(), without its objects."""
    row, point = _coefficient_row(x, iso)
    return _kernel(row[None], iso, [point])[0, _row_index(iso.name, tuple(labels))]


def _jacobian(vec: ParamVector, iso: IsotopeSpec, labels) -> tuple[np.ndarray, np.ndarray]:
    """Model frequencies for ``labels`` at ``vec`` and their derivatives with
    respect to every fit field, (M,) and (M, len(vec.fields())): the
    kernel's derivative stack at vec.to_physical(), a batch of one, through
    _coefficient_row's chain rule.  The objects refuse the guess, in their
    order: a non-finite coupling, the field, a 15NV Q != 0 (_coefficients)."""
    p, f = vec.to_physical()
    point = [(f.bz, f.bx)]
    (lines,), (dlines,) = _kernel(_coefficients(p, point, iso), iso, point, derivatives=True)
    rows = _row_index(iso.name, tuple(labels))
    return lines[rows], _coefficient_row(vec.as_array(), iso, dlines[rows].T)[2]


# The relative chi^2 noise floor: the deterministic jitter that eigensolver
# rounding puts on the objective, and the one source of the fit's stopping
# rules.  In the whitened coordinates z (sigma units along each resolved
# direction; the first simplex steps 1e-3 sigma from z = 0) a step of
# sqrt(floor) = 1e-4 sigma moves the chi^2 by about the floor, so that is
# the finest extent (tol_x) the objective can tell apart; tol_f, 10 floors
# = 1e-7, stays above the jitter.  Both values are exact in float64.
CHI2_NOISE_FLOOR = 1e-8
_FIT_TOLERANCES = dict(tol_f=10 * CHI2_NOISE_FLOOR, tol_x=math.sqrt(CHI2_NOISE_FLOOR))

# A direction whose singular value, or a free field whose sigma-weighted
# column norm, is below _FLAT_RTOL of the largest is one the lines do not
# resolve (gamma_e_bx at Bx = 0, where the spectrum is even in Bx).  It
# gets no step, so the fit holds it at the guess.
_FLAT_RTOL = 1e-9


def _whitened(jac: np.ndarray, r0: np.ndarray, x0: np.ndarray):
    """Origin and basis of the simplex coordinates z, x = origin + basis @ z,
    from the sigma-weighted Jacobian ``jac`` and residuals ``r0`` at x0: the
    Gauss-Newton point and V S^-1 over the resolved directions (see the
    module docstring); and the x0 indices the flat directions lie along."""
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    solid = s > _FLAT_RTOL * s.max(initial=0.0)
    origin = x0 - vt[solid].T @ ((u[:, solid].T @ r0) / s[solid])
    flat = np.unique(np.abs(vt[~solid]).argmax(axis=1))
    return origin, vt[solid].T * (1 / s[solid]), flat


def extract_params(
    ms: MeasurementSet,
    guess: ParamVector,
    fixed: tuple[str, ...] = (),
) -> FitResult:
    """Least-squares extraction of the coupling parameters at one temperature.

    ``fixed`` names parameters pinned at their guess value; a free one the
    lines do not resolve (gamma_e_bx at an on-axis guess) is held there too
    and named in FitResult.unresolved, and needs no entry: ``ms`` needs one
    entry per other free parameter.  The entries are fitted in known_labels
    order, so their order in ``ms`` does not change a bit of the result.
    A 15NV guess with Q != 0 is refused (ValueError) by its own first solve.
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
    if not len(free):
        raise ValueError(f"T = {ms.temperature} K: every parameter is fixed; nothing to fit")
    order = known_labels(ms.isotope)
    entries = sorted(ms.entries, key=lambda e: order.index(e.label))
    labels = tuple(e.label for e in entries)
    measured = np.array([e.freq_khz for e in entries])
    sigmas = np.array([e.sigma_khz for e in entries])  # > 0 and finite: MeasurementSet
    full = guess.as_array()

    def chi2(model: np.ndarray) -> tuple[np.ndarray, float]:
        r = (model - measured) / sigmas  # the one sigma-weighted residual, and r . r
        return r, float(r @ r)

    def at_temperature(err: Exception) -> Exception:
        err.args = (f"T = {ms.temperature} K: {err}",)  # same type, so the same exit code
        return err

    def trial(z: np.ndarray) -> np.ndarray:
        x = full.copy()
        x[free] = origin + basis @ z
        return x

    def labeling_failed(x: np.ndarray, err: AmbiguousLabelingError):
        point = dict(zip(fields, x.tolist()))
        return AmbiguousLabelingError(f"labeling failed at trial point {point}: {err}")

    x0 = full[free]
    try:
        model0, jac = _jacobian(guess, ms.isotope, labels)
    except AmbiguousLabelingError as err:
        raise at_temperature(labeling_failed(full, err)) from err
    weighted = jac[:, free] / sigmas[:, None]
    # A flat column's field is held, so it needs no line; an SVD of fewer
    # rows than columns may have no flat direction for it.
    norms = np.linalg.norm(weighted, axis=0)
    flat_columns = np.flatnonzero(norms <= _FLAT_RTOL * norms.max())
    if len(ms.entries) < len(free) - len(flat_columns):
        raise ValueError(
            f"T = {ms.temperature} K: {len(ms.entries)} measurements cannot "
            f"determine {len(free) - len(flat_columns)} parameters"
        )
    r0, f0 = chi2(model0)
    if not math.isfinite(f0):
        raise at_temperature(NonFiniteObjectiveError(x0, f0))
    origin, basis, flat = _whitened(weighted, r0, x0)
    if not basis.shape[1]:
        raise ValueError(f"T = {ms.temperature} K: the lines resolve no free parameter")

    def objective(z: np.ndarray) -> float:
        x = trial(z)
        try:
            model = model_frequencies(x, ms.isotope, labels)
        except AmbiguousLabelingError as err:
            raise labeling_failed(x, err) from err
        return chi2(model)[1]

    try:
        result = nelder_mead(objective, np.zeros(basis.shape[1]), **_FIT_TOLERANCES)
    except NonFiniteObjectiveError as err:
        point = origin + basis @ err.point
        raise at_temperature(NonFiniteObjectiveError(point, err.value)) from None
    except AmbiguousLabelingError as err:
        raise at_temperature(err)
    if not result.converged:
        raise FitConvergenceError(
            f"fit at T = {ms.temperature} K did not converge in {result.iterations} iterations"
        )
    best = trial(result.x_min)
    model = dict(zip(labels, model_frequencies(best, ms.isotope, labels)))
    residuals = {e.label: float(model[e.label] - e.freq_khz) for e in ms.entries}
    return FitResult(
        params=guess.with_array(best),
        objective=result.f_min,
        residuals=residuals,
        unresolved=tuple(fields[i] for i in free[np.union1d(flat, flat_columns)]),
        iterations=result.iterations,
        n_evals=result.n_evals,
        dof=len(labels) - basis.shape[1],
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
        model = polyfit_weighted(temps[order], values, ones, THERMAL_DEGREE, T_REF_K)
        value, rate = model.value(T_REF_K), model.derivative(T_REF_K)
        if not all(map(math.isfinite, (value, rate, model.residual_rms))):
            raise ValueError(
                f"the {name} thermal model is not finite: at {T_REF_K:g} K its value is "
                f"{value:.6g} and its rate {rate:.6g} per K; its residual rms is "
                f"{model.residual_rms:.6g}"
            )
        models[name] = model
    return models


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
    solve, at any field: the field does not depend on T, so the slopes are
    the kernel's derivative stack contracted with the coefficient rates of
    the models' derived() polynomials.  The splittings are contracted first
    and go through the row map after, so in kHz/K a difference row's slope
    is the difference of its two, exactly.  No temperature step is taken,
    so the slopes are exact at the ends of the models' range too.  Returns
    (freqs, slopes), keyed in LINES row order: kHz and Hz/K."""
    params = params_from_models(models, iso, temperature)
    rates = params_from_models({n: m.derived() for n, m in models.items()}, iso, temperature)
    point = [(field.bz, field.bx)]
    (lines,), (dlines,) = _kernel(_coefficients(params, point, iso), iso, point, derivatives=True)
    names, _, _, rows, split_rows = _ROW_MAP[iso.name]
    slopes = (dlines[split_rows] @ _coefficients(rates, [(0.0, 0.0)], iso)[0]) @ rows
    return dict(zip(names, lines.tolist())), dict(zip(names, (1e3 * slopes).tolist()))
