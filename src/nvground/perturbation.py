"""Perturbative transition frequencies and misalignment response.

Closed-form expressions for the nuclear lines, organized in two tiers:
the lowest-order formulas in A_perp^2/(D +- gamma_e Bz), and the full
second/fourth-order forms that also carry the transverse-field (Bx^2)
response.  An exact-diagonalization cross-check runs the same transitions
through the Hamiltonian path, in extended precision where the shifts are
in the sub-Hz regime.

The perturbation series expands a Hamiltonian without the transverse
nuclear Zeeman term, so the series-vs-exact validations here diagonalize
that same reduced Hamiltonian (nuclear_transverse=False).  Point-shift
predictions meant to face experiment keep the full Hamiltonian; for f7
the distinction matters, because the dropped term interferes with the
A_perp pathway and scales the misalignment response down by about
gamma_n D / (A_perp gamma_e) ~ 12%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import CouplingParams, FieldConfig, IsotopeSpec
from .transitions import (
    LINES,
    TransitionSet,
    known_labels,
    nuclear_labels,
    transition_lines,
    transition_set,
)

# The series in 1/(D - gamma_e Bz) is trusted only this far from the
# ground-state level anti-crossing.
VALIDITY_FACTOR = 50.0


class ValidityMarginError(ValueError):
    """Field too close to the anti-crossing for the perturbative series."""


@dataclass(frozen=True)
class PerturbationContext:
    """Coupling parameters plus field, with F+- = D +- gamma_e Bz cached."""

    params: CouplingParams
    bz: float
    bx: float = 0.0

    @property
    def f_plus(self) -> float:
        return self.params.d + self.params.gamma_e * self.bz

    @property
    def f_minus(self) -> float:
        return self.params.d - self.params.gamma_e * self.bz

    def require_margin(self):
        limit = VALIDITY_FACTOR * abs(self.params.a_perp)
        if min(abs(self.f_minus), abs(self.f_plus)) <= limit:
            raise ValidityMarginError(
                f"|D - gamma_e Bz| = {abs(self.f_minus):.1f} kHz is within "
                f"{VALIDITY_FACTOR} x |A_perp| = {limit:.1f} kHz of the anti-crossing"
            )


@dataclass(frozen=True)
class AngularResponse:
    """Quadratic misalignment law: shift = 0.5 * beta * theta^2 * baseline."""

    beta: float
    baseline_khz: float
    transition: str


@dataclass(frozen=True)
class FieldModel:
    """Nuclear-Zeeman-dominated line: freq = baseline * (1 + fractional)."""

    freq_khz: float
    fractional_correction: float
    baseline_khz: float
    transition: str


def _as_set(freqs: dict[str, float], iso: IsotopeSpec) -> TransitionSet:
    """Nuclear-line formula values, plus fdq for 14NV."""
    lines = LINES[iso.name]
    if "fdq" in lines:
        a, b = lines["fdq"].minus
        freqs = {**freqs, "fdq": freqs[a] - freqs[b]}
    return TransitionSet(frequencies=freqs, isotope=iso.name)


def _second_order(ctx: PerturbationContext, iso: IsotopeSpec) -> dict[str, float]:
    """The lowest-order terms, also the leading terms of nuclear_freqs_full."""
    p = ctx.params
    fp, fm = ctx.f_plus, ctx.f_minus
    w = p.a_perp * p.a_perp
    if iso.name == "N14":
        q, a = abs(p.q), abs(p.a_par)
        gn = p.gamma_n * ctx.bz
        return {
            "f1": q + gn - w / fm,
            "f2": q - gn - w / fp,
            "f3": q - a + gn,
            "f4": q + a - gn + w / fm,
            "f5": q + a + gn + w / fp,
            "f6": q - a - gn,
        }
    a = p.a_par
    gn = abs(p.gamma_n) * ctx.bz
    return {
        "f7": gn + (w / 2) * (1 / fm - 1 / fp),
        "f8": a - gn - (w / 2) / fm,
        "f9": a + gn - (w / 2) / fp,
    }


def nuclear_freqs_2nd(ctx: PerturbationContext, iso: IsotopeSpec) -> TransitionSet:
    """Lowest-order nuclear frequencies in A_perp^2/F+- at Bx = 0."""
    ctx.require_margin()
    if ctx.bx != 0:
        raise ValueError("lowest-order formulas hold on axis; got Bx != 0")
    return _as_set(_second_order(ctx, iso), iso)


def nuclear_freqs_full(ctx: PerturbationContext, iso: IsotopeSpec) -> TransitionSet:
    """Second- plus fourth-order nuclear frequencies, including Bx^2 terms.

    The Bx^2 brackets use magnitudes of Q and A_par in their small
    denominators; they blow up when |Q| approaches |A_par| (14NV) or when
    the nuclear Zeeman splitting vanishes (15NV f7), and these cases raise.
    Each line is its nuclear_freqs_2nd value plus the higher-order terms.
    """
    ctx.require_margin()
    p = ctx.params
    fp, fm = ctx.f_plus, ctx.f_minus
    w = p.a_perp * p.a_perp
    x = (p.gamma_e * ctx.bx) ** 2 / 2
    fp2, fm2 = fp * fp, fm * fm
    sum_inv_sq = (1 / fp + 1 / fm) ** 2
    f = _second_order(ctx, iso)
    if iso.name == "N14":
        q, a = abs(p.q), abs(p.a_par)
        d_lo, d_hi = q - a, q + a
        if x != 0 and (q < 1e-9 or abs(d_lo) < 1e-9 or abs(d_hi) < 1e-9):
            raise ValueError("Q +- A_par too small for the transverse-field terms")
        freqs = {
            "f1": f["f1"]
            - w * (d_lo / fm2 + (2 * q - a) / fp2)
            + x * (w * (3 / q) * sum_inv_sq - a * (1 / fm2 - 1 / fp2)),
            "f2": f["f2"]
            - w * ((2 * q - a) / fm2 + d_lo / fp2)
            + x * (w * (3 / q) * sum_inv_sq + a * (1 / fm2 - 1 / fp2)),
            "f3": f["f3"]
            - w * (2 * q - a) / fm2
            + x * (w * (2 / d_lo + 1 / d_hi) / fm2 + a / fm2),
            "f4": f["f4"]
            - w * q / fm2
            + x * (w * (1 / d_lo + 2 / d_hi) / fm2 - a / fm2),
            "f5": f["f5"]
            - w * q / fp2
            + x * (w * (1 / d_lo + 2 / d_hi) / fp2 - a / fp2),
            "f6": f["f6"]
            - w * (2 * q - a) / fp2
            + x * (w * (2 / d_lo + 1 / d_hi) / fp2 + a / fp2),
        }
    else:
        a = p.a_par
        gn = abs(p.gamma_n) * ctx.bz
        if x != 0 and (abs(a) < 1e-9 or abs(gn) < 1e-9):
            raise ValueError("A_par or gamma_n Bz too small for the transverse-field terms")
        freqs = {
            "f7": f["f7"]
            + (w / 4) * (a / fm2 - a / fp2)
            + (x * ((w / gn) * sum_inv_sq - a * (1 / fm2 - 1 / fp2)) if x != 0 else 0.0),
            "f8": f["f8"]
            - (w / 4) * (a / fm2)
            + (x * (w / a - a) / fm2 if x != 0 else 0.0),
            "f9": f["f9"]
            - (w / 4) * (a / fp2)
            + (x * (w / a - a) / fp2 if x != 0 else 0.0),
        }
    return _as_set(freqs, iso)


def _ms0_baseline(p: CouplingParams, bz: float, transition: str) -> float:
    """Nuclear Zeeman baseline of fdq (2 |gamma_n| Bz) or f7 (|gamma_n| Bz),
    after checking the validity margin and the transition name."""
    PerturbationContext(params=p, bz=bz).require_margin()
    if transition not in ("fdq", "f7"):
        raise ValueError(f"transition must be 'fdq' or 'f7', got {transition!r}")
    return (2 if transition == "fdq" else 1) * abs(p.gamma_n) * bz


def beta_coefficient(p: CouplingParams, bz: float, transition: str) -> AngularResponse:
    """Quadratic misalignment coefficient for fdq (14NV) or f7 (15NV).

    fdq responds through a second-order cross term of A_par with the
    transverse electron Zeeman coupling; f7 through a fourth-order term in
    A_perp that is resonantly enhanced by the small nuclear splitting.
    """
    baseline = _ms0_baseline(p, bz, transition)
    denom = (p.d * p.d - (p.gamma_e * bz) ** 2) ** 2
    if transition == "fdq":
        beta = -(p.gamma_e / abs(p.gamma_n)) * (
            4 * abs(p.a_par) * p.d * (p.gamma_e * bz) ** 2 / denom
        )
    else:
        beta = (p.gamma_e / p.gamma_n) ** 2 * (4 * p.a_perp**2 * p.d**2 / denom)
    return AngularResponse(beta=beta, baseline_khz=baseline, transition=transition)


def fdq_f7_field_model(p: CouplingParams, bz: float, transition: str) -> FieldModel:
    """Field model of the ms = 0 manifold lines (nuclear Zeeman + A_perp^2)."""
    baseline = _ms0_baseline(p, bz, transition)
    frac = (p.gamma_e / abs(p.gamma_n)) * p.a_perp**2 / (p.d**2 - (p.gamma_e * bz) ** 2)
    if transition == "fdq":
        frac = -frac
    return FieldModel(
        freq_khz=baseline * (1 + frac),
        fractional_correction=frac,
        baseline_khz=baseline,
        transition=transition,
    )


def exact_angular_shift(
    p: CouplingParams,
    iso: IsotopeSpec,
    bz: float,
    theta_rad: float,
    transition: str,
    nuclear_transverse: bool = True,
):
    """f(theta) - f(0) at fixed Bz, with Bx = Bz tan(theta).

    Uses extended precision (longdouble): at low field the fdq shift sits
    around 1e-8 kHz, beneath double-precision eigenvalue noise.
    """

    def line(bx: float):
        field = FieldConfig(bz=bz, bx=bx)
        return transition_set(p, field, iso, np.longdouble, nuclear_transverse)[transition]

    return line(bz * math.tan(theta_rad)) - line(0.0)


# Angles (degrees) small enough for the theta^2 term to dominate the shift.
BETA_THETAS_DEG = (0.02, 0.05, 0.1)


def exact_beta_estimates(
    p: CouplingParams,
    iso: IsotopeSpec,
    bz: float,
    transition: str,
) -> np.ndarray:
    """Quadratic-law coefficients 2*shift/(theta^2 * baseline) per BETA_THETAS_DEG angle.

    The exact side drops the transverse nuclear Zeeman term, matching the
    Hamiltonian the beta formulas expand.  All angles and theta = 0 are one
    longdouble kernel batch.
    """
    baseline = beta_coefficient(p, bz, transition).baseline_khz
    thetas = [math.radians(theta_deg) for theta_deg in BETA_THETAS_DEG]
    fields = [FieldConfig(bz=bz)] + [FieldConfig(bz=bz, bx=bz * math.tan(t)) for t in thetas]
    lines = transition_lines(p, fields, iso, np.longdouble, nuclear_transverse=False)[0]
    f = lines[:, known_labels(iso).index(transition)]
    return np.array([float(2 * (fk - f[0]) / (t * t * baseline)) for fk, t in zip(f[1:], thetas)])


def residuals_vs_exact(
    p: CouplingParams,
    iso: IsotopeSpec,
    bz_values,
    bx_values,
    order: str = "full",
) -> dict[str, float]:
    """Max |perturbative - exact| per nuclear line over a field grid (kHz).

    Exact diagonalization runs without the transverse nuclear Zeeman term
    so that the comparison isolates genuine series-truncation error.
    """
    formula = nuclear_freqs_full if order == "full" else nuclear_freqs_2nd
    names = nuclear_labels(iso)
    columns = [known_labels(iso).index(name) for name in names]
    perts, fields = [], []
    try:
        for bz in bz_values:
            for bx in bx_values:
                ctx = PerturbationContext(params=p, bz=float(bz), bx=float(bx))
                perts.append(formula(ctx, iso))
                fields.append(FieldConfig(bz=float(bz), bx=float(bx)))
    finally:
        # One exact batch over the points reached, also when the series
        # gave up at a later point: a refusal at an earlier point comes
        # first, as it would point by point.
        exact = transition_lines(p, fields, iso, nuclear_transverse=False)[0]
    worst: dict[str, float] = {}
    for pert, lines in zip(perts, exact):
        for name, column in zip(names, columns):
            resid = abs(pert[name] - lines[column])
            if resid > worst.get(name, 0.0):
                worst[name] = float(resid)
    return worst
