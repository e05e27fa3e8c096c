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

import numpy as np

from .spin_core import CouplingParams, FieldConfig, IsotopeSpec, StateLabel
from .transitions import LINES, nuclear_labels, transition_lines, transition_set

# The series in 1/(D - gamma_e Bz) is trusted only this far from the
# ground-state level anti-crossing.
VALIDITY_FACTOR = 50.0


class ValidityMarginError(ValueError):
    """Field too close to the anti-crossing for the perturbative series, Bz < 0, or not finite."""


def _require_margin(p: CouplingParams, bz: float, bx: float = 0.0) -> None:
    if not (math.isfinite(bz) and math.isfinite(bx)):  # NaN passes every check below
        raise ValidityMarginError(f"the field must be finite, not Bz = {bz} G, Bx = {bx} G")
    if bz < 0:  # the formulas are odd in Bz (f7 = |gamma_n| Bz + ...), the lines even
        raise ValidityMarginError(
            f"the perturbative formulas take Bz >= 0, not {bz:g} G; "
            "the spectrum at -Bz is the +Bz one"
        )
    f_minus = p.d - p.gamma_e * bz
    limit = VALIDITY_FACTOR * abs(p.a_perp)
    if min(abs(f_minus), abs(p.d + p.gamma_e * bz)) <= limit:
        raise ValidityMarginError(
            f"|D - gamma_e Bz| = {abs(f_minus):.1f} kHz is within "
            f"{VALIDITY_FACTOR} x |A_perp| = {limit:.1f} kHz of the anti-crossing"
        )


def _with_fdq(freqs: dict[str, float], iso: IsotopeSpec) -> dict[str, float]:
    """Nuclear-line formula values, plus fdq for 14NV."""
    lines = LINES[iso.name]
    if "fdq" in lines:
        a, b = lines["fdq"].minus
        freqs["fdq"] = freqs[a] - freqs[b]
    return freqs


def _second_order(p: CouplingParams, iso: IsotopeSpec, bz: float) -> dict[str, float]:
    """The lowest-order terms, also the leading terms of nuclear_freqs_full."""
    fp, fm = p.d + p.gamma_e * bz, p.d - p.gamma_e * bz
    w = p.a_perp * p.a_perp
    if iso.name == "N14":
        q, a = abs(p.q), abs(p.a_par)
        gn = p.gamma_n * bz
        return {
            "f1": q + gn - w / fm,
            "f2": q - gn - w / fp,
            "f3": q - a + gn,
            "f4": q + a - gn + w / fm,
            "f5": q + a + gn + w / fp,
            "f6": q - a - gn,
        }
    a = p.a_par
    gn = abs(p.gamma_n) * bz
    return {
        "f7": gn + (w / 2) * (1 / fm - 1 / fp),
        "f8": a - gn - (w / 2) / fm,
        "f9": a + gn - (w / 2) / fp,
    }


def nuclear_freqs_2nd(p: CouplingParams, iso: IsotopeSpec, bz: float) -> dict[str, float]:
    """Lowest-order nuclear frequencies in A_perp^2/F+- on axis (Bx = 0)."""
    _require_margin(p, bz)
    return _with_fdq(_second_order(p, iso, bz), iso)


def nuclear_freqs_full(
    p: CouplingParams, iso: IsotopeSpec, bz: float, bx: float
) -> dict[str, float]:
    """Second- plus fourth-order nuclear frequencies, including Bx^2 terms.

    The Bx^2 brackets use magnitudes of Q and A_par in their small
    denominators; they blow up when |Q| approaches |A_par| (14NV) or when
    the nuclear Zeeman splitting vanishes (15NV f7), and these cases raise.
    Each line is its nuclear_freqs_2nd value plus the higher-order terms.
    """
    _require_margin(p, bz, bx)
    fp, fm = p.d + p.gamma_e * bz, p.d - p.gamma_e * bz
    w = p.a_perp * p.a_perp
    x = (p.gamma_e * bx) ** 2 / 2
    fp2, fm2 = fp * fp, fm * fm
    sum_inv_sq = (1 / fp + 1 / fm) ** 2
    f = _second_order(p, iso, bz)
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
        gn = abs(p.gamma_n) * bz
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
    return _with_fdq(freqs, iso)


def ms0_line(iso: IsotopeSpec) -> str:
    """The ms = 0 line between mI = -I and +I, the one whose temperature
    and misalignment response the paper reports: fdq (14NV) or f7 (15NV)."""
    ends = {StateLabel(0, -iso.nuclear_spin), StateLabel(0, iso.nuclear_spin)}
    return next(name for name, line in LINES[iso.name].items() if set(line.levels or ()) == ends)


def ms0_baseline(p: CouplingParams, iso: IsotopeSpec, bz: float) -> float:
    """Nuclear Zeeman baseline 2I |gamma_n| Bz of the ms = 0 line, after
    checking the validity margin.

    The field model of that line (nuclear Zeeman + A_perp^2) is its
    lowest-order value, nuclear_freqs_2nd(p, iso, bz)[ms0_line(iso)]; its
    fractional correction is that value over this baseline, minus 1.
    """
    _require_margin(p, bz)
    return 2 * iso.nuclear_spin * abs(p.gamma_n) * bz


def beta_coefficient(p: CouplingParams, iso: IsotopeSpec, bz: float) -> float:
    """Quadratic misalignment coefficient beta of the ms = 0 line (ms0_line):
    shift = 0.5 * beta * theta^2 * ms0_baseline(p, iso, bz).

    fdq (14NV) responds through a second-order cross term of A_par with the
    transverse electron Zeeman coupling; f7 (15NV) through a fourth-order
    term in A_perp that is resonantly enhanced by the small nuclear splitting.
    """
    _require_margin(p, bz)
    denom = (p.d * p.d - (p.gamma_e * bz) ** 2) ** 2
    if iso.name == "N14":
        return -(p.gamma_e / abs(p.gamma_n)) * (
            4 * abs(p.a_par) * p.d * (p.gamma_e * bz) ** 2 / denom
        )
    return (p.gamma_e / p.gamma_n) ** 2 * (4 * p.a_perp**2 * p.d**2 / denom)


def exact_angular_shift(p: CouplingParams, iso: IsotopeSpec, bz: float, theta_rad: float):
    """f(theta) - f(0) of the ms = 0 line at fixed Bz, with Bx = Bz tan(theta).

    Uses extended precision (longdouble): at low field the fdq shift sits
    around 1e-8 kHz, beneath double-precision eigenvalue noise.
    """
    name = ms0_line(iso)

    def line(bx: float):
        return transition_set(p, FieldConfig(bz=bz, bx=bx), iso, np.longdouble)[name]

    return line(bz * math.tan(theta_rad)) - line(0.0)


# Angles (degrees) small enough for the theta^2 term to dominate the shift.
BETA_THETAS_DEG = (0.02, 0.05, 0.1)


def exact_beta_estimates(p: CouplingParams, iso: IsotopeSpec, bz: float) -> np.ndarray:
    """Quadratic-law coefficients 2*shift/(theta^2 * baseline) of the ms = 0
    line, per BETA_THETAS_DEG angle.

    The exact side drops the transverse nuclear Zeeman term, matching the
    Hamiltonian the beta formulas expand.  All angles and theta = 0 are one
    longdouble kernel batch.
    """
    baseline = ms0_baseline(p, iso, bz)
    thetas = [math.radians(theta_deg) for theta_deg in BETA_THETAS_DEG]
    fields = [FieldConfig(bz=bz)] + [FieldConfig(bz=bz, bx=bz * math.tan(t)) for t in thetas]
    lines = transition_lines(p, fields, iso, np.longdouble, nuclear_transverse=False)[0]
    f = lines[:, list(LINES[iso.name]).index(ms0_line(iso))]
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
    if order not in ("full", "2nd"):
        raise ValueError(f"order must be 'full' or '2nd', not {order!r}")
    names = nuclear_labels(iso)
    columns = [list(LINES[iso.name]).index(name) for name in names]
    perts, fields = [], []
    try:
        for bz in map(float, bz_values):
            for bx in map(float, bx_values):
                if order == "full":
                    perts.append(nuclear_freqs_full(p, iso, bz, bx))
                else:
                    perts.append(nuclear_freqs_2nd(p, iso, bz))
                    if bx != 0:
                        raise ValueError("lowest-order formulas hold on axis; got Bx != 0")
                fields.append(FieldConfig(bz=bz, bx=bx))
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
