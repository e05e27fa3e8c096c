"""Perturbative transition frequencies and misalignment response.

Closed-form expressions for the nuclear lines, organized in two tiers:
the lowest-order formulas in A_perp^2/(D +- gamma_e Bz), and the full
second/fourth-order forms that also carry the transverse-field (Bx^2)
response.  An exact-diagonalization cross-check runs the same transitions
through the Hamiltonian path, in extended precision where the shifts are
in the sub-Hz regime.

The perturbation series expands a Hamiltonian without the transverse
nuclear Zeeman term -gamma_n Bx Ix, so the series-vs-exact validations
here diagonalize that same reduced Hamiltonian (_reduced_lines).
Point-shift predictions meant to face experiment keep the full
Hamiltonian; for f7 the distinction matters, because the dropped term
interferes with the A_perp pathway and scales the misalignment response
down by about gamma_n D / (A_perp gamma_e) ~ 12%.

The series take Bz >= 0: the spectrum at -Bz is the +Bz one mirrored
(see transitions).  The same mirror writes each pair of lines once:
f2, f6, f5 and f9 are f1, f3, f4 and f8 with gamma_n Bz -> -gamma_n Bz
and F- = D - gamma_e Bz <-> F+ = D + gamma_e Bz (_mirror_half).

The ms = 0 line's functions take the isotope and no line name (ms0_line
picks the line), so no call can pair one isotope's parameters with the
other's line.
"""

from __future__ import annotations

import math

import numpy as np

from .spin_core import (
    GAMMA_E_KHZ_PER_G,
    CouplingParams,
    FieldConfig,
    IsotopeSpec,
    StateLabel,
    _coefficients,
)
from .transitions import LINES, _kernel, _row_index, nuclear_labels, transition_lines
from .transitions import transition_set  # unused here; perfbench's tracer pins this binding site

# The series in 1/(D - gamma_e Bz) is trusted only this far from the
# ground-state level anti-crossing.
VALIDITY_FACTOR = 50.0


class ValidityMarginError(ValueError):
    """Field too close to the anti-crossing for the perturbative series, Bz < 0, or not finite."""


def _require_margin(p: CouplingParams, bz: float, bx: float = 0.0) -> None:
    if not (math.isfinite(bz) and math.isfinite(bx)):  # NaN passes every check below
        raise ValidityMarginError(f"the field must be finite, not Bz = {bz} G, Bx = {bx} G")
    if bz < 0:  # the formulas are odd in Bz (f7 = |gamma_n| Bz + ...); -Bz mirrors the lines
        raise ValidityMarginError(
            f"the perturbative formulas take Bz >= 0, not {bz:g} G; "
            "the spectrum at -Bz is the +Bz one"
        )
    f_minus = p.d - GAMMA_E_KHZ_PER_G * bz
    limit = VALIDITY_FACTOR * abs(p.a_perp)
    if min(abs(f_minus), abs(p.d + GAMMA_E_KHZ_PER_G * bz)) <= limit:
        raise ValidityMarginError(
            f"|D - gamma_e Bz| = {abs(f_minus):.1f} kHz is within "
            f"{VALIDITY_FACTOR} x |A_perp| = {limit:.1f} kHz of the anti-crossing"
        )


def _mirror_half(p: CouplingParams, iso: IsotopeSpec, g: float, fm: float, fp: float, higher=None):
    """f1, f3, f4 (14NV) or f8 (15NV) at nuclear Zeeman term g (gamma_n Bz,
    or |gamma_n| Bz for 15NV) and F-, F+ = fm, fp: the lowest order, or the
    full series with ``higher`` = (x, (1/F+ + 1/F-)^2), x = (gamma_e Bx)^2 / 2.
    At (-g, fp, fm) the same terms are their mirror partners f2, f6, f5 or f9.
    """
    w = p.a_perp * p.a_perp
    if iso.name == "N14":
        q, a = abs(p.q), abs(p.a_par)
        f1, f3, f4 = q + g - w / fm, q - a + g, q + a - g + w / fm
        if higher is None:
            return f1, f3, f4
        x, sum_inv_sq = higher
        fm2, fp2 = fm * fm, fp * fp
        d_lo, d_hi = q - a, q + a
        return (
            f1
            - w * (d_lo / fm2 + (2 * q - a) / fp2)
            + x * (w * (3 / q) * sum_inv_sq - a * (1 / fm2 - 1 / fp2)),
            f3 - w * (2 * q - a) / fm2 + x * (w * (2 / d_lo + 1 / d_hi) / fm2 + a / fm2),
            f4 - w * q / fm2 + x * (w * (1 / d_lo + 2 / d_hi) / fm2 - a / fm2),
        )
    a = p.a_par
    f8 = a - g - (w / 2) / fm
    if higher is None:
        return (f8,)
    x, fm2 = higher[0], fm * fm
    return (f8 - (w / 4) * (a / fm2) + (x * (w / a - a) / fm2 if x != 0 else 0.0),)


def _series(p: CouplingParams, iso: IsotopeSpec, bz: float, higher=None) -> dict[str, float]:
    """Every nuclear line of the series in LINES order, plus the series' own
    fdq = f1 - f2 (which holds for Bz >= 0): the lowest order, or the full
    series with ``higher`` as in _mirror_half.  Each mirror pair is one
    _mirror_half at (g, F-, F+) and at (-g, F+, F-); f7 is its own partner.
    """
    fp, fm = p.d + GAMMA_E_KHZ_PER_G * bz, p.d - GAMMA_E_KHZ_PER_G * bz
    if iso.name == "N14":
        gn = p.gamma_n * bz
        f1, f3, f4 = _mirror_half(p, iso, gn, fm, fp, higher)
        f2, f6, f5 = _mirror_half(p, iso, -gn, fp, fm, higher)
        return {"f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5, "f6": f6, "fdq": f1 - f2}
    w, a, gn = p.a_perp * p.a_perp, p.a_par, abs(p.gamma_n) * bz
    f7 = gn + (w / 2) * (1 / fm - 1 / fp)
    if higher is not None:
        (x, sum_inv_sq), fm2, fp2 = higher, fm * fm, fp * fp
        f7 = (
            f7
            + (w / 4) * (a / fm2 - a / fp2)
            + (x * ((w / gn) * sum_inv_sq - a * (1 / fm2 - 1 / fp2)) if x != 0 else 0.0)
        )
    (f8,) = _mirror_half(p, iso, gn, fm, fp, higher)
    (f9,) = _mirror_half(p, iso, -gn, fp, fm, higher)
    return {"f7": f7, "f8": f8, "f9": f9}


def nuclear_freqs_2nd(p: CouplingParams, iso: IsotopeSpec, bz: float) -> dict[str, float]:
    """Lowest-order nuclear frequencies in A_perp^2/F+- on axis (Bx = 0)."""
    _require_margin(p, bz)
    return _series(p, iso, bz)


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
    fp, fm = p.d + GAMMA_E_KHZ_PER_G * bz, p.d - GAMMA_E_KHZ_PER_G * bz
    x = (GAMMA_E_KHZ_PER_G * bx) ** 2 / 2
    higher = x, (1 / fp + 1 / fm) ** 2
    if x != 0:
        q, a = abs(p.q), abs(p.a_par)
        if iso.name == "N14" and (q < 1e-9 or abs(q - a) < 1e-9):  # so q + a >= 1e-9 too
            raise ValueError("Q +- A_par too small for the transverse-field terms")
        if iso.name == "N15" and (a < 1e-9 or abs(p.gamma_n) * bz < 1e-9):
            raise ValueError("A_par or gamma_n Bz too small for the transverse-field terms")
    return _series(p, iso, bz, higher)


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
    denom = (p.d * p.d - (GAMMA_E_KHZ_PER_G * bz) ** 2) ** 2
    if iso.name == "N14":
        return -(GAMMA_E_KHZ_PER_G / abs(p.gamma_n)) * (
            4 * abs(p.a_par) * p.d * (GAMMA_E_KHZ_PER_G * bz) ** 2 / denom
        )
    return (GAMMA_E_KHZ_PER_G / p.gamma_n) ** 2 * (4 * p.a_perp**2 * p.d**2 / denom)


def exact_angular_shift(p: CouplingParams, iso: IsotopeSpec, bz: float, theta_rad: float):
    """f(theta) - f(0) of the ms = 0 line at fixed Bz, with Bx = Bz tan(theta),
    in longdouble: at low field the fdq shift sits near 1e-8 kHz, beneath
    float64 eigenvalue noise.  Both fields are one kernel batch (each with
    the bits of a batch of one); every call solves the axial field again,
    so an n-angle scan makes the 2n solves the benchmark's tracer pins.
    """
    fields = [FieldConfig(bz=bz, bx=bz * math.tan(theta_rad)), FieldConfig(bz=bz)]
    f = transition_lines(p, fields, iso, np.longdouble)[:, _row_index(iso.name, (ms0_line(iso),))[0]]
    return f[0] - f[1]


def _reduced_lines(p: CouplingParams, fields, iso: IsotopeSpec, dtype=np.float64) -> np.ndarray:
    """Exact lines (N, L), in LINES row order, of the reduced Hamiltonian at
    FieldConfigs ``fields``: the kernel on the _coefficients rows with the
    -gamma_n Bx Ix weight (column 7) zeroed."""
    points = [(f.bz, f.bx) for f in fields]
    rows = _coefficients(p, points, iso, dtype).reshape(-1, 8)  # (0, 8) for no fields
    rows[:, 7] = 0
    return _kernel(rows, iso, points)


# Angles (degrees) small enough for the theta^2 term to dominate the shift.
BETA_THETAS_DEG = (0.02, 0.05, 0.1)


def exact_beta_estimates(p: CouplingParams, iso: IsotopeSpec, bz: float) -> np.ndarray:
    """Quadratic-law coefficients 2*shift/(theta^2 * baseline) of the ms = 0
    line, per BETA_THETAS_DEG angle.

    The exact side is the reduced Hamiltonian the beta formulas expand
    (_reduced_lines).  All angles and theta = 0 are one longdouble kernel
    batch.
    """
    baseline = ms0_baseline(p, iso, bz)
    thetas = [math.radians(theta_deg) for theta_deg in BETA_THETAS_DEG]
    fields = [FieldConfig(bz=bz)] + [FieldConfig(bz=bz, bx=bz * math.tan(t)) for t in thetas]
    lines = _reduced_lines(p, fields, iso, np.longdouble)
    f = lines[:, _row_index(iso.name, (ms0_line(iso),))[0]]
    return np.array([float(2 * (fk - f[0]) / (t * t * baseline)) for fk, t in zip(f[1:], thetas)])


def residuals_vs_exact(
    p: CouplingParams,
    iso: IsotopeSpec,
    bz_values,
    bx_values,
    order: str = "full",
) -> dict[str, float]:
    """Max |perturbative - exact| per nuclear line over a field grid (kHz).

    Exact diagonalization runs on the reduced Hamiltonian (_reduced_lines)
    so that the comparison isolates genuine series-truncation error.
    """
    if order not in ("full", "2nd"):
        raise ValueError(f"order must be 'full' or '2nd', not {order!r}")
    names = nuclear_labels(iso)
    columns = _row_index(iso.name, names)
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
        exact = _reduced_lines(p, fields, iso)
    worst: dict[str, float] = {}
    for pert, lines in zip(perts, exact):
        for name, column in zip(names, columns):
            resid = abs(pert[name] - lines[column])
            if resid > worst.get(name, 0.0):
                worst[name] = float(resid)
    return worst
