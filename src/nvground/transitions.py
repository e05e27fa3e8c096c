"""Eigenstate labeling and named transition frequencies.

Eigenstates are tagged with the (ms, mI) basis label of their dominant
component, which realizes the standard transition naming: f1..f6 for the
14NV nuclear lines, f7..f9 for 15NV, fplus_*/fminus_* for the electron
(MW) lines, fdq = f1 - f2 for the 14NV double-quantum transition, and
the 14NV difference rows such as f1-f2.  ``LINES`` is the one list of
these names and their order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .eigensolve import eigh
from .spin_core import (
    ISOTOPES,
    CouplingParams,
    FieldConfig,
    IsotopeSpec,
    StateLabel,
    _coefficients,
    _hamiltonians,
    _structure,
    basis_labels,
)

# Below this squared overlap the dominant-component assignment is
# rejected as ambiguous.  Kept above 0.5, which makes the assignment a
# bijection (see _level_order).
OVERLAP_THRESHOLD = 0.6


class AmbiguousLabelingError(RuntimeError):
    """Eigenvector-to-basis-label assignment is not clean at this field."""


def format_mi(mi: float) -> str:
    """Render a nuclear projection as +1, 0, -1, +1/2 or -1/2."""
    twice = round(2 * mi)
    if twice % 2 == 0:
        n = twice // 2
        return f"+{n}" if n > 0 else str(n)
    return f"+{twice}/2" if twice > 0 else f"{twice}/2"


def mw_label(sign: int, mi: float) -> str:
    return ("fplus_" if sign > 0 else "fminus_") + format_mi(mi)


@dataclass(frozen=True)
class Line:
    """A named line: the splitting of two levels, the difference of two
    other lines, or both (fdq connects (0, -1) and (0, +1), and its value is
    f1 - f2).
    """

    levels: tuple[StateLabel, StateLabel] | None = None
    minus: tuple[str, str] | None = None


def _line_table(iso: IsotopeSpec) -> dict[str, Line]:
    """Every named line of one isotope, in report row order.

    The nuclear level pairs were validated against the f1..f9
    operating-field values of the source data.
    """
    s = StateLabel
    if iso.name == "N14":
        lines = {
            "f1": Line((s(0, 0.0), s(0, 1.0))),
            "f2": Line((s(0, 0.0), s(0, -1.0))),
            "f3": Line((s(-1, 0.0), s(-1, 1.0))),
            "f4": Line((s(-1, 0.0), s(-1, -1.0))),
            "f5": Line((s(1, 0.0), s(1, 1.0))),
            "f6": Line((s(1, 0.0), s(1, -1.0))),
            "fdq": Line((s(0, -1.0), s(0, 1.0)), minus=("f1", "f2")),
        }
        for a, b in (("f1", "f2"), ("f5", "f4"), ("f3", "f6")):
            lines[f"{a}-{b}"] = Line(minus=(a, b))
    else:
        lines = {
            "f7": Line((s(0, -0.5), s(0, 0.5))),
            "f8": Line((s(-1, 0.5), s(-1, -0.5))),
            "f9": Line((s(1, 0.5), s(1, -0.5))),
        }
    i = iso.nuclear_spin
    for mi in (i - k for k in range(round(2 * i + 1))):
        lines[mw_label(+1, mi)] = Line((s(1, mi), s(0, mi)))
        lines[mw_label(-1, mi)] = Line((s(-1, mi), s(0, mi)))
    return lines


LINES = {name: _line_table(iso) for name, iso in ISOTOPES.items()}


def known_labels(iso: IsotopeSpec) -> tuple[str, ...]:
    """The lines between two levels: every row but the pure difference rows."""
    return tuple(name for name, line in LINES[iso.name].items() if line.levels)


def nuclear_labels(iso: IsotopeSpec) -> tuple[str, ...]:
    """f1..f6 (14NV) or f7..f9 (15NV): splittings within one ms manifold."""
    return tuple(
        name
        for name, line in LINES[iso.name].items()
        if line.levels and not line.minus and line.levels[0].ms == line.levels[1].ms
    )


def _row_map(iso: IsotopeSpec):
    """The table as arrays: every row name, the basis indices a and b of
    the splittings (every row that is no difference of two others), the
    (splittings, rows) matrix of 0/+-1 that turns the splittings into the
    rows, and the index of each splitting's own row.  Each column has at
    most two nonzero entries, so the product is exact: a splitting row is
    its splitting, a difference row is x - y.
    """
    lines = LINES[iso.name]
    names = tuple(lines)
    splits = [name for name, line in lines.items() if not line.minus]
    index = {label: k for k, label in enumerate(basis_labels(iso))}
    a, b = np.array([[index[s] for s in lines[name].levels] for name in splits]).T
    rows = np.zeros((len(splits), len(lines)))
    for col, (name, line) in enumerate(lines.items()):
        plus, minus = line.minus or (name, None)
        rows[splits.index(plus), col] = 1
        if minus:
            rows[splits.index(minus), col] = -1
    return names, a, b, rows, np.array([names.index(name) for name in splits])


_ROW_MAP = {name: _row_map(iso) for name, iso in ISOTOPES.items()}


@dataclass(frozen=True)
class TransitionSet:
    """Named transition frequencies (kHz) at one field point."""

    frequencies: Mapping[str, float]
    isotope: str

    def __getitem__(self, label: str) -> float:
        return self.frequencies[label]


def _level_order(vectors: np.ndarray) -> np.ndarray:
    """The eigenpair each basis state labels (the eigenvector with its largest
    squared component there), for eigenvectors (d, d) or (..., d, d).  Raises
    AmbiguousLabelingError if an eigenvector's largest squared component is
    below OVERLAP_THRESHOLD, as near anti-crossings (gamma_e * Bz near D); in
    a stack, for the first refused matrix, its stack index kept as ``index``.
    """
    weights = vectors * vectors
    # A unit row or column holds at most one squared entry >= the threshold (> 0.5):
    # with as many as columns, each row's largest names its eigenpair one to one.
    if np.count_nonzero(weights >= OVERLAP_THRESHOLD) < weights.size // weights.shape[-1]:
        k, overlaps = weights.argmax(axis=-2), weights.max(axis=-2)
        at = np.unravel_index(np.argmax(overlaps < OVERLAP_THRESHOLD), overlaps.shape)
        err = AmbiguousLabelingError(
            f"eigenstate {at[-1]} has max squared overlap {overlaps[at]:.3f} < "
            f"{OVERLAP_THRESHOLD} (closest basis state {k[at]})"
        )
        err.index = at[:-1]
        raise err
    return weights.argmax(axis=-1)


def label_states(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level energies and eigenvectors in basis order, for one eigensystem
    ((d,), (d, d)) or a stack: level k (energies[k], vectors[:, k]) is the
    eigenpair that basis state k labels (_level_order)."""
    pair = _level_order(vectors)
    return np.take_along_axis(values, pair, -1), np.take_along_axis(vectors, pair[..., None, :], -1)


def _kernel(coefficients: np.ndarray, iso: IsotopeSpec, points):
    """The forward kernel: _coefficients rows (N, 8) at (bz, bx) ``points`` ->
    one H stack, eigh and labeling -> lines (N, L) in LINES row order,
    energies (N, d) in basis order, and eigenvectors in eigh's order with
    their _level_order for the caller that reads them.  Each point gets the
    bits of a batch of one; a refusal names the first refused point."""
    values, vectors = eigh(_hamiltonians(coefficients, iso))
    try:
        order = _level_order(vectors)
    except AmbiguousLabelingError as err:
        bz, bx = points[err.index[0]]
        raise AmbiguousLabelingError(f"at Bz = {bz} G, Bx = {bx} G ({iso.name}): {err}") from err
    energies = values[np.arange(len(order))[:, None], order]
    _, a, b, rows, _ = _ROW_MAP[iso.name]
    # take: about half the cost of energies[:, a] on these small arrays
    lines = np.abs(energies.take(a, axis=1) - energies.take(b, axis=1)) @ rows
    return lines, energies, vectors, order


@functools.lru_cache
def _row_index(iso_name: str, labels: tuple[str, ...]) -> np.ndarray:
    """The LINES row index of each label; KeyError(label) for an unknown one."""
    index = {name: i for i, name in enumerate(LINES[iso_name])}
    return np.array([index[label] for label in labels], dtype=np.intp)


def transition_lines(
    p: CouplingParams, fields, iso: IsotopeSpec, dtype=np.float64, nuclear_transverse: bool = True
):
    """The kernel's (lines (N, L), energies (N, d)) at FieldConfigs ``fields``;
    ``dtype`` and ``nuclear_transverse`` as in build_hamiltonian."""
    points = [(f.bz, f.bx) for f in fields]
    return _kernel(_coefficients(p, points, iso, dtype, nuclear_transverse), iso, points)[:2]


def transition_set(
    p: CouplingParams,
    f: FieldConfig,
    iso: IsotopeSpec,
    dtype=np.float64,
    nuclear_transverse: bool = True,
) -> TransitionSet:
    """All named transitions from exact diagonalization at one field point:
    transition_lines for a batch of one."""
    lines, _ = transition_lines(p, [f], iso, dtype, nuclear_transverse)
    return TransitionSet(dict(zip(_ROW_MAP[iso.name][0], lines[0])), iso.name)


def line_derivatives(p: CouplingParams, f: FieldConfig, iso: IsotopeSpec):
    """Every row of the table at (p, f) and its derivatives with respect to
    the eight coefficients c_j of H = sum_j c_j S_j (spin_core._structure),
    from one diagonalization: level k moves by dE_k/dc_j = v_k^T S_j v_k
    (Hellmann-Feynman; Feynman, Phys. Rev. 56, 340, 1939).  Returns
    (lines (L,), dlines (L, 8)) in LINES row order; a difference row's
    derivatives are the differences of its two rows', exactly.
    """
    points = [(f.bz, f.bx)]
    (lines,), (energies,), (v,), (order,) = _kernel(_coefficients(p, points, iso), iso, points)
    vectors = v.take(order, axis=1)  # basis order; take keeps C order, which the bits need
    stack = _structure(iso.name, vectors.dtype)
    dlevels = np.sum(vectors * (stack @ vectors), axis=1)  # (8, d)
    _, a, b, rows, _ = _ROW_MAP[iso.name]
    dsplits = np.sign(energies[a] - energies[b]) * (dlevels[:, a] - dlevels[:, b])
    return lines, rows.T @ dsplits.T


def line_slopes(p: CouplingParams, rates: CouplingParams, f: FieldConfig, iso: IsotopeSpec):
    """Every row of the table at (p, f) and its derivative along ``rates``
    (dD, dQ, dA_par, dA_perp, say per kelvin, at a fixed field), as two
    dicts: line_derivatives contracted with the coefficient rates.  The
    splittings are contracted first and go through the row map after, so
    a difference row is the difference of its two slopes, exactly.
    """
    lines, dlines = line_derivatives(p, f, iso)
    names, _, _, rows, split_rows = _ROW_MAP[iso.name]
    slopes = (dlines[split_rows] @ _coefficients(rates, [(0.0, 0.0)], iso)[0]) @ rows
    return dict(zip(names, lines)), dict(zip(names, slopes))


def isotopic_d_shift(fplus14: float, fminus14: float, fplus15: float, fminus15: float) -> float:
    """Zero-field-splitting difference from same-mI MW line centers (kHz)."""
    values = (fplus14, fminus14, fplus15, fminus15)
    if not all(np.isfinite(v) for v in values):
        raise ValueError("line centers must be finite")
    return (fplus15 + fminus15) / 2 - (fplus14 + fminus14) / 2


def ratio_estimators(ts: TransitionSet, mw: Mapping[str, float] | None = None) -> dict[str, float]:
    """Closed-form parameter estimates from linear combinations of 14NV lines.

    Returns gamma_ratio = (fplus(+1) - fminus(+1) + f5 - f3)/(f3 - f6),
    gamma_n_bz = (f3 - f6)/2, q_abs = mean of f1..f6, and
    a_par_abs = (f1 + f2 - 2 f3 + f4 + f5 - 2 f6)/6.  ``mw`` may override
    the electron-line values (e.g. with measured ones).
    """
    if ts.isotope != "N14":
        raise ValueError("ratio estimators are defined for the N14 line set")
    f = dict(ts.frequencies)
    if mw:
        f.update(mw)
    f1, f2, f3, f4, f5, f6 = (f[k] for k in ("f1", "f2", "f3", "f4", "f5", "f6"))
    denom = f3 - f6
    if denom == 0:
        raise ZeroDivisionError("f3 - f6 vanishes; gamma_n Bz not resolvable")
    return {
        "gamma_ratio": (f["fplus_+1"] - f["fminus_+1"] + f5 - f3) / denom,
        "gamma_n_bz": denom / 2,
        "q_abs": (f1 + f2 + f3 + f4 + f5 + f6) / 6,
        "a_par_abs": (f1 + f2 - 2 * f3 + f4 + f5 - 2 * f6) / 6,
    }
