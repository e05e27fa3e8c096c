"""Eigenstate labeling and named transition frequencies.

Eigenstates are tagged with the (ms, mI) basis label of their dominant
component, which realizes the standard transition naming: f1..f6 for the
14NV nuclear lines, f7..f9 for 15NV, fplus_*/fminus_* for the electron
(MW) lines, fdq = f1 - f2 for the 14NV double-quantum transition, and
the 14NV difference rows such as f1-f2.  ``LINES`` is the one list of
these names and their order.
"""

from __future__ import annotations

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
    basis_labels,
    build_hamiltonian,
)

# Below this squared overlap the dominant-component assignment is
# rejected as ambiguous.  Kept above 0.5, which makes the assignment a
# bijection (see label_states).
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
    other lines, or both (fdq is f1 - f2 and connects (0, -1) and (0, +1)).
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
    """The lines transition_set computes: all but the pure difference rows."""
    return tuple(name for name, line in LINES[iso.name].items() if line.levels)


def nuclear_labels(iso: IsotopeSpec) -> tuple[str, ...]:
    """f1..f6 (14NV) or f7..f9 (15NV): splittings within one ms manifold."""
    return tuple(
        name
        for name, line in LINES[iso.name].items()
        if line.levels and not line.minus and line.levels[0].ms == line.levels[1].ms
    )


def _level_pairs(iso: IsotopeSpec):
    """The transition_set lines as arrays: their names, the basis indices
    a and b of their two levels, and (row, minuend row, subtrahend row)
    for each line that is a difference of two others (fdq).
    """
    names = known_labels(iso)
    lines = [LINES[iso.name][name] for name in names]
    index = {label: k for k, label in enumerate(basis_labels(iso))}
    a, b = np.array([[index[s] for s in line.levels] for line in lines]).T
    minus = tuple(
        (row, names.index(line.minus[0]), names.index(line.minus[1]))
        for row, line in enumerate(lines)
        if line.minus
    )
    return names, a, b, minus


_LEVEL_PAIRS = {name: _level_pairs(iso) for name, iso in ISOTOPES.items()}


@dataclass(frozen=True)
class TransitionSet:
    """Named transition frequencies (kHz) at one field point."""

    frequencies: Mapping[str, float]
    isotope: str

    def __getitem__(self, label: str) -> float:
        return self.frequencies[label]


def label_states(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level energies and squared overlaps in basis order.

    Eigenvector j belongs to the basis state of its largest squared
    component, so energies[k] is the eigenvalue whose eigenvector is
    dominated by basis state k.  Raises AmbiguousLabelingError when an
    overlap falls below OVERLAP_THRESHOLD, which happens near level
    anti-crossings (gamma_e * Bz approaching D).
    """
    weights = vectors * vectors
    k = np.argmax(weights, axis=0)
    overlaps = weights[k, np.arange(len(k))]
    low = np.flatnonzero(overlaps < OVERLAP_THRESHOLD)
    if low.size:
        j = low[0]
        raise AmbiguousLabelingError(
            f"eigenstate {j} has max squared overlap {overlaps[j]:.3f} < "
            f"{OVERLAP_THRESHOLD} (closest basis state {k[j]})"
        )
    # No two eigenvectors can share a dominant basis state: each row of the
    # orthogonal eigenvector matrix has unit norm, so it cannot hold two
    # squared entries >= OVERLAP_THRESHOLD > 0.5.  k is a permutation.
    energies = np.empty_like(values)
    energies[k] = values
    by_basis = np.empty_like(overlaps)
    by_basis[k] = overlaps
    return energies, by_basis


def transition_set(
    p: CouplingParams,
    f: FieldConfig,
    iso: IsotopeSpec,
    dtype=np.float64,
    nuclear_transverse: bool = True,
) -> TransitionSet:
    """All named transitions from exact diagonalization at one field point."""
    h = build_hamiltonian(p, f, iso, dtype=dtype, nuclear_transverse=nuclear_transverse)
    try:
        energies, _ = label_states(*eigh(h))
    except AmbiguousLabelingError as err:
        raise AmbiguousLabelingError(
            f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name}): {err}"
        ) from err
    names, a, b, minus = _LEVEL_PAIRS[iso.name]
    freqs = np.abs(energies[a] - energies[b])
    for row, i, j in minus:
        freqs[row] = freqs[i] - freqs[j]
    return TransitionSet(frequencies=dict(zip(names, freqs)), isotope=iso.name)


def line_values(ts: TransitionSet) -> dict[str, float]:
    """Every line of the table in row order: ``ts`` plus the difference rows."""
    f = ts.frequencies
    return {
        name: f[name] if line.levels else f[line.minus[0]] - f[line.minus[1]]
        for name, line in LINES[ts.isotope].items()
    }


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
