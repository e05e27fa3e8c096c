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
    _hamiltonians,
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
    """Level energies and eigenvectors in basis order, for one eigensystem
    ((d,), (d, d)) or a stack of them ((..., d), (..., d, d)).

    Eigenvector j belongs to the basis state of its largest squared
    component, so level k (energies[k], vectors[:, k]) is the eigenpair
    dominated by basis state k.  Raises AmbiguousLabelingError when an
    overlap falls below OVERLAP_THRESHOLD, which happens near level
    anti-crossings (gamma_e * Bz approaching D); in a stack, for the first
    refused eigensystem, whose stack index the error keeps as ``index``.
    """
    n = vectors.shape[-1]
    weights = vectors * vectors
    k = weights.argmax(axis=-2)
    overlaps = weights.max(axis=-2)
    if (overlaps < OVERLAP_THRESHOLD).any():
        at = np.unravel_index(np.argmax(overlaps < OVERLAP_THRESHOLD), overlaps.shape)
        err = AmbiguousLabelingError(
            f"eigenstate {at[-1]} has max squared overlap {overlaps[at]:.3f} < "
            f"{OVERLAP_THRESHOLD} (closest basis state {k[at]})"
        )
        err.index = at[:-1]
        raise err
    # No two eigenvectors can share a dominant basis state: each row of the
    # orthogonal eigenvector matrix has unit norm, so it cannot hold two
    # squared entries >= OVERLAP_THRESHOLD > 0.5.  k is a permutation.
    k = k.reshape(-1, n)
    rows = np.arange(len(k))[:, None]
    energies = np.empty(values.shape, values.dtype)
    basis_vectors = np.empty(vectors.shape, vectors.dtype)
    energies.reshape(-1, n)[rows, k] = values.reshape(-1, n)
    basis_vectors.reshape(-1, n, n)[rows, :, k] = vectors.reshape(-1, n, n).swapaxes(1, 2)
    return energies, basis_vectors


def _fill_differences(iso: IsotopeSpec, values: np.ndarray) -> np.ndarray:
    """Per-line ``values`` (..., L) with each difference row (fdq) set from
    its two lines."""
    for row, i, j in _LEVEL_PAIRS[iso.name][3]:
        values[..., row] = values[..., i] - values[..., j]
    return values


def transition_lines(
    p: CouplingParams, fields, iso: IsotopeSpec, dtype=np.float64, nuclear_transverse: bool = True
):
    """The forward kernel: transition_set's lines at a batch of field points.

    The N Hamiltonians at ``fields`` (FieldConfigs) go through one eigh
    and one label_states call, and each point gets the same bits as in a
    batch of one; ``dtype`` and ``nuclear_transverse`` are as in
    build_hamiltonian.  Returns (lines (N, L) in known_labels(iso) order,
    energies (N, d) and eigenvectors (N, d, d) in basis order).  A refusal
    (AmbiguousLabelingError) names the first refused field point.
    """
    h = _hamiltonians(p, [(f.bz, f.bx) for f in fields], iso, dtype, nuclear_transverse)
    try:
        energies, vectors = label_states(*eigh(h))
    except AmbiguousLabelingError as err:
        f = fields[err.index[0]]
        where = f"at Bz = {f.bz} G, Bx = {f.bx} G ({iso.name})"
        raise AmbiguousLabelingError(f"{where}: {err}") from err
    _, a, b, _ = _LEVEL_PAIRS[iso.name]
    # take: about half the cost of energies[:, a] on these small arrays
    lines = _fill_differences(iso, np.abs(energies.take(a, axis=1) - energies.take(b, axis=1)))
    return lines, energies, vectors


def transition_set(
    p: CouplingParams,
    f: FieldConfig,
    iso: IsotopeSpec,
    dtype=np.float64,
    nuclear_transverse: bool = True,
) -> TransitionSet:
    """All named transitions from exact diagonalization at one field point:
    transition_lines for a batch of one."""
    lines, _, _ = transition_lines(p, [f], iso, dtype, nuclear_transverse)
    return TransitionSet(dict(zip(_LEVEL_PAIRS[iso.name][0], lines[0])), iso.name)


def line_slopes(p: CouplingParams, rates: CouplingParams, f: FieldConfig, iso: IsotopeSpec):
    """line_values at (p, f) and their derivatives along ``rates`` (dD, dQ,
    dA_par, dA_perp, say per kelvin, at a fixed field), from one
    diagonalization: H is linear in those four, so level k moves by
    v_k^T dH v_k (Hellmann-Feynman; Feynman, Phys. Rev. 56, 340, 1939).
    """
    (lines,), (energies,), (vectors,) = transition_lines(p, [f], iso)
    dh = build_hamiltonian(rates, FieldConfig(bz=0.0), iso)
    shifts = np.sum(vectors * (dh @ vectors), axis=0)
    names, a, b, _ = _LEVEL_PAIRS[iso.name]
    slopes = _fill_differences(iso, np.sign(energies[a] - energies[b]) * (shifts[a] - shifts[b]))
    return tuple(_rows(iso.name, dict(zip(names, values))) for values in (lines, slopes))


def _rows(isotope: str, f: Mapping[str, float]) -> dict[str, float]:
    """Every line of the table in row order: ``f`` plus the difference rows."""
    return {
        name: f[name] if line.levels else f[line.minus[0]] - f[line.minus[1]]
        for name, line in LINES[isotope].items()
    }


def line_values(ts: TransitionSet) -> dict[str, float]:
    return _rows(ts.isotope, ts.frequencies)


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
