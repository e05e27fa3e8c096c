"""The per-point forward path the batched kernel replaced, kept as a test
reference: build H, eigh, label_states, then |E_a - E_b| per named line and
each difference row (fdq = f1 - f2) from its two lines.
"""

import numpy as np

from nvground.eigensolve import eigh
from nvground.spin_core import basis_labels, build_hamiltonian
from nvground.transitions import LINES, known_labels, label_states


def reference_lines(p, f, iso, dtype=np.float64, nuclear_transverse=True) -> np.ndarray:
    """Lines in known_labels(iso) order; raises AmbiguousLabelingError as
    label_states does."""
    h = build_hamiltonian(p, f, iso, dtype=dtype, nuclear_transverse=nuclear_transverse)
    energies, _ = label_states(*eigh(h))
    index = {label: k for k, label in enumerate(basis_labels(iso))}
    names = known_labels(iso)
    values = {}
    for name in names:
        a, b = (index[s] for s in LINES[iso.name][name].levels)
        values[name] = abs(energies[a] - energies[b])
    for name in names:
        minus = LINES[iso.name][name].minus
        if minus:
            values[name] = values[minus[0]] - values[minus[1]]
    return np.array([values[name] for name in names], dtype=dtype)
