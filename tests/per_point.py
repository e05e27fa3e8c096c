"""The per-point forward path the batched kernel replaced, kept as a test
reference: build H, eigh, label_states, then |E_a - E_b| per named line and
each difference row (fdq = f1 - f2, f1-f2, ...) from its two lines.
"""

import numpy as np

from nvground.eigensolve import eigh
from nvground.spin_core import basis_labels, build_hamiltonian
from nvground.transitions import LINES, label_states


def reference_lines(p, f, iso, dtype=np.float64, nuclear_transverse=True) -> np.ndarray:
    """Every LINES[iso.name] row in row order; raises AmbiguousLabelingError
    as label_states does."""
    h = build_hamiltonian(p, f, iso, dtype=dtype, nuclear_transverse=nuclear_transverse)
    energies, _ = label_states(*eigh(h))
    index = {label: k for k, label in enumerate(basis_labels(iso))}
    values = {}
    for name, line in LINES[iso.name].items():
        if line.minus:
            values[name] = values[line.minus[0]] - values[line.minus[1]]
        else:
            a, b = (index[s] for s in line.levels)
            values[name] = abs(energies[a] - energies[b])
    return np.array(list(values.values()), dtype=dtype)
