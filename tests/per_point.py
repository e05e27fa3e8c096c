"""The per-point forward path the batched kernel replaced, kept as a test
reference: build H, eigh, label_states, then |E_a - E_b| per named line and
each difference row (fdq = f1 - f2, f1-f2, ...) from its two lines.
"""

import numpy as np

from nvground.eigensolve import eigh
from nvground.spin_core import _coefficients, _structure, basis_labels, build_hamiltonian
from nvground.transitions import LINES, label_states


def _lines_of(h, iso, dtype) -> np.ndarray:
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


def reference_lines(p, f, iso, dtype=np.float64) -> np.ndarray:
    """Every LINES[iso.name] row in row order; raises AmbiguousLabelingError
    as label_states does."""
    return _lines_of(build_hamiltonian(p, f, iso, dtype=dtype), iso, dtype)


def reference_reduced_lines(p, f, iso, dtype=np.float64) -> np.ndarray:
    """reference_lines of the reduced Hamiltonian the perturbation series
    expand: the _structure sum without its last matrix, -gamma_n Bx Ix."""
    row = _coefficients(p, [(f.bz, f.bx)], iso, dtype)[0]
    stack = _structure(iso.name, np.dtype(dtype))
    d = stack.shape[-1]
    h = np.matmul(row[:7], stack[:7].reshape(7, d * d)).reshape(d, d)
    return _lines_of(h, iso, dtype)
