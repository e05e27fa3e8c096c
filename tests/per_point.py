"""The per-point forward path the batched kernel replaced, kept as a test
reference: build H, eigh, label_states, then |E_a - E_b| per named line and
each difference row (f1-f2, ...) from its two lines; and
the Hellmann-Feynman line derivatives of one point, as they were computed
before the kernel returned them for a whole stack.
"""

import numpy as np

from nvground.eigensolve import eigh
from nvground.spin_core import _coefficients, _structure, basis_labels, build_hamiltonian
from nvground.transitions import _ROW_MAP, LINES, label_states


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


def reference_derivatives(p, f, iso) -> np.ndarray:
    """Every LINES[iso.name] row's derivatives (L, 8) with respect to the
    eight _coefficients weights c_j of H = sum_j c_j S_j, in float64: level
    k moves by v_k^T S_j v_k, v_k label_states's vector k, and a difference
    row by the difference of its two rows'.  Raises AmbiguousLabelingError
    as label_states does."""
    energies, vectors = label_states(*eigh(build_hamiltonian(p, f, iso)))
    stack = _structure(iso.name, vectors.dtype)
    dlevels = np.sum(vectors * (stack @ vectors), axis=1)  # (8, d)
    _, a, b, rows, _ = _ROW_MAP[iso.name]
    dsplits = np.sign(energies[a] - energies[b]) * (dlevels[:, a] - dlevels[:, b])
    return rows.T @ dsplits.T
