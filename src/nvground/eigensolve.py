"""Deterministic eigendecomposition of small dense real symmetric matrices.

Two backends sit behind one contract (ascending eigenvalues, orthonormal
eigenvectors, fixed sign convention): LAPACK via numpy for float64 input,
and a cyclic Jacobi sweep that works at any float dtype.  The Jacobi path
is what makes extended-precision (longdouble) diagonalization possible for
the sub-Hz angular-shift validations.
"""

from __future__ import annotations

import numpy as np

_SYMMETRY_RTOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


class EigensolveError(RuntimeError):
    """Jacobi iteration failed to converge within the sweep cap."""


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric: max|M - M.T| = {asym:g}")
    return m


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude component of each eigenvector made positive
    # (argmax: first index wins ties), so repeated runs agree bit for bit.
    k = np.argmax(np.abs(vectors), axis=0)
    return np.where(vectors[k, np.arange(vectors.shape[1])] < 0, -vectors, vectors)


def _offdiag_frobenius(a: np.ndarray):
    off = a - np.diag(np.diag(a))
    return np.sqrt(np.sum(off * off))


def jacobi_eigh(m: np.ndarray, rel_tol: float | None = None, max_sweeps: int = _JACOBI_MAX_SWEEPS):
    """Cyclic-by-rows Jacobi diagonalization preserving the input dtype.

    Sweeps stop once the off-diagonal Frobenius norm drops below
    ``rel_tol * ||A||_F`` (default 1e-12 for double, 1e-18 for longdouble).
    Returns (eigenvalues ascending, eigenvector columns), unsorted signs.
    """
    a = _check_symmetric(m).copy()
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    dtype = a.dtype
    if rel_tol is None:
        rel_tol = 1e-18 if dtype == np.longdouble else 1e-12
    n = a.shape[0]
    v = np.eye(n, dtype=dtype)
    norm = np.sqrt(np.sum(a * a))
    if norm == 0:
        return np.zeros(n, dtype=dtype), v
    threshold = rel_tol * norm
    one = dtype.type(1)
    for _ in range(max_sweeps):
        if _offdiag_frobenius(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0:
                    continue
                # Stable rotation choice (smaller angle root); asymptotic
                # form once theta^2 would lose the 1 anyway.
                theta = (a[q, q] - a[p, p]) / (2 * apq)
                if theta == 0:
                    t = one
                elif abs(theta) > 1e20:
                    t = 1 / (2 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + one))
                c = one / np.sqrt(t * t + one)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0
                a[q, p] = 0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise EigensolveError(
            f"Jacobi sweep cap ({max_sweeps}) reached; off-diagonal norm "
            f"{float(_offdiag_frobenius(a)):g} above threshold {float(threshold):g}"
        )
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def eigh(m: np.ndarray, force_jacobi: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(values ascending, eigenvector columns) with canonical signs.

    float64 input is routed to LAPACK (np.linalg.eigh); any other float
    dtype, or force_jacobi=True, uses the Jacobi sweep.  Output is
    deterministic for identical input.
    """
    m = _check_symmetric(m)
    if m.dtype.kind != "f":
        m = m.astype(np.float64)
    if force_jacobi or m.dtype != np.float64:
        values, vectors = jacobi_eigh(m)
    else:
        values, vectors = np.linalg.eigh(m)
    return values, _canonical_signs(vectors)
