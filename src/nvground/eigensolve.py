"""Deterministic eigendecomposition of small dense real symmetric matrices.

Two backends sit behind one contract (ascending eigenvalues, orthonormal
eigenvectors): LAPACK via numpy for float64 input, and ``jacobi_eigh``,
which refines LAPACK's float64 eigenbasis in the input's own dtype, for
every other float dtype.  It makes extended-precision (longdouble)
diagonalization possible for the sub-Hz angular-shift validations.
"""

from __future__ import annotations

import numpy as np

_SYMMETRY_RTOL = 1e-12
# Each refinement step squares the basis error, so LAPACK's float64 basis
# reaches longdouble precision in one; a seed that needs more than a few
# steps is no float64 eigenbasis.
_MAX_STEPS = 3


class EigensolveError(RuntimeError):
    """The refinement of ``jacobi_eigh`` did not converge within
    _MAX_STEPS steps, or a basis could not be made orthogonal."""


def _check_finite(m: np.ndarray) -> np.ndarray:
    """``m``, refused if any entry is not finite (count_nonzero: cheaper than .all())."""
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ValueError("matrix has non-finite entries")
    return m


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """``m`` (a matrix or a stack of them), refused if any matrix has a
    non-finite entry or is asymmetric beyond _SYMMETRY_RTOL of its max|m|."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    mt = m.swapaxes(-2, -1)
    if np.count_nonzero(_check_finite(m) != mt):  # the common case is exactly symmetric
        asym = np.abs(m - mt).max(axis=(-2, -1))
        bad = asym > _SYMMETRY_RTOL * np.maximum(np.abs(m).max(axis=(-2, -1)), 1e-300)
        if bad.any():
            raise ValueError(f"matrix is not symmetric: max|M - M.T| = {asym[bad].flat[0]:g}")
    return m


def _frobenius(a: np.ndarray):
    return np.sqrt((a * a).sum())


def _newton_schulz(x: np.ndarray) -> np.ndarray:
    """``x`` (nearly orthonormal columns) made orthogonal in its own dtype.

    Each step X <- X (3I - X^T X) / 2 squares the defect ||I - X^T X||_F,
    and the steps stop after the one that started from a defect whose square
    is at most the dtype's eps.  A defect that stops shrinking (or is NaN)
    raises EigensolveError."""
    eye = np.eye(x.shape[1], dtype=x.dtype)
    eps = np.finfo(x.dtype).eps
    defect = np.inf
    while defect * defect > eps:
        gram = np.dot(x.T, x)
        x = np.dot(x, (3 * eye - gram) / 2)
        previous, defect = defect, _frobenius(eye - gram)
        if not defect < previous:
            raise EigensolveError(f"Newton-Schulz orthogonalization diverged: defect {float(defect):g}")
    return x


def jacobi_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values ascending, eigenvector columns) of one symmetric matrix,
    computed in its own float dtype (non-float input is cast to float64).

    The input is first scaled by a power of two so that max|a| lies in
    [0.5, 1), and the eigenvalues are scaled back at the end.  Both steps
    are exact away from subnormals, so ||A||_F^2 can neither overflow nor
    underflow, and the eigenvalues scale with the input bit for bit.

    LAPACK's float64 eigenbasis X, cast to the dtype, is refined there (Ogita
    and Aishima, "Iterative refinement for symmetric eigenvalue
    decomposition", Japan J. Indust. Appl. Math. 35, 1007, 2018).  With
    R = I - X^T X and S = X^T A X, the estimates are l_i = s_ii / (1 - r_ii),
    the cluster radius is delta = 2 (||S - diag l||_F + ||A||_F ||R||_F), and
    X <- X + X E with E_ij = (s_ij + l_j r_ij) / (l_j - l_i) where
    |l_j - l_i| > delta and E_ij = r_ij / 2 otherwise.  The step squares X's
    error for every eigenvalue separated by more than delta, and
    _newton_schulz then makes X orthogonal.  Each run of estimates within
    delta of the next is a cluster, whose eigenvectors the step cannot
    separate.  Its block of X^T A X, shifted by the cluster's first estimate
    so that float64 keeps the splitting, is solved by LAPACK, and the block's
    basis, made orthogonal, rotates the cluster's columns of X (Ogita and
    Aishima, "Iterative refinement for symmetric eigenvalue decomposition
    II: clustered eigenvalues", Japan J. Indust. Appl. Math. 36, 435, 2019).
    Steps repeat until ||offdiag X^T A X||_F <= n eps ||A||_F, with eps
    the dtype's, and a matrix not converged after _MAX_STEPS steps raises
    EigensolveError.

    The name predates this method, which runs no Jacobi rotation.  It stays
    because the benchmark's per-layer ``eigensolve.jacobi_eigh.*`` keys, its
    tracer tag and its call-count pin all name it.
    """
    a = _check_symmetric(m)
    if a.ndim != 2:
        raise ValueError(f"jacobi_eigh takes one matrix, got shape {a.shape}")
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    dtype = a.dtype
    n = a.shape[0]
    eye = np.eye(n, dtype=dtype)
    exponent = np.frexp(np.abs(a).max(initial=0))[1]
    a = np.ldexp(a, -exponent)
    norm = _frobenius(a)
    if norm == 0:
        return np.zeros(n, dtype=dtype), eye
    threshold = n * np.finfo(dtype).eps * norm
    # np.linalg.eigh, not eigh: the seed needs no second check.
    v = np.linalg.eigh(a.astype(np.float64))[1].astype(dtype)
    for _ in range(_MAX_STEPS):
        # The refinement step; gap[i, j] = l_j - l_i.
        r = eye - np.dot(v.T, v)
        s = np.dot(np.dot(v.T, a), v)
        lam = s.diagonal() / (1 - r.diagonal())
        delta = 2 * (_frobenius(s - np.diag(lam)) + norm * _frobenius(r))
        e = r / 2
        gap = lam - lam[:, None]
        far = np.abs(gap) > delta
        e[far] = (s + lam * r)[far] / gap[far]
        v = _newton_schulz(v + np.dot(v, e))
        b = np.dot(np.dot(v.T, a), v)
        # Clusters: runs of sorted estimates, each within delta of the next.
        # There is one exactly when some pair is not far.
        if np.count_nonzero(far) < n * (n - 1):
            order = np.argsort(lam)
            for c in np.split(order, np.flatnonzero(np.diff(lam[order]) > delta) + 1):
                if c.size > 1:
                    block = b[np.ix_(c, c)] - lam[c[0]] * eye[: c.size, : c.size]
                    w = np.linalg.eigh(block.astype(np.float64))[1].astype(dtype)
                    v[:, c] = np.dot(v[:, c], _newton_schulz(w))
            b = np.dot(np.dot(v.T, a), v)
        off = _frobenius(b - np.diag(b.diagonal()))
        if off <= threshold:
            values = np.ldexp(b.diagonal(), exponent)
            order = np.argsort(values, kind="stable")
            return values[order], v[:, order]
    raise EigensolveError(
        f"refinement not converged in {_MAX_STEPS} steps: off-diagonal norm "
        f"{float(np.ldexp(off, exponent)):g} above threshold "
        f"{float(np.ldexp(threshold, exponent)):g}"
    )


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values ascending, eigenvector columns) for one matrix (d, d) or a
    stack (..., d, d), like np.linalg.eigh: the checked entry to _eigh.
    float64 input must be square, finite and symmetric (_check_symmetric);
    non-float input is cast to float64.  Output is deterministic, and each
    matrix of a stack gets the same bits as alone.  Each eigenvector's sign
    is the backend's: callers read only squared components and quadratic
    forms v^T S v, which negation leaves bit for bit."""
    m = np.asarray(m)
    if m.dtype.kind != "f":
        m = m.astype(np.float64)
    return _eigh(_check_symmetric(m) if m.dtype == np.float64 else m)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh unchecked, for a float stack built square and symmetric: float64
    goes to LAPACK (one np.linalg.eigh call per stack), any other dtype to
    jacobi_eigh (one call per matrix), which checks each matrix itself."""
    if m.dtype == np.float64:
        return np.linalg.eigh(m)
    values, vectors = np.empty(m.shape[:-1], m.dtype), np.empty_like(m)
    for i in np.ndindex(m.shape[:-2]):
        values[i], vectors[i] = jacobi_eigh(m[i])
    return values, vectors
