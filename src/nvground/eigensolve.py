"""Deterministic eigendecomposition of small dense real symmetric matrices.

Two backends sit behind one contract (ascending eigenvalues, orthonormal
eigenvectors): LAPACK via numpy for float64 input, and a Jacobi sweep in
round-robin order that works at any float dtype.
The Jacobi path is what makes extended-precision (longdouble)
diagonalization possible for the sub-Hz angular-shift validations.
It works on the input scaled exactly by a power of two (max|a| in
[0.5, 1)), so no input scale overflows or underflows its norm.  For
dtypes wider than float64 it starts from LAPACK's float64 eigenbasis
(the seed), made orthogonal in the wide dtype, so that one sweep after
the seed converges; float64 and narrower dtypes start from the identity.
"""

from __future__ import annotations

import functools

import numpy as np

_SYMMETRY_RTOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


class EigensolveError(RuntimeError):
    """Jacobi iteration failed to converge within the sweep cap."""


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


def _offdiag_frobenius(a: np.ndarray):
    off = a - np.diag(np.diag(a))
    return np.sqrt(np.sum(off * off))


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    # Circle-method tournament (Brent & Luk, SIAM J. Sci. Stat. Comput. 6,
    # 69, 1985): each round pairs every index with another (an odd n gets a
    # bye), and over the rounds every (p, q) with p < q meets once.
    m = n + n % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        players = [0] + ring
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(players[: m // 2], players[::-1])
            if max(i, j) < n
        ]
        if pairs:
            p, q = (np.array(side) for side in zip(*pairs))
            p.flags.writeable = q.flags.writeable = False
            rounds.append((p, q))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _rotation(app, aqq, apq, one):
    # Stable rotation choice (smaller angle root, t = +-1 at theta = +-0);
    # hypot keeps theta^2 from overflowing.  Scalars or arrays alike.
    theta = (aqq - app) / (2 * apq)
    t = np.copysign(one / (np.abs(theta) + np.hypot(theta, one)), theta)
    c = one / np.hypot(t, one)
    return c, t * c


def jacobi_eigh(m: np.ndarray, rel_tol: float | None = None, max_sweeps: int = _JACOBI_MAX_SWEEPS):
    """Round-robin Jacobi diagonalization preserving the input dtype.

    The input is first scaled by a power of two so that max|a| lies in
    [0.5, 1), and the eigenvalues are scaled back at the end.  Both steps
    are exact away from subnormals, so ||A||_F^2 can neither overflow nor
    underflow, and the eigenvalues scale with the input bit for bit.

    Dtypes wider than float64 (longdouble) start from a seed, LAPACK's
    float64 eigenbasis V, rather than from the identity.  V is made
    orthogonal in the wide dtype by one Newton-Schulz step,
    V <- V (3I - V^T V) / 2, and the sweeps run on V^T A V.  The seed is
    accurate to float64, so one sweep (cyclic Jacobi converges
    quadratically) takes it to the wide dtype's precision (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1204, 1992).  float64 and
    narrower dtypes start from the identity.

    Each sweep runs the n(n-1)/2 rotations as n - 1 rounds (n for odd n)
    of disjoint (p, q) pairs in round-robin (Brent-Luk) order.  A round's
    rotations commute, so they are applied together as one orthogonal J:
    A <- J^T A J, V <- V J.  Pairs with a_pq == 0 are left out of J, and a
    round with none left is skipped.  Convergence is checked before each
    sweep and after the last: the off-diagonal Frobenius norm must drop
    below ``rel_tol * ||A||_F`` (default 1e-12 for double, 1e-18 for
    longdouble) within ``max_sweeps`` sweeps, counted after the seed.
    ``rel_tol`` must be finite and > 0, and ``max_sweeps`` >= 0.
    Returns (eigenvalues ascending, eigenvector columns).
    """
    a = _check_symmetric(m)
    if a.ndim != 2:
        raise ValueError(f"jacobi_eigh takes one matrix, got shape {a.shape}")
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    dtype = a.dtype
    if rel_tol is None:
        rel_tol = 1e-18 if dtype == np.longdouble else 1e-12
    if not (np.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    n = a.shape[0]
    v = eye = np.eye(n, dtype=dtype)
    exponent = np.frexp(np.abs(a).max(initial=0))[1]
    a = np.ldexp(a, -exponent)
    norm = np.sqrt(np.sum(a * a))
    if norm == 0:
        return np.zeros(n, dtype=dtype), v
    threshold = rel_tol * norm
    if np.finfo(dtype).eps < np.finfo(np.float64).eps:
        # np.linalg.eigh, not eigh: the seed needs no second check.
        v = np.linalg.eigh(a.astype(np.float64))[1].astype(dtype)
        v = np.dot(v, (3 * eye - np.dot(v.T, v)) / 2)
        a = np.dot(np.dot(v.T, a), v)
        a = (a + a.T) / 2
    one = dtype.type(1)
    off = _offdiag_frobenius(a)
    for _ in range(max_sweeps):
        if off <= threshold:
            break
        for p, q in _round_robin(n):
            apq = a[p, q]
            k = apq.nonzero()[0]
            if k.size < p.size:
                if not k.size:
                    continue
                p, q, apq = p[k], q[k], apq[k]
            if p.size == 1:
                # One pair (most rounds on axial matrices): scalar angle
                # and scalar stores into J, several times cheaper than the
                # same arithmetic on one-element arrays.
                p, q = p[0], q[0]
                c, s = _rotation(a[p, p], a[q, q], apq[0], one)
            else:
                d = a.diagonal()
                c, s = _rotation(d[p], d[q], apq, one)
            j = eye.copy()
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            a = np.dot(np.dot(j.T, a), j)
            a[p, q] = a[q, p] = 0
            v = np.dot(v, j)
        off = _offdiag_frobenius(a)
    if off > threshold:
        raise EigensolveError(
            f"Jacobi sweep cap ({max_sweeps}) reached; off-diagonal norm "
            f"{float(np.ldexp(off, exponent)):g} above threshold "
            f"{float(np.ldexp(threshold, exponent)):g}"
        )
    values = np.ldexp(np.diag(a), exponent)
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


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
