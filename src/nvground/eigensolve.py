"""Deterministic eigendecomposition of small dense real symmetric matrices.

Two backends sit behind one contract (ascending eigenvalues, orthonormal
eigenvectors): LAPACK via numpy for float64 input, and a Jacobi sweep in
round-robin order that works at any float dtype.
The Jacobi path is what makes extended-precision (longdouble)
diagonalization possible for the sub-Hz angular-shift validations.
It works on the input scaled exactly by a power of two (max|a| in
[0.5, 1)), so no input scale overflows or underflows its norm.  For
dtypes wider than float64 it starts from LAPACK's float64 eigenbasis,
refined once in the wide dtype (Ogita and Aishima's step, which doubles
the accurate digits for every eigenvalue separated from the others) and
made orthogonal, so that sweeps run only on a cluster of eigenvalues the
step could not separate; float64 and narrower dtypes start from the
identity.
"""

from __future__ import annotations

import functools

import numpy as np

_SYMMETRY_RTOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


class EigensolveError(RuntimeError):
    """Jacobi iteration failed to converge within the sweep cap, or the
    wide-dtype seed could not be made orthogonal."""


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


def _offdiag_frobenius(a: np.ndarray):
    return _frobenius(a - np.diag(np.diag(a)))


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

    Dtypes wider than float64 (longdouble) start from LAPACK's float64
    eigenbasis X, cast to the wide dtype, and take one refinement step in
    it (Ogita and Aishima, Japan J. Indust. Appl. Math. 35, 1007, 2018):
    with R = I - X^T X and S = X^T A X, the eigenvalue estimates are
    l_i = s_ii / (1 - r_ii), the cluster radius is
    delta = 2 (||S - diag l||_F + ||A||_F ||R||_F), and X <- X + X E with
    E_ij = (s_ij + l_j r_ij) / (l_j - l_i) where |l_j - l_i| > delta and
    E_ij = r_ij / 2 otherwise (only separated pairs are divided).  The
    step squares X's float64 error for every well separated eigenvalue.
    Newton-Schulz steps, X <- X (3I - X^T X) / 2, then make X orthogonal
    in the wide dtype.  Each squares the defect ||I - X^T X||_F, and they
    stop after the one that started from a defect whose square is at most
    the dtype's eps: one step, unless a pair divided just outside delta
    left X far from orthogonal (a defect that stops shrinking raises
    EigensolveError).  The sweeps run on X^T A X.  They find it converged
    unless a cluster within delta, or a pair the step could not resolve,
    was left, which they finish.  float64 and narrower dtypes start from
    the identity.

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
    norm = _frobenius(a)
    if norm == 0:
        return np.zeros(n, dtype=dtype), v
    threshold = rel_tol * norm
    eps = np.finfo(dtype).eps
    if eps < np.finfo(np.float64).eps:
        # np.linalg.eigh, not eigh: the seed needs no second check.
        v = np.linalg.eigh(a.astype(np.float64))[1].astype(dtype)
        # The refinement step; gap[i, j] = l_j - l_i.
        r = eye - np.dot(v.T, v)
        s = np.dot(np.dot(v.T, a), v)
        lam = s.diagonal() / (1 - r.diagonal())
        delta = 2 * (_frobenius(s - np.diag(lam)) + norm * _frobenius(r))
        e = r / 2
        gap = lam - lam[:, None]
        far = np.abs(gap) > delta
        e[far] = (s + lam * r)[far] / gap[far]
        v = v + np.dot(v, e)
        # The step leaves V^T V = I - E^T E + ..., so a pair divided just
        # outside delta can leave V far from orthogonal.  Each Newton-Schulz
        # step squares the defect ||I - V^T V||_F: stop after the step that
        # started from a defect whose square is below eps.
        defect = np.inf
        while defect * defect > eps:
            gram = np.dot(v.T, v)
            v = np.dot(v, (3 * eye - gram) / 2)
            previous, defect = defect, _frobenius(eye - gram)
            if not defect < previous:
                raise EigensolveError(f"Newton-Schulz orthogonalization diverged: defect {float(defect):g}")
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
