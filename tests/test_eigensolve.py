import numpy as np
import pytest

from nvground.eigensolve import EigensolveError, eigh, jacobi_eigh


def random_symmetric(rng, n=9, scale=1e6):
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2


def test_exchange_matrix():
    values, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0])


def test_diagonal_input():
    values, vectors = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    # permuted-identity eigenvectors
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


@pytest.mark.parametrize("force_jacobi", [False, True])
def test_random_matrices_invariants(force_jacobi):
    rng = np.random.default_rng(7)
    n_cases = 100 if not force_jacobi else 25
    for _ in range(n_cases):
        a = random_symmetric(rng)
        values, vectors = eigh(a, force_jacobi=force_jacobi)
        scale = np.max(np.abs(a))
        # residual oracle computed directly from the definition
        resid = np.max(np.abs(a @ vectors - vectors * values))
        assert resid <= 1e-9 * scale
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(a.shape[0]))) <= 1e-10
        assert np.all(np.diff(values) >= 0)


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_symmetric(rng)
        values, _ = eigh(a)
        norm = np.linalg.norm(a)
        assert abs(np.sum(values) - np.trace(a)) <= 1e-9 * np.max(np.abs(a))
        assert abs(np.sum(values**2) - norm**2) <= 1e-9 * norm**2


def test_shift_property():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng)
    c = rng.uniform(-1e5, 1e5)
    values, _ = eigh(a)
    shifted, _ = eigh(a + c * np.eye(9))
    assert np.allclose(shifted, values + c, rtol=0, atol=1e-9 * np.max(np.abs(a)))


def test_deterministic_and_sign_convention():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng)
    (values1, vectors1), (values2, vectors2) = eigh(a), eigh(a)
    assert np.array_equal(values1, values2)
    assert np.array_equal(vectors1, vectors2)
    for j in range(a.shape[0]):
        k = np.argmax(np.abs(vectors1[:, j]))
        assert vectors1[k, j] > 0


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_symmetric(rng)
        vj, _ = jacobi_eigh(a)
        vl = np.linalg.eigvalsh(a)
        assert np.allclose(vj, vl, rtol=0, atol=1e-9 * np.max(np.abs(a)))


def test_longdouble_path_uses_extended_precision():
    c = np.longdouble("1e-5")
    a = np.array([[1, c], [c, 2]], dtype=np.longdouble)
    values, _ = eigh(a)
    assert values.dtype == np.longdouble
    one = np.longdouble(1)
    analytic = (3 * one - np.sqrt(one + 4 * c * c)) / 2
    # agreement well below float64 eps demonstrates the extended path
    assert abs(values[0] - analytic) < np.longdouble("5e-18")


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_jacobi_sweep_cap_raises():
    a = random_symmetric(np.random.default_rng(0), n=6)
    with pytest.raises(EigensolveError):
        jacobi_eigh(a, max_sweeps=1, rel_tol=1e-18)


def test_zero_matrix():
    values, vectors = eigh(np.zeros((4, 4)), force_jacobi=True)
    assert np.all(values == 0)
    assert np.allclose(vectors, np.eye(4))
