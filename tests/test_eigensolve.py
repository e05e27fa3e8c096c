import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvground.eigensolve import EigensolveError, _eigh, eigh, jacobi_eigh
from nvground.presets import params_at
from nvground.spin_core import N14, N15, FieldConfig, build_hamiltonian


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


@pytest.mark.parametrize("jacobi", [False, True])
def test_random_matrices_invariants(jacobi):
    rng = np.random.default_rng(7)
    n_cases = 100 if not jacobi else 25
    solver = jacobi_eigh if jacobi else eigh
    for _ in range(n_cases):
        a = random_symmetric(rng)
        values, vectors = solver(a)
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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_input(dtype, bad):
    m = np.eye(3, dtype=dtype)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eigh(m)
    with pytest.raises(ValueError, match="non-finite"):
        jacobi_eigh(m)


def nv_stack(dtype):
    fields = [FieldConfig(bz=bz, bx=bx) for bz, bx in ((470.0, 0.0), (30.0, 2.0), (900.0, 0.3))]
    return np.array([build_hamiltonian(params_at(N14), f, N14, dtype=dtype) for f in fields])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stack_matches_each_matrix(dtype):
    # The exchange matrix's eigenvectors tie in magnitude.
    h = nv_stack(dtype)
    exchange = np.array([[[0.0, 1.0], [1.0, 0.0]]] * 2, dtype=dtype)
    for stack in (h, h[:1], h.reshape(1, 3, 9, 9), exchange):
        values, vectors = eigh(stack)
        assert values.shape == stack.shape[:-1] and vectors.shape == stack.shape
        assert values.dtype == vectors.dtype == dtype
        for i in np.ndindex(stack.shape[:-2]):
            one_values, one_vectors = eigh(stack[i])
            assert np.array_equal(values[i], one_values)
            assert np.array_equal(vectors[i], one_vectors)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stack_with_one_bad_matrix_is_refused(dtype):
    h = nv_stack(dtype)
    h[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        eigh(h)
    h = nv_stack(dtype)
    h[2, 0, 3] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        eigh(h)


def test_stack_asymmetry_within_tolerance_is_accepted():
    h = nv_stack(np.float64)
    h[1, 0, 3] *= 1 + 1e-14
    values, _ = eigh(h)
    assert np.array_equal(values[0], eigh(h[0])[0])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_dispatcher_is_eigh_without_its_checks(dtype):
    # The same backends and bits.  float64 goes to LAPACK unchecked (a
    # non-finite matrix is its caller's to refuse); jacobi_eigh still checks
    # each wider matrix itself.
    h = nv_stack(dtype)
    for got, want in zip(_eigh(h), eigh(h)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if dtype == np.longdouble:
        h[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _eigh(h)


def test_jacobi_takes_one_matrix():
    with pytest.raises(ValueError, match="one matrix"):
        jacobi_eigh(nv_stack(np.longdouble))
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 2, 3), dtype=np.longdouble))


def test_jacobi_sweep_cap_raises():
    a = random_symmetric(np.random.default_rng(0), n=6)
    with pytest.raises(EigensolveError):
        jacobi_eigh(a, max_sweeps=1, rel_tol=1e-18)


def test_jacobi_converged_by_the_last_allowed_sweep():
    # One rotation diagonalizes a 2x2 matrix: convergence is checked
    # after the final sweep too, not only before each one.
    values, vectors = jacobi_eigh(np.array([[1.0, 1e-3], [1e-3, 2.0]]), max_sweeps=1)
    assert np.allclose(values, np.linalg.eigvalsh([[1.0, 1e-3], [1e-3, 2.0]]), rtol=0, atol=1e-15)
    values, vectors = jacobi_eigh(np.diag([2.0, 1.0, 3.0]), max_sweeps=0)
    assert values.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(vectors, np.eye(3)[:, [1, 0, 2]])


def test_jacobi_zero_pairs_are_exact_no_ops():
    # Block-diagonal input: rotations inside one block leave the other
    # block's entries and eigenvectors untouched, bit for bit.
    a = np.zeros((5, 5), dtype=np.longdouble)
    a[:3, :3] = random_symmetric(np.random.default_rng(2), n=3)
    a[3:, 3:] = [[4.0, 0.0], [0.0, -1.0]]
    values, vectors = jacobi_eigh(a)
    assert {-1.0, 4.0} <= set(values.tolist())
    assert np.array_equal(vectors[3:, :][:, values == 4.0].ravel(), [1.0, 0.0])
    assert np.array_equal(vectors[:3, :][:, values == 4.0].ravel(), [0.0, 0.0, 0.0])


def test_jacobi_refuses_bad_controls():
    a = random_symmetric(np.random.default_rng(1), n=4)
    for rel_tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="rel_tol"):
            jacobi_eigh(a, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="max_sweeps"):
        jacobi_eigh(a, max_sweeps=-1)


@pytest.mark.parametrize(
    "dtype, scale",
    [
        (np.longdouble, "1e3000"),
        (np.longdouble, "1e-3000"),
        (np.longdouble, "1e400"),
        (np.float64, "1e200"),
        (np.float64, "1e-200"),
    ],
)
def test_jacobi_at_extreme_scales(dtype, scale):
    # ||A||_F^2 overflows or underflows at these scales; the entries and
    # the eigenvalues (3 -+ sqrt 2)/2 * scale do not.
    scale = dtype(scale)
    a = np.array([[1, 0.5], [0.5, 2]], dtype=dtype) * scale
    values, vectors = jacobi_eigh(a)
    root2 = np.sqrt(dtype(2))
    analytic = np.array([(3 - root2) / 2, (3 + root2) / 2]) * scale
    assert np.all(np.abs(values - analytic) <= 8 * np.finfo(dtype).eps * analytic)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(2))) <= 8 * np.finfo(dtype).eps


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_jacobi_is_power_of_two_equivariant(dtype):
    a = random_symmetric(np.random.default_rng(4)).astype(dtype)
    values = jacobi_eigh(a)[0]
    for k in (-600, -7, 1, 30, 600):
        assert np.array_equal(jacobi_eigh(np.ldexp(a, k))[0], np.ldexp(values, k))


nv_points = given(
    iso=st.sampled_from([N14, N15]),
    temp=st.floats(77.0, 400.0),
    bz=st.floats(0.5, 2000.0),
    bx=st.floats(0.0, 5.0),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@nv_points
def test_longdouble_jacobi_on_nv_hamiltonians(iso, temp, bz, bx):
    h = build_hamiltonian(params_at(iso, temp), FieldConfig(bz=bz, bx=bx), iso, dtype=np.longdouble)
    values, vectors = jacobi_eigh(h)
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h @ vectors - vectors * values)) <= 1e-17 * scale
    assert np.max(np.abs(vectors.T @ vectors - np.eye(h.shape[0]))) <= 1e-17
    assert np.all(np.diff(values) >= 0)
    reference = np.linalg.eigvalsh(h.astype(np.float64))
    assert np.allclose(values.astype(np.float64), reference, rtol=0, atol=1e-12 * scale)
    # Four sweeps always suffice on these matrices.
    assert np.array_equal(jacobi_eigh(h, max_sweeps=4)[0], values)


@settings(max_examples=200, deadline=None, derandomize=True)
@nv_points
def test_longdouble_refinement_needs_no_sweep(iso, temp, bz, bx):
    # No two levels of these matrices lie within the refinement's cluster
    # radius, so the refined basis is already converged.
    h = build_hamiltonian(params_at(iso, temp), FieldConfig(bz=bz, bx=bx), iso, dtype=np.longdouble)
    for got, want in zip(jacobi_eigh(h, max_sweeps=0), jacobi_eigh(h)):
        assert np.array_equal(got, want)


def _hadamard_similar(d):
    # H diag(d) H with H the 4x4 Hadamard matrix / 2: H is orthogonal and
    # symmetric with entries +-1/2, so every product is exact and the
    # eigenvalues are exactly d.
    h2 = np.array([[1, 1], [1, -1]], dtype=np.longdouble)
    h = np.kron(h2, h2) / 2
    a = np.dot(np.dot(h, np.diag(d)), h)
    assert np.array_equal(np.dot(np.dot(h, a), h), np.diag(d))
    return a


def _check_longdouble_solution(a, d):
    values, vectors = jacobi_eigh(a)
    assert np.max(np.abs(a @ vectors - vectors * values)) <= 1e-17
    assert np.max(np.abs(vectors.T @ vectors - np.eye(len(d)))) <= 1e-17
    assert np.max(np.abs(values - np.sort(d))) <= 1e-18
    reference = np.linalg.eigvalsh(a.astype(np.float64))
    assert np.allclose(values.astype(np.float64), reference, rtol=0, atol=1e-15)


@pytest.mark.parametrize("split", [-50, -46])
def test_longdouble_degenerate_and_nearly_split_pairs(split):
    # An exactly degenerate pair, and a pair split by 2**-50 (inside the
    # refinement's cluster radius, about 2e-15 here, so the sweeps finish
    # it) or by 2**-46 (just outside: the refinement divides by the gap,
    # and one Newton-Schulz step does not make the basis orthogonal).
    d = np.array([0.5, 0.5, 1, 1], dtype=np.longdouble)
    d[3] += np.ldexp(np.longdouble(1), split)
    a = _hadamard_similar(d)
    _check_longdouble_solution(a, d)
    if split == -50:
        with pytest.raises(EigensolveError, match="sweep cap"):
            jacobi_eigh(a, max_sweeps=0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("split", [-53, -56, -60])
def test_longdouble_pairs_inside_the_cluster_radius(seed, split):
    # Q diag(d) Q^T for a random orthogonal Q: LAPACK's basis of each
    # near-degenerate pair is an arbitrary rotation, so dividing by the
    # pair's gap (2**-53 to 2**-60, below the cluster radius) would
    # wreck it; the refinement must leave such pairs to the sweeps.
    d = np.array([-0.75, 0.5, 0.5, 1, 1, 0.25], dtype=np.longdouble)
    d[4] += np.ldexp(np.longdouble(1), split)
    rng = np.random.default_rng(seed)
    q = np.eye(6, dtype=np.longdouble)
    for _ in range(3):
        v = rng.standard_normal(6).astype(np.longdouble)
        q = q - 2 * np.outer(np.dot(q, v), v) / np.dot(v, v)
    a = np.dot(np.dot(q, np.diag(d)), q.T)
    _check_longdouble_solution((a + a.T) / 2, d)


def test_longdouble_seed_is_made_orthogonal_or_refused(monkeypatch):
    # Newton-Schulz steps repeat until the basis is orthogonal to the
    # dtype's precision, and a seed they cannot make orthogonal is refused.
    a = random_symmetric(np.random.default_rng(6), n=5).astype(np.longdouble)
    lapack = np.linalg.eigh
    for scale, converges in ((1.05, True), (3.0, False)):
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (None, scale * lapack(m)[1]))
        if converges:
            values, vectors = jacobi_eigh(a)
            assert np.max(np.abs(vectors.T @ vectors - np.eye(5))) <= 1e-17
            assert np.max(np.abs(a @ vectors - vectors * values)) <= 1e-17 * np.max(np.abs(a))
        else:
            with pytest.raises(EigensolveError, match="Newton-Schulz"):
                jacobi_eigh(a)


@settings(max_examples=200, deadline=None, derandomize=True)
@nv_points
def test_longdouble_jacobi_seed_needs_one_sweep(iso, temp, bz, bx):
    # The float64 LAPACK start is accurate to float64, and one sweep takes
    # it to longdouble precision.
    h = build_hamiltonian(params_at(iso, temp), FieldConfig(bz=bz, bx=bx), iso, dtype=np.longdouble)
    assert np.array_equal(jacobi_eigh(h, max_sweeps=1)[0], jacobi_eigh(h)[0])


def test_zero_matrix():
    values, vectors = jacobi_eigh(np.zeros((4, 4)))
    assert np.all(values == 0)
    assert np.allclose(vectors, np.eye(4))
