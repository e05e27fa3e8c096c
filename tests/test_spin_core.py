import numpy as np
import pytest

from nvground.spin_core import (
    GAMMA_E_KHZ_PER_G,
    N14,
    N15,
    CouplingParams,
    FieldConfig,
    StateLabel,
    _coefficients,
    _hamiltonians,
    _structure,
    _sz_and_s_plus,
    basis_labels,
    build_hamiltonian,
    get_isotope,
)
from nvground.presets import params_at


def test_spin_half_sz():
    sz, _ = _sz_and_s_plus(0.5, np.float64)
    assert np.allclose(sz, np.diag([0.5, -0.5]))


def test_spin_one_ladder():
    _, s_plus = _sz_and_s_plus(1.0, np.float64)
    # S+ on m=0 gives sqrt(2) times m=+1; basis ordered (+1, 0, -1)
    m0 = np.array([0.0, 1.0, 0.0])
    assert np.allclose(s_plus @ m0, np.sqrt(2) * np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0])
def test_commutator_algebra(s):
    sz, s_plus = _sz_and_s_plus(s, np.float64)
    sx = (s_plus + s_plus.T) / 2
    sy = (s_plus - s_plus.T) / 2j
    comm = sx @ sy - sy @ sx
    assert np.max(np.abs(comm - 1j * sz)) < 1e-12


@pytest.mark.parametrize("iso", [N14, N15])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_structure_stack_is_symmetric_and_read_only(iso, dtype):
    stack = _structure(iso.name, np.dtype(dtype))
    assert stack.dtype == dtype and not stack.flags.writeable
    assert np.array_equal(stack, np.swapaxes(stack, 1, 2))


def test_isotope_specs():
    assert N14.gamma_n > 0 and N15.gamma_n < 0
    assert get_isotope("n15") is N15
    with pytest.raises(ValueError):
        get_isotope("n13")


def test_basis_ordering():
    labels = basis_labels(N14)
    assert labels[0] == StateLabel(1, 1.0)
    assert labels[4] == StateLabel(0, 0.0)
    assert labels[-1] == StateLabel(-1, -1.0)
    assert len(basis_labels(N15)) == 6


def test_diagonal_case_entry():
    # Bx = 0, A_perp = 0: H is diagonal and the (ms=0, mI=+1) entry is Q - gamma_n Bz
    p = CouplingParams(d=2.87e6, q=-4945.88, a_par=-2165.19, a_perp=0.0, gamma_n=N14.gamma_n)
    f = FieldConfig(bz=470.0)
    h = build_hamiltonian(p, f, N14)
    off = h - np.diag(np.diag(h))
    assert np.max(np.abs(off)) == 0.0
    idx = basis_labels(N14).index(StateLabel(0, 1.0))
    assert h[idx, idx] == pytest.approx(p.q - p.gamma_n * f.bz, abs=1e-12)


def test_unperturbed_diagonal_formula():
    p = params_at("N14")
    p0 = CouplingParams(d=p.d, q=p.q, a_par=p.a_par, a_perp=0.0, gamma_n=p.gamma_n)
    f = FieldConfig(bz=317.0)
    h = build_hamiltonian(p0, f, N14)
    for k, (ms, mi) in enumerate(basis_labels(N14)):
        expected = (
            ms * ms * p.d
            + mi * mi * p.q
            + ms * mi * p.a_par
            + ms * GAMMA_E_KHZ_PER_G * f.bz
            - mi * p.gamma_n * f.bz
        )
        assert h[k, k] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("iso_name", ["N14", "N15"])
def test_symmetry_exact(iso_name):
    iso = get_isotope(iso_name)
    p = params_at(iso)
    h = build_hamiltonian(p, FieldConfig(bz=470.0, bx=3.7), iso)
    assert np.max(np.abs(h - h.T)) == 0.0


@pytest.mark.parametrize("iso_name,bz,bx", [("N14", 470.0, 0.0), ("N14", 123.0, 2.5), ("N15", 470.0, 1.0)])
def test_trace_identity(iso_name, bz, bx):
    # Zeeman, flip-flop and Sz Iz terms are traceless, so
    # trace(H) = (2I+1) 2D + 3 Q sum(mI^2) independent of field.
    iso = get_isotope(iso_name)
    p = params_at(iso)
    h = build_hamiltonian(p, FieldConfig(bz=bz, bx=bx), iso)
    nuc_dim = round(2 * iso.nuclear_spin + 1)
    mis = [iso.nuclear_spin - k for k in range(nuc_dim)]
    expected = nuc_dim * 2 * p.d + 3 * p.q * sum(m * m for m in mis)
    assert np.trace(h) == pytest.approx(expected, rel=1e-14)


def test_polar_constructor_matches_components():
    p = params_at("N14")
    theta = 0.0021
    f_polar = FieldConfig.from_polar(480.0, theta)
    f_comp = FieldConfig(bz=480.0 * np.cos(theta), bx=480.0 * np.sin(theta))
    h1 = build_hamiltonian(p, f_polar, N14)
    h2 = build_hamiltonian(p, f_comp, N14)
    assert np.array_equal(h1, h2)


def test_negative_bx_normalized_and_spectrum_even():
    p = params_at("N14")
    f = FieldConfig(bz=470.0, bx=-0.8)
    assert f.bx == 0.8
    # spectrum is even in Bx (basis change x -> -x): compare eigenvalues
    h_plus = _hamiltonians(_coefficients(p, [(470.0, 0.8)], N14), N14)[0]
    h_minus = _hamiltonians(_coefficients(p, [(470.0, -0.8)], N14), N14)[0]
    ev_plus = np.linalg.eigvalsh(h_plus)
    ev_minus = np.linalg.eigvalsh(h_minus)
    assert np.allclose(ev_plus, ev_minus, rtol=0, atol=1e-9)


def test_n15_rejects_nonzero_q():
    p = CouplingParams(d=2.87e6, q=-1.0, a_par=3033.3, a_perp=3680.0, gamma_n=N15.gamma_n)
    with pytest.raises(ValueError):
        build_hamiltonian(p, FieldConfig(bz=470.0), N15)


def test_params_must_be_finite():
    with pytest.raises(ValueError, match="must be finite"):
        CouplingParams(d=np.nan, q=0.0, a_par=1.0, a_perp=1.0, gamma_n=N14.gamma_n)
    # gamma_e is the constant GAMMA_E_KHZ_PER_G, no parameter.
    with pytest.raises(TypeError, match="gamma_e"):
        CouplingParams(d=1.0, q=0.0, a_par=1.0, a_perp=1.0, gamma_n=N14.gamma_n, gamma_e=1.0)
    with pytest.raises(TypeError, match="gamma_n"):
        CouplingParams(d=1.0, q=0.0, a_par=1.0, a_perp=1.0)
    with pytest.raises(ValueError):
        FieldConfig(bz=np.inf)


def test_longdouble_construction():
    p = params_at("N14")
    h = build_hamiltonian(p, FieldConfig(bz=470.0, bx=0.5), N14, dtype=np.longdouble)
    assert h.dtype == np.longdouble
    h64 = build_hamiltonian(p, FieldConfig(bz=470.0, bx=0.5), N14)
    assert np.max(np.abs(h.astype(float) - h64)) < 1e-6
