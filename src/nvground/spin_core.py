"""Spin operators and ground-state Hamiltonian assembly for NV centers.

Internal units throughout the package: kHz for energies/frequencies,
Gauss for magnetic fields, Kelvin for temperature, radians for angles.
Coupling parameters are stored with their physical signs (Q, A_par,
A_perp are negative for 14NV, positive for 15NV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Electron gyromagnetic ratio of the NV center, kHz/G.
GAMMA_E_KHZ_PER_G = 2803.3
# Nuclear gyromagnetic ratios, kHz/G (signed: 14N positive, 15N negative).
GAMMA_N14_KHZ_PER_G = 0.30759
GAMMA_N15_KHZ_PER_G = -0.43150


class StateLabel(NamedTuple):
    """Electron/nuclear spin projection pair identifying a basis state."""

    ms: int
    mi: float


@dataclass(frozen=True)
class IsotopeSpec:
    """Nitrogen isotope description for the electron-nuclear spin system."""

    name: str
    nuclear_spin: float
    gamma_n: float  # kHz/G, signed


N14 = IsotopeSpec(name="N14", nuclear_spin=1.0, gamma_n=GAMMA_N14_KHZ_PER_G)
N15 = IsotopeSpec(name="N15", nuclear_spin=0.5, gamma_n=GAMMA_N15_KHZ_PER_G)

ISOTOPES = {"N14": N14, "N15": N15}


def _require_finite(what: str, *values) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")


def get_isotope(name: str) -> IsotopeSpec:
    key = name.strip().upper().replace("NV", "N")
    if key in ("14N", "14"):
        key = "N14"
    if key in ("15N", "15"):
        key = "N15"
    try:
        return ISOTOPES[key]
    except KeyError:
        raise ValueError(f"unknown isotope {name!r}; expected N14 or N15") from None


@dataclass(frozen=True)
class CouplingParams:
    """Signed spin-Hamiltonian coefficients for one isotope (kHz, kHz/G);
    the electron's gamma_e is the constant GAMMA_E_KHZ_PER_G."""

    d: float
    q: float
    a_par: float
    a_perp: float
    gamma_n: float

    def __post_init__(self):
        values = (self.d, self.q, self.a_par, self.a_perp, self.gamma_n)
        _require_finite("coupling parameters", *values)


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: axial Bz plus transverse Bx (Gauss).

    The transverse component is fixed to the +x direction; a negative bx is
    folded onto +x at construction (the spectrum is even in bx).
    """

    bz: float
    bx: float = 0.0

    def __post_init__(self):
        _require_finite("field components", self.bz, self.bx)
        object.__setattr__(self, "bx", abs(self.bx))

    @classmethod
    def from_polar(cls, b_magnitude: float, theta: float) -> "FieldConfig":
        """Build from field magnitude and misalignment angle (radians)."""
        return cls(bz=b_magnitude * math.cos(theta), bx=b_magnitude * math.sin(theta))


def _sz_and_s_plus(s: float, dtype):
    """(Sz, S+) for spin s in the Sz eigenbasis ordered m = s ... -s, with
    <m+1|S+|m> = sqrt(s(s+1) - m(m+1)); S- is S+ transposed and every entry
    is real in this basis."""
    dim = round(2 * s) + 1
    m = np.array([s - k for k in range(dim)], dtype=dtype)
    s_plus = np.zeros((dim, dim), dtype=dtype)
    for k in range(1, dim):
        # raising from m[k] to m[k-1] = m[k] + 1
        s_plus[k - 1, k] = np.sqrt(np.asarray(s * (s + 1) - m[k] * (m[k] + 1), dtype=dtype))
    return np.diag(m), s_plus


def basis_labels(iso: IsotopeSpec) -> tuple[StateLabel, ...]:
    """Product-basis labels, ms in (+1, 0, -1) outer, mI descending inner."""
    i = iso.nuclear_spin
    nuc_dim = round(2 * i + 1)
    mis = [i - k for k in range(nuc_dim)]
    return tuple(StateLabel(ms, mi) for ms in (1, 0, -1) for mi in mis)


@lru_cache(maxsize=None)
def _structure(iso_name: str, dtype: np.dtype):
    """Stack of the eight coefficient matrices of the full Hamiltonian."""
    iso = ISOTOPES[iso_name]
    dtype = dtype.type
    sz, s_plus = _sz_and_s_plus(1.0, dtype)
    iz, i_plus = _sz_and_s_plus(iso.nuclear_spin, dtype)
    eye_e = np.eye(3, dtype=dtype)
    eye_n = np.eye(len(iz), dtype=dtype)
    sx = (s_plus + s_plus.T) / dtype(2)
    ix = (i_plus + i_plus.T) / dtype(2)
    flip_flop = (np.kron(s_plus, i_plus.T) + np.kron(s_plus.T, i_plus)) / dtype(2)
    stack = np.stack(
        [
            np.kron(sz @ sz, eye_n),            # D
            np.kron(eye_e, iz @ iz),            # Q
            np.kron(sz, iz),                    # A_par
            np.kron(sz, eye_n),                 # gamma_e * Bz
            np.kron(eye_e, iz),                 # -gamma_n * Bz
            flip_flop,                          # A_perp
            np.kron(sx, eye_n),                 # gamma_e * Bx
            np.kron(eye_e, ix),                 # -gamma_n * Bx
        ]
    )
    stack.flags.writeable = False
    return stack


def _weights(d, q, a_par, a_perp, gamma_n, bz, bx) -> list:
    """The eight _structure weights c_j of H = sum_j c_j S_j, in stack order."""
    g = GAMMA_E_KHZ_PER_G
    return [d, q, a_par, g * bz, -gamma_n * bz, a_perp, g * bx, -gamma_n * bx]


def _coefficients(p: CouplingParams, points, iso: IsotopeSpec, dtype=np.float64) -> np.ndarray:
    """The _weights at each (bz, bx) of ``points`` (bx may be < 0), (N, 8); ``p``
    and ``points`` come from CouplingParams and FieldConfig, checked finite there."""
    if iso.name == "N15" and p.q != 0.0:
        raise ValueError("N15 has nuclear spin 1/2: Q must be exactly 0")
    c = (p.d, p.q, p.a_par, p.a_perp, p.gamma_n)
    return np.array([_weights(*c, bz, bx) for bz, bx in points], dtype=dtype)


def _hamiltonians(rows: np.ndarray, iso: IsotopeSpec) -> np.ndarray:
    """H = sum_j c_j S_j for each (8,) row of _coefficients ``rows`` (N, 8), as
    an (N, d, d) stack.  matmul makes one (1, 8) @ (8, d*d) product per row,
    so each matrix gets the same bits whatever N is."""
    stack = _structure(iso.name, rows.dtype)
    n = stack.shape[-1]
    return np.matmul(rows.reshape(-1, 1, 8), stack.reshape(len(stack), -1)).reshape(-1, n, n)


def build_hamiltonian(
    p: CouplingParams, f: FieldConfig, iso: IsotopeSpec, dtype=np.float64
) -> np.ndarray:
    """Full ground-state Hamiltonian (d, d) in the basis_labels(iso) order.

    H = D Sz^2 + Q Iz^2 + A_par Sz Iz + gamma_e Bz Sz - gamma_n Bz Iz
        + (A_perp/2)(S+ I- + S- I+) + gamma_e Bx Sx - gamma_n Bx Ix

    The matrix is constructed symmetric term by term (never symmetrized
    after the fact).  Pass dtype=np.longdouble for extended-precision work.
    """
    return _hamiltonians(_coefficients(p, [(f.bz, f.bx)], iso, dtype), iso)[0]
