import math

import numpy as np
import pytest
from hypothesis import strategies as st

from mpemba_qsim.errors import DimensionError, StateError
from mpemba_qsim.states import BlochVector

# Tolerances of validate_density_matrix.
DENSITY_TRACE_TOL = 1e-10
DENSITY_HERM_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_bloch(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return BlochVector(*(d * rng.uniform() ** (1.0 / 3.0)))


@st.composite
def bloch_vectors(draw):
    rx, ry, rz = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    scale = draw(st.floats(0.0, 1.0)) / norm if norm > 1.0 else 1.0
    return BlochVector(rx * scale, ry * scale, rz * scale)


def ladder_lowering(dim: int) -> np.ndarray:
    """Lowering operator on a Fock space truncated to ``dim`` levels.

    Entry (n-1, n) is sqrt(n) for 1 <= n < dim, everything else 0.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def number_operator(dim: int) -> np.ndarray:
    """diag(0, 1, ..., dim-1)."""
    if dim < 2:
        raise DimensionError(f"Fock truncation needs dim >= 2, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def validate_density_matrix(rho: np.ndarray, what: str = "state") -> None:
    """Raise StateError unless rho is unit-trace, Hermitian and PSD.

    Tolerances: trace within 1e-10 of 1, Hermitian within 1e-12, smallest
    eigenvalue >= -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"{what}: expected a square matrix, got {rho.shape}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise StateError(f"{what}: trace {tr} deviates from 1 by {abs(tr - 1.0):.3e}")
    asym = float(np.max(np.abs(rho - rho.conj().T)))
    if asym > DENSITY_HERM_TOL:
        raise StateError(f"{what}: not Hermitian, max asymmetry {asym:.3e}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if float(w[0]) < DENSITY_EIG_FLOOR:
        raise StateError(f"{what}: negative eigenvalue {w[0]:.3e}")
