import math

import numpy as np
import pytest
from hypothesis import strategies as st

from mpemba_qsim.crossings import DEFAULT_SIGN_TOL, DistanceSeries, detect_crossings
from mpemba_qsim.errors import DimensionError, StateError
from mpemba_qsim.metrics import eig_hermitian
from mpemba_qsim.oscillator import Coherent, Thermal, trace_distance_closed
from mpemba_qsim.states import BlochVector

# Tolerances of validate_density_matrix.
DENSITY_TRACE_TOL = 1e-10
DENSITY_HERM_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10

# Qubit operators of the dense test references; index 0 is |e>, 1 is |g>.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor indexes the slow (outer) subsystem."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace_b(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dim_a*dim_b)-dim operator."""
    rho = np.asarray(rho, dtype=complex)
    n = dim_a * dim_b
    if rho.shape != (n, n):
        raise DimensionError(
            f"expected a {n}x{n} matrix for dims ({dim_a},{dim_b}), got {rho.shape}"
        )
    return np.einsum("ijkj->ik", rho.reshape(dim_a, dim_b, dim_a, dim_b))


def propagator(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for a Hermitian generator H (all time integrals inside H)."""
    w, v = eig_hermitian(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def alpha_window_scan(nbar_a, alphas, grid, tol=DEFAULT_SIGN_TOL) -> list[dict]:
    """For each |alpha|, does the coherent curve cross the thermal one in the window?

    The grid is in units of the decay rate (cos2 = e^-tau).  A crossing counts
    only when the thermal state starts strictly farther from the ground state,
    the scenario in which the intersection signals anomalous relaxation; above
    |alpha| = sqrt(ln(1/(1 - (nbar/(nbar+1))^2))) the coherent state starts
    farther and the pair is reported as not crossing.
    """
    grid = np.asarray(grid, dtype=float)
    cos2 = np.exp(-grid)
    thermal = DistanceSeries(
        f"thermal:{nbar_a:g}", grid, trace_distance_closed(Thermal(nbar_a), cos2)
    )
    results = []
    for alpha in alphas:
        coherent = DistanceSeries(
            f"coherent:{alpha:g}", grid, trace_distance_closed(Coherent(alpha), cos2)
        )
        delta0 = float(thermal.values[0] - coherent.values[0])
        report = detect_crossings(thermal, coherent, tol)
        has = bool(delta0 > tol and report.pairs[0].crossing_times)
        results.append({"alpha": float(alpha), "has_crossing": has})
    return results
