"""Dense complex matrix kernels for truncated bosonic and qubit spaces.

Everything here works on plain ``numpy`` arrays (complex128).  Basis
convention for two-level systems: index 0 is the excited state, index 1 the
ground state, so the relaxed ground state is ``diag(0, 1)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError, StateError

# Tolerances fixed package-wide.
HERMITICITY_TOL = 1e-10     # max asymmetry accepted before symmetrizing
DENSITY_TRACE_TOL = 1e-10
DENSITY_HERM_TOL = 1e-12
DENSITY_EIG_FLOOR = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


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


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a (not necessarily normalized) column vector."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


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


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Asymmetry up to ``HERMITICITY_TOL`` is treated as round-off and
    symmetrized away; anything larger raises, so bugs are not masked.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.conj().T)))
    if asym > HERMITICITY_TOL:
        raise HermiticityError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, v


def propagator(h: np.ndarray) -> np.ndarray:
    """exp(-i H) for a Hermitian generator H (all time integrals inside H)."""
    w, v = eig_hermitian(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


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
