"""Dense complex matrix kernels for truncated bosonic and qubit spaces.

Everything here works on plain ``numpy`` arrays (complex128).  Basis
convention for two-level systems: index 0 is the excited state, index 1 the
ground state, so the relaxed ground state is ``diag(0, 1)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError

HERMITICITY_TOL = 1e-10  # max asymmetry eig_hermitian accepts before symmetrizing

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |e><g|
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|


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
