"""Distance measures between quantum states.

The matrix routes check the closed-form laws in ``verify`` and the tests; the
CLI's finite-temperature qubit curves use :func:`traceless_qubit_distance`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import eig_hermitian

# Eigenvalues below this are round-off of "equal states" and clamped to 0 so
# trace_distance(rho, rho) is exactly 0.
EIGENVALUE_CLIP = 1e-13


def _check_same_dims(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DimensionError(f"state dims differ: {rho.shape} vs {sigma.shape}")
    return rho, sigma


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) sum |eigenvalues of rho - sigma|; in [0, 1] for valid states."""
    rho, sigma = _check_same_dims(rho, sigma)
    w, _ = eig_hermitian(rho - sigma)
    w = np.where(np.abs(w) < EIGENVALUE_CLIP, 0.0, w)
    return float(0.5 * np.sum(np.abs(w)))


def traceless_qubit_distance(d_ee, d_eg) -> np.ndarray:
    """Trace distance of two qubit states whose difference is the traceless
    [[d_ee, d_eg], [conj(d_eg), -d_ee]], elementwise over arrays.

    The eigenvalues are +-sqrt(d_ee^2 + |d_eg|^2), so the distance is that
    root, clamped to 0 below EIGENVALUE_CLIP as in :func:`trace_distance`.
    """
    d_eg = np.asarray(d_eg)
    root = np.sqrt(d_ee**2 + d_eg.real**2 + d_eg.imag**2)
    return np.where(root < EIGENVALUE_CLIP, 0.0, root)


def hs_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance sqrt(tr[(rho - sigma)^2])."""
    rho, sigma = _check_same_dims(rho, sigma)
    return float(np.linalg.norm(rho - sigma))
