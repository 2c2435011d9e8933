"""Distance measures between quantum states given as density matrices.

The closed-form laws in :mod:`oscillator` and :mod:`tls` are checked against
these matrix routes in ``verify`` and the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, HermiticityError

HERMITICITY_TOL = 1e-10  # max asymmetry eig_hermitian accepts before symmetrizing
# Eigenvalues below this are round-off of "equal states" and clamped to 0 so
# trace_distance(rho, rho) is exactly 0.
EIGENVALUE_CLIP = 1e-13


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


def hs_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance sqrt(tr[(rho - sigma)^2])."""
    rho, sigma = _check_same_dims(rho, sigma)
    return float(np.linalg.norm(rho - sigma))
