"""Brute-force evolutions of the full composite systems in truncated bases.

These are the independent cross-checks for every closed form in
:mod:`oscillator` and :mod:`tls`: build the composite initial state, apply the
numerically exponentiated propagator, partial-trace the partner away.  For
all three models the free and coupling generators commute (the couplings
conserve total excitation), so a single exponential is exact and no
time-ordering is needed.  A non-commuting extension would have to replace
this with a time-ordered integrator.

The two-oscillator model relaxes into a partner mode in its vacuum, as every
oscillator closed form assumes.  The coupling conserves total excitation, so
|n, 0> never leaves sector n, spanned by |m, n - m> for m = 0 .. n; each
sector Hamiltonian is a small tridiagonal matrix that gets eigendecomposed
numerically.  These sectors are invariant blocks of the dense truncated
operator, which only the test suite builds, as a reference the sector route
must reproduce.  Skipping the dense matrix lets the system space be padded
past the requested output dimension until the initial tail is negligible.

The Jaynes-Cummings oracle uses the same idea at its smallest: the coupling
b sigma+ + b+ sigma- conserves excitation number, so the truncated operator
splits into the 2x2 blocks {|e, n>, |g, n+1>} (n = 0 .. dim-2) plus the two
uncoupled states |g, 0> and |e, dim-1>.  All blocks are diagonalized
numerically in one batched call; each initial basis state |c, k> then
evolves into at most two amplitudes, on mode levels k-1, k and k+1, so the
reduced state costs O(dim) and no 2dim x 2dim matrix is ever formed.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DimensionError, StateError, TruncationError, TruncationWarning
from .oscillator import (
    TAIL_FAIL_TOL,
    TOP_LEVEL_WARN_TOL,
    Coherent,
    Fock,
    InitialState,
    Thermal,
)
from .states import BathThermal, BlochVector, bloch_density_matrix

# Initial-state tails are padded away until below this, so truncation error
# stays far below the closed-form/oracle comparison tolerances.
PAD_TAIL_TOL = 1e-9
PAD_CAP = 64
BATH_TAIL_TOL = 1e-12  # thermal-bath renormalization shift must stay below this
_WEIGHT_CUT = 1e-20    # initial weights below this cannot move any tested digit


@lru_cache(maxsize=8)
def _sector_eigensystems(levels: int):
    """Eigendecompositions of the excitation-exchange coupling in sectors 0 .. levels-1.

    Sector ``total`` has basis |m, total - m>, m = 0 .. total, and tridiagonal
    coupling sqrt((m+1)(total-m)).
    """
    sectors = []
    for total in range(levels):
        m = np.arange(total, dtype=float)
        h = np.diag(np.sqrt((m + 1.0) * (total - m)), 1)
        sectors.append(np.linalg.eigh(h + h.T))
    return sectors


def _evolved_sector_column(sectors, n: int, kappa: float):
    """Amplitudes over system levels 0..n after evolving |n, 0>."""
    w, v = sectors[n]
    return v @ (np.exp(-1j * kappa * w) * v[n, :])


def _levels_for_geometric(mean: float, floor: int, tol: float, cap: int) -> int:
    """Smallest level count >= floor whose geometric tail is <= tol (capped)."""
    if mean <= 0.0:
        return floor
    ratio = mean / (mean + 1.0)
    needed = math.ceil(math.log(tol) / math.log(ratio))
    return max(floor, min(needed, cap))


def _levels_for_poisson(mean_sq: float, floor: int, tol: float, cap: int) -> int:
    """Smallest level count >= floor whose Poisson tail is <= tol (capped)."""
    term = math.exp(-mean_sq)
    total = term
    n = 0
    while 1.0 - total > tol and n < cap:
        n += 1
        term *= mean_sq / n
        total += term
    return max(floor, min(n + 1, cap))


def _geometric_weights(mean: float, levels: int) -> np.ndarray:
    ratio = mean / (mean + 1.0)
    w = (1.0 / (mean + 1.0)) * ratio ** np.arange(levels)
    return w / w.sum()


def _finalize_reduced(rho: np.ndarray, dim: int, what: str) -> np.ndarray:
    """Crop to the requested output dim, check the clipped tail, renormalize."""
    out = np.array(rho[:dim, :dim], dtype=complex)
    trace = float(np.trace(out).real)
    deficit = 1.0 - trace
    if deficit > TAIL_FAIL_TOL:
        raise TruncationError(
            f"{what}: evolved state leaves {deficit:.3e} of its mass above "
            f"level {dim - 1}"
        )
    top_two = float(np.trace(out[dim - 2 :, dim - 2 :]).real)
    if top_two > TOP_LEVEL_WARN_TOL:
        warnings.warn(
            f"{what}: population {top_two:.3e} in the top two retained levels",
            TruncationWarning,
            stacklevel=3,
        )
    out /= trace
    return (out + out.conj().T) / 2.0


def oscillator_oracle(
    init_a: InitialState,
    omega0_t: float,
    kappa: float,
    dim: int,
) -> np.ndarray:
    """Evolve (system oscillator) x (partner oscillator in its vacuum) exactly and reduce.

    The composite propagator is exp(-i [w0 t (n_a + n_b) + kappa (a b+ + a+ b)]);
    the system space is padded internally past ``dim`` until the initial tail
    is below PAD_TAIL_TOL, and the reduced state is cropped back to dim x dim.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation needs dim >= 2, got {dim}")

    cap = dim + PAD_CAP
    if isinstance(init_a, Thermal):
        levels = _levels_for_geometric(init_a.nbar, dim, PAD_TAIL_TOL, cap)
        sys_diag = _geometric_weights(init_a.nbar, levels)
    elif isinstance(init_a, Fock):
        if init_a.n >= dim:
            raise DimensionError(f"Fock level {init_a.n} needs dim > {init_a.n}")
        levels = dim
        sys_diag = np.zeros(levels)
        sys_diag[init_a.n] = 1.0
    elif isinstance(init_a, Coherent):
        levels = _levels_for_poisson(abs(init_a.alpha) ** 2, dim, PAD_TAIL_TOL, cap)
        amp = complex(init_a.alpha)
        sys_vec = np.zeros(levels, dtype=complex)
        sys_vec[0] = math.exp(-0.5 * abs(amp) ** 2)
        for n in range(1, levels):
            sys_vec[n] = sys_vec[n - 1] * amp / math.sqrt(n)
        sys_vec /= math.sqrt(float(np.sum(np.abs(sys_vec) ** 2)))
        sys_diag = None
    else:
        raise TypeError(f"unknown initial state {init_a!r}")

    sectors = _sector_eigensystems(levels)
    # The state type picks one of two paths.  A diagonal mixture only needs
    # populations: each |n, 0> stays in sector n and the free phases cancel in
    # |amp|^2.  The pure coherent state interferes across sectors, so it needs
    # one amplitude matrix psi[m, n - m].  One general density-matrix path for
    # both was measured several times slower per dim-120 call.
    if sys_diag is not None:
        pops = np.zeros(levels)
        for n, pn in enumerate(sys_diag):
            if pn < _WEIGHT_CUT:
                continue
            pops[: n + 1] += pn * np.abs(_evolved_sector_column(sectors, n, kappa)) ** 2
        reduced = np.diag(pops).astype(complex)
    else:
        psi = np.zeros((levels, levels), dtype=complex)
        for n in np.flatnonzero(np.abs(sys_vec) > 1e-18):
            ms = np.arange(n + 1)
            psi[ms, n - ms] = (
                np.exp(-1j * omega0_t * n) * sys_vec[n] * _evolved_sector_column(sectors, n, kappa)
            )
        reduced = psi @ psi.conj().T

    return _finalize_reduced(reduced, dim, f"oscillator oracle(dim={dim})")


# Composite qubit x qubit generators: free sigma_z sum and the exchange coupling.
_PAIR_FREE = linalg.tensor(linalg.PAULI_Z, np.eye(2)) + linalg.tensor(np.eye(2), linalg.PAULI_Z)
_PAIR_EXCHANGE = linalg.tensor(linalg.SIGMA_MINUS, linalg.SIGMA_PLUS) + linalg.tensor(
    linalg.SIGMA_PLUS, linalg.SIGMA_MINUS
)


def tls_pair_oracle(
    r: BlochVector, bath: BathThermal, mu: float, omega_t: float = 0.0
) -> np.ndarray:
    """Evolve qubit x thermal qubit with the exchange coupling and reduce."""
    rho0 = linalg.tensor(
        bloch_density_matrix(r),
        np.diag([bath.p_excited, bath.p_ground]).astype(complex),
    )
    u = linalg.propagator(0.5 * omega_t * _PAIR_FREE + mu * _PAIR_EXCHANGE)
    return linalg.partial_trace_b(u @ rho0 @ u.conj().T, 2, 2)


def _jcm_sector_propagators(phi: float, dim: int) -> np.ndarray:
    """exp(-i phi H_s) for every excitation sector s = 0 .. dim of the truncated JCM.

    Entry s acts on {|e, s-1>, |g, s>}: sectors 1 .. dim-1 are the coupled
    blocks [[0, phi sqrt(s)], [phi sqrt(s), 0]], diagonalized numerically;
    sector 0 holds only |g, 0> and sector dim only |e, dim-1>, each with
    propagator 1 (the slot of the missing state is left 0).
    """
    coupling = phi * np.sqrt(np.arange(1.0, dim))
    h = np.zeros((dim - 1, 2, 2))
    h[:, 0, 1] = h[:, 1, 0] = coupling
    w, v = np.linalg.eigh(h)
    out = np.zeros((dim + 1, 2, 2), dtype=complex)
    out[1:dim] = np.einsum("sij,sj,skj->sik", v, np.exp(-1j * w), v)
    out[0, 1, 1] = out[dim, 0, 0] = 1.0
    return out


def _jcm_evolve(
    rho_q: np.ndarray, mode_pops: np.ndarray, phi: float, omega_t: float
) -> np.ndarray:
    """Reduced qubit state of U (rho_q x diag(mode_pops)) U+ over len(mode_pops) levels."""
    dim = len(mode_pops)
    sectors = _jcm_sector_propagators(phi, dim)
    # cols[k, c, a, j] = <a, k-1+j| U |c, k>: |e, k> lives in sector k+1 and
    # |g, k> in sector k, whose |e> slot sits one mode level below its |g> slot.
    cols = np.zeros((dim, 2, 2, 3), dtype=complex)
    cols[:, 0, 0, 1] = sectors[1:, 0, 0]
    cols[:, 0, 1, 2] = sectors[1:, 1, 0]
    cols[:, 1, 0, 0] = sectors[:-1, 0, 1]
    cols[:, 1, 1, 1] = sectors[:-1, 1, 1]
    levels = np.arange(dim)[:, None] + np.arange(-1, 2)  # mode level k-1+j
    free_qubit = np.exp(-0.5j * omega_t * np.array([1.0, -1.0]))
    free_mode = np.exp(-1j * omega_t * levels)
    cols *= free_qubit[None, None, :, None] * free_mode[:, None, None, :]
    # trace out the mode against diag(mode_pops): g[(c, a), (d, b)], then rho_q
    m = cols.transpose(1, 2, 0, 3).reshape(4, 3 * dim)
    g = (m * np.repeat(mode_pops, 3)) @ m.conj().T
    return np.einsum("cd,cadb->ab", rho_q, g.reshape(2, 2, 2, 2))


def jcm_oracle(
    r: BlochVector,
    bath: BathThermal,
    phi: float,
    omega_t: float = 0.0,
    dim: int = 40,
) -> np.ndarray:
    """Evolve qubit x boson mode in the truncated Fock basis and reduce.

    Interaction propagator exp(-i phi (b sigma+ + b+ sigma-)) from the
    numerically diagonalized excitation sectors, then the free rotation
    exp(-i omega_t (sigma_z / 2 + b+ b)), then the partial trace over the mode.
    Qubit index 0 is |e>, 1 is |g>.
    """
    if dim < 2:
        raise DimensionError(f"Fock truncation needs dim >= 2, got {dim}")
    nbar = bath.nbar  # 0 at zero temperature: one-hot weights
    if not math.isfinite(nbar):
        raise StateError("thermal boson bath needs beta*hbar*omega > 0")
    tail = (nbar / (nbar + 1.0)) ** dim
    if tail > BATH_TAIL_TOL:
        raise TruncationError(
            f"bath thermal tail {tail:.3e} above {BATH_TAIL_TOL:g} at dim={dim}"
        )
    return _jcm_evolve(bloch_density_matrix(r), _geometric_weights(nbar, dim), phi, omega_t)
