"""Closed-form qubit relaxation: the qubit-qubit exchange model and the
resonant qubit-boson (Jaynes-Cummings) model with a time-dependent coupling.

Basis convention: index 0 = excited, index 1 = ground, so the zero-temperature
relaxation point is diag(0, 1).  All dynamics enter through the accumulated
coupling phase (``mu`` for the qubit pair, ``phi`` for the boson model) or its
cos^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StateError, TruncationError
from .schedules import check_cos2
from .states import BathThermal, BlochVector

# Series truncation for a thermal boson bath: keep terms until the Boltzmann
# weight drops below BOLTZMANN_CUT, never more than SERIES_CAP of them.
BOLTZMANN_CUT = 1e-14
SERIES_CAP = 4000
# Distinct phases per block of the thermal series: about this many (phase, level) cells.
SERIES_CHUNK_CELLS = 1 << 16


def ground_state() -> np.ndarray:
    """Relaxed qubit state diag(0, 1)."""
    return np.diag([0.0, 1.0]).astype(complex)


def _qubit_matrix(rho_ee, rho_gg, rho_eg) -> np.ndarray:
    rho_eg = complex(rho_eg)
    return np.array([[rho_ee, rho_eg], [rho_eg.conjugate(), rho_gg]], dtype=complex)


def tls_pair_components(r: BlochVector, bath: BathThermal, mu_cos2, omega_t=0.0):
    """Populations (rho_ee, rho_gg) and coherence rho_eg of a qubit exchanging
    excitation with a thermal partner qubit.

    ``mu_cos2`` is cos^2 of the accumulated exchange phase, a scalar or an
    array; ``omega_t`` the accumulated free phase on the coherence.
    """
    c2 = check_cos2(mu_cos2, "mu_cos2")
    s2 = 1.0 - c2
    pe, pg = bath.p_excited, bath.p_ground
    up = 0.5 * (1.0 + r.rz)
    dn = 0.5 * (1.0 - r.rz)
    rho_ee = up * pe + up * pg * c2 + dn * pe * s2
    rho_gg = dn * pg + dn * pe * c2 + up * pg * s2
    rho_eg = 0.5 * (r.rx - 1j * r.ry) * np.exp(-1j * omega_t) * np.sqrt(c2)
    return rho_ee, rho_gg, rho_eg


def tls_pair_evolve(
    r: BlochVector, bath: BathThermal, mu_cos2: float, omega_t: float = 0.0
) -> np.ndarray:
    """Reduced 2x2 state of :func:`tls_pair_components` at one exchange phase."""
    return _qubit_matrix(*tls_pair_components(r, bath, float(mu_cos2), omega_t))


def _bath_weights(bath: BathThermal) -> np.ndarray:
    """Boltzmann weights e^(-b n) (1 - e^(-b)), normalized by the exact partition sum.

    The series stops at the first n whose weight ratio e^(-b n) is below
    BOLTZMANN_CUT; a bath hot enough to need more than SERIES_CAP terms raises.
    """
    if bath.is_zero_temperature:
        return np.array([1.0])
    b = bath.beta_hbar_omega
    if b <= 0.0:
        raise StateError("thermal boson bath needs beta*hbar*omega > 0")
    n_max = min(math.ceil(-math.log(BOLTZMANN_CUT) / b), SERIES_CAP)
    if math.exp(-b * n_max) >= BOLTZMANN_CUT:
        raise TruncationError(
            f"series cut at n_max={n_max} leaves Boltzmann weight "
            f"{math.exp(-b * n_max):.3e} >= {BOLTZMANN_CUT:g}"
        )
    n = np.arange(n_max + 1, dtype=float)
    return np.exp(-b * n) * (1.0 - math.exp(-b))


def jcm_bath_sums(bath: BathThermal, phi):
    """Thermal series (pop_up, pop_dn, coh) of a boson bath, for a scalar or an
    array of phases; they do not depend on the qubit state.

    Series over bath levels n with weights e^(-b n)/z_b; at zero temperature
    it collapses to the single n = 0 term.  Each distinct phase is summed once,
    in blocks of about SERIES_CHUNK_CELLS (phase, level) cells, each row in the
    same order as a single-phase sum.
    """
    w = _bath_weights(bath)
    phi = np.asarray(phi, dtype=float)
    distinct, index = np.unique(phi.reshape(-1), return_inverse=True)
    roots = np.sqrt(np.arange(len(w) + 1, dtype=float))
    sums = np.empty((3, distinct.size))
    rows = max(1, SERIES_CHUNK_CELLS // len(w))
    for start in range(0, distinct.size, rows):
        block = slice(start, start + rows)
        p = distinct[block, None]
        cos_k = np.cos(p * roots)  # cos(phi sqrt(k)), k = 0 .. n_max + 1
        cos_up, cos_dn = cos_k[:, 1:], cos_k[:, :-1]
        sin_dn = np.sin(p * roots[:-1])
        sums[0, block] = np.sum(cos_up**2 * w, axis=1)
        sums[1, block] = np.sum(sin_dn**2 * w, axis=1)
        sums[2, block] = np.sum(cos_up * cos_dn * w, axis=1)
    return tuple(s[index].reshape(phi.shape) for s in sums)


def jcm_thermal_series(r: BlochVector, sums, omega_t=0.0):
    """Excited population rho_ee and coherence rho_eg of the qubit after
    exchanging with a thermal boson mode, from the :func:`jcm_bath_sums`."""
    pop_up, pop_dn, coh = sums
    up = 0.5 * (1.0 + r.rz)
    dn = 0.5 * (1.0 - r.rz)
    rho_ee = up * pop_up + dn * pop_dn
    rho_eg = 0.5 * (r.rx - 1j * r.ry) * np.exp(-1j * omega_t) * coh
    return rho_ee, rho_eg


def jcm_thermal_components(
    r: BlochVector, bath: BathThermal, phi: float, omega_t: float = 0.0
) -> np.ndarray:
    """Reduced 2x2 qubit state of :func:`jcm_thermal_series` at one phase."""
    rho_ee, rho_eg = jcm_thermal_series(r, jcm_bath_sums(bath, float(phi)), omega_t)
    return _qubit_matrix(rho_ee, 1.0 - rho_ee, rho_eg)


def jcm_bloch_components(r: BlochVector, phi, omega_t=0.0):
    """Bloch components of the zero-temperature evolved state for scalar or
    array phases: the coherence is shrunk by cos(phi) and rotated by omega_t,
    the population relaxes as rz cos^2(phi) - sin^2(phi)."""
    c = np.cos(phi)
    cw, sw = np.cos(omega_t), np.sin(omega_t)
    return (
        (r.rx * cw - r.ry * sw) * c,
        (r.rx * sw + r.ry * cw) * c,
        r.rz * c * c - np.sin(phi) ** 2,
    )


def jcm_trace_distance(r: BlochVector, phi_cos2, p_excited: float = 0.0):
    """Trace distance from the evolved qubit to its relaxation point,
    sqrt(w^2 c^2 + r_perp^2 c / 4) with w = (1 + rz)/2 - p_excited.

    With p_excited = 0 this is the qubit-boson model at zero temperature
    (relaxation point diag(0, 1)).  With the partner qubit's excited weight
    and c = mu_cos2 it is the qubit pair (relaxation point diag(p_e, p_g)),
    whose partner is a boson mode truncated to two levels.  ``phi_cos2`` is
    a scalar (float result) or an array (array result).
    """
    c = check_cos2(phi_cos2, "phi_cos2")
    # (1 + rz)/2 - p_excited, not (rz + p_ground - p_excited)/2: p_ground is rounded
    w = 0.5 * (1.0 + r.rz) - p_excited
    d = np.sqrt(w**2 * c**2 + 0.25 * (r.rx**2 + r.ry**2) * c)
    low = d < 1.5e-154  # the squares underflow: take the root term by term
    if np.any(low):
        d = np.where(low, np.hypot(w * c, 0.5 * r.r_perp * np.sqrt(c)), d)
    return float(d) if d.ndim == 0 else d


def tls_energy(rho_ee):
    """Qubit energy in units of hbar*omega, (rho_ee - rho_gg)/2 in [-1/2, 1/2],
    of a unit-trace state given by its excited population (scalar or array)."""
    return 0.5 * (rho_ee - (1.0 - rho_ee))


def crossing_cos_phi(r: BlochVector) -> float | None:
    """cos(phi) at which the distance curve of ``r`` meets that of (0, 0, 1).

    Requires in-plane coherence; returns None when r_perp = 0 or when the
    formula gives a value outside (0, 1] (no intersection at real phase).
    """
    r_perp = r.r_perp
    if r_perp == 0.0:
        return None
    value = r_perp / math.sqrt(4.0 - (1.0 + r.rz) ** 2)
    return value if value <= 1.0 else None


def crossing_tau_cavity(r_perp: float) -> float:
    """Scaled intersection time t/t0 under the cavity-mode profile for rz = 0.

    Inverts the cavity phase law at the crossing phase of
    :func:`crossing_cos_phi`, cos(phi) = r_perp/sqrt(3); decreases strictly
    from 1 (r_perp -> 0) to about 0.569 (r_perp = 1), so every r_perp in
    (0, 1] crosses inside the coupling window.
    """
    if not 0.0 < r_perp <= 1.0:
        raise StateError(f"r_perp must lie in (0, 1], got {r_perp}")
    cos_phi = crossing_cos_phi(BlochVector(r_perp, 0.0, 0.0))
    return math.acos(1.0 - (4.0 / math.pi) * math.acos(cos_phi)) / math.pi
