"""Closed-form relaxation of an oscillator into a zero-temperature partner mode.

At zero bath temperature the reduced state of the system oscillator keeps the
shape of its initial family for all the families used here: a thermal state
stays thermal with mean nbar * cos2, a coherent state stays coherent with
amplitude alpha * exp(-i w0 t) * sqrt(cos2), and a Fock state |N> turns into a
binomial mixture with success probability cos2, where cos2 is the schedule's
cos^2 of the accumulated coupling phase.  Distances to the relaxed ground
state |0><0| have matching closed forms.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError, StateError, TruncationError, TruncationWarning
from .linalg import projector
from .schedules import check_cos2

DEFAULT_FOCK_DIM = 40
# Adequacy thresholds for truncated states: population in the top two levels
# above TOP_LEVEL_WARN_TOL is flagged; clipped tail mass above
# TAIL_FAIL_TOL means the truncation misrepresents the state and is an error.
TOP_LEVEL_WARN_TOL = 1e-10
TAIL_FAIL_TOL = 1e-3


@dataclass(frozen=True)
class Thermal:
    """Thermal initial state with mean occupation nbar."""

    nbar: float

    def __post_init__(self) -> None:
        if not 0 <= self.nbar < math.inf:
            raise StateError(f"mean occupation must be finite and >= 0, got {self.nbar}")


@dataclass(frozen=True)
class Coherent:
    """Coherent initial state |alpha>."""

    alpha: complex

    def __post_init__(self) -> None:
        try:  # every closed form and the oracle square |alpha|
            ok = cmath.isfinite(self.alpha) and abs(self.alpha) ** 2 < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise StateError(
                f"coherent amplitude must be finite, with |alpha|^2 in the float range, got {self.alpha}"
            )


@dataclass(frozen=True)
class Fock:
    """Number (Fock) initial state |n>."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or int(self.n) != self.n:
            raise StateError(f"Fock level must be a nonnegative integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


InitialState = Union[Thermal, Coherent, Fock]


def _truncation_checks(deficit: float, top_two: float, what: str) -> None:
    if deficit > TAIL_FAIL_TOL:
        raise TruncationError(
            f"{what}: clipped tail mass {deficit:.3e} exceeds {TAIL_FAIL_TOL:g}; "
            "increase the truncation dimension"
        )
    if top_two > TOP_LEVEL_WARN_TOL:
        warnings.warn(
            f"{what}: population {top_two:.3e} in the top two levels exceeds "
            f"{TOP_LEVEL_WARN_TOL:g}",
            TruncationWarning,
            stacklevel=3,
        )


def thermal_populations(mean: float, dim: int) -> np.ndarray:
    """Geometric level populations with the given mean, renormalized over dim levels."""
    if dim < 2:
        raise DimensionError(f"need dim >= 2, got {dim}")
    if mean < 0:
        raise StateError(f"mean occupation must be >= 0, got {mean}")
    if mean == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    ratio = mean / (mean + 1.0)
    pops = (1.0 / (mean + 1.0)) * ratio ** np.arange(dim)
    deficit = ratio**dim
    pops /= 1.0 - deficit
    _truncation_checks(deficit, float(pops[-2:].sum()), f"thermal(mean={mean:g}, dim={dim})")
    return pops


def binomial_populations(n_fock: int, cos2: float, dim: int) -> np.ndarray:
    """Binomial(n_fock, cos2) level populations; exact (no clipped tail) for n_fock < dim.

    Coefficients go through log-gamma so n_fock up to ~170 is overflow-safe.
    """
    if n_fock >= dim:
        raise DimensionError(f"Fock level {n_fock} needs dim > {n_fock}, got {dim}")
    pops = np.zeros(dim)
    if cos2 == 0.0:
        pops[0] = 1.0
        return pops
    if cos2 == 1.0:
        pops[n_fock] = 1.0
        return pops
    k = np.arange(n_fock + 1)
    log_binom = (
        math.lgamma(n_fock + 1)
        - np.array([math.lgamma(x + 1) for x in k])
        - np.array([math.lgamma(n_fock - x + 1) for x in k])
    )
    pops[: n_fock + 1] = np.exp(
        log_binom + k * math.log(cos2) + (n_fock - k) * math.log1p(-cos2)
    )
    pops /= pops.sum()  # kills ~1e-16 rounding drift; the exact sum is 1
    return pops


def coherent_vector(amplitude: complex, dim: int) -> np.ndarray:
    """Normalized truncated coherent-state vector with the given amplitude."""
    if dim < 2:
        raise DimensionError(f"need dim >= 2, got {dim}")
    amplitude = complex(amplitude)
    v = np.zeros(dim, dtype=complex)
    v[0] = math.exp(-0.5 * abs(amplitude) ** 2)
    for n in range(1, dim):
        v[n] = v[n - 1] * amplitude / math.sqrt(n)
    norm_sq = float(np.sum(np.abs(v) ** 2))
    deficit = max(0.0, 1.0 - norm_sq)
    top_two = float(np.sum(np.abs(v[-2:]) ** 2)) / norm_sq
    _truncation_checks(deficit, top_two, f"coherent(|amp|={abs(amplitude):g}, dim={dim})")
    return v / math.sqrt(norm_sq)


def ground_state(dim: int) -> np.ndarray:
    """The relaxed state |0><0|."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def evolve_closed_form(
    state: InitialState,
    cos2: float,
    omega0_t: float = 0.0,
    dim: int = DEFAULT_FOCK_DIM,
) -> np.ndarray:
    """Reduced system state once the coupling phase has cos^2 equal to ``cos2``.

    ``omega0_t`` is the accumulated free phase; it only rotates the coherent
    amplitude and drops out of every distance to the ground state.
    """
    cos2 = float(check_cos2(cos2))
    if isinstance(state, Thermal):
        return np.diag(thermal_populations(state.nbar * cos2, dim)).astype(complex)
    if isinstance(state, Fock):
        return np.diag(binomial_populations(state.n, cos2, dim)).astype(complex)
    if isinstance(state, Coherent):
        amp = state.alpha * np.exp(-1j * omega0_t) * math.sqrt(cos2)
        return projector(coherent_vector(amp, dim))
    raise TypeError(f"unknown initial state {state!r}")


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def trace_distance_closed(state: InitialState, cos2):
    """Closed-form trace distance between the evolved state and |0><0|.

    ``cos2`` is a scalar (float result) or an array (array result).
    """
    c = check_cos2(cos2)
    if isinstance(state, Thermal):
        mean = state.nbar * c
        return _scalar_or_array(mean / (mean + 1.0))
    if isinstance(state, Coherent):
        return _scalar_or_array(_coherent_distance(abs(state.alpha), c, 1.0))
    if isinstance(state, Fock):
        if state.n == 0:
            return _scalar_or_array(np.zeros_like(c))
        # 1 - (1 - c)^n, without its cancellation of ~n ulp near c = 0
        with np.errstate(divide="ignore"):
            return _scalar_or_array(-np.expm1(state.n * np.log1p(-c)))
    raise TypeError(f"unknown initial state {state!r}")


def _coherent_distance(alpha_abs: float, c: np.ndarray, k: float) -> np.ndarray:
    """sqrt(k (1 - exp(-|alpha|^2 c))), the coherent trace (k = 1) or HS (k = 2) law.

    Where |alpha|^2 c is below the smallest normal float it would lose digits
    or underflow to 0, so there the root is taken term by term: |alpha| sqrt(k c).
    """
    x = alpha_abs**2 * c
    d = np.sqrt(k * -np.expm1(-x))
    low = x < np.finfo(float).tiny
    if np.any(low):
        d = np.where(low, alpha_abs * np.sqrt(k * c), d)
    return d


def hs_distance_closed(state: InitialState, cos2):
    """Closed-form Hilbert-Schmidt distance between the evolved state and |0><0|.

    ``cos2`` is a scalar (float result) or an array (array result).  Coherent
    states give exactly sqrt(2) times the trace distance; thermal states
    carry the ratio sqrt((2 m + 2)/(2 m + 1)) with m = nbar * cos2, which
    tends to sqrt(2) as the state relaxes; Fock states give the binomial sum
    of squares.
    """
    c = check_cos2(cos2)
    if isinstance(state, Thermal):
        m = state.nbar * c
        ratio = np.sqrt((m + 1.0) / (m + 0.5))  # = (2m + 2)/(2m + 1) without overflowing 2m
        return _scalar_or_array(ratio * trace_distance_closed(state, c))
    if isinstance(state, Coherent):
        return _scalar_or_array(_coherent_distance(abs(state.alpha), c, 2.0))
    if isinstance(state, Fock):
        return _scalar_or_array(_fock_hs_distance(state.n, c))
    raise TypeError(f"unknown initial state {state!r}")


def _fock_hs_distance(n_fock: int, cos2: np.ndarray) -> np.ndarray:
    """sqrt(sum_k>0 p_k^2 + (1 - p_0)^2) for Binomial(n_fock, cos2) populations p_k.

    Streams over the n_fock + 1 terms, accumulating the normalization and the
    squares, so memory stays at a few arrays of the input's size.  The
    endpoints are exact: 0 at cos2 = 0 (and for n_fock = 0), sqrt(2) at
    cos2 = 1.
    """
    c = np.atleast_1d(cos2)
    out = np.zeros_like(c)
    if n_fock > 0:
        out[c == 1.0] = math.sqrt(2.0)
        interior = (c > 0.0) & (c < 1.0)
        log_c = np.log(c[interior])
        log_s = np.log1p(-c[interior])
        total = np.zeros_like(log_c)
        rest = np.zeros_like(log_c)
        squares = np.zeros_like(log_c)
        for k in range(n_fock + 1):
            log_binom = math.lgamma(n_fock + 1) - math.lgamma(k + 1) - math.lgamma(n_fock - k + 1)
            term = np.exp(log_binom + k * log_c + (n_fock - k) * log_s)
            total += term
            if k > 0:
                rest += term
                squares += term * term
        # normalizing by the summed terms kills ~1e-16 drift; the exact sum is 1.
        # 1 - p_0 is summed as rest, since 1.0 - p0 / total cancels at small cos2.
        out[interior] = np.sqrt(squares / total**2 + (rest / total) ** 2)
    return out.reshape(np.shape(cos2))
