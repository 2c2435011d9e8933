"""Coupling-integral profiles driving every closed-form evolution.

Each schedule exposes the accumulated phase (the time integral of the
coupling) and cos^2 of that phase, which is the only quantity the closed
forms consume.  The two decay profiles are specified directly through their
cos^2 laws, so their phase is reported on the principal branch
arccos(sqrt(cos2)) in [0, pi/2]; the ramp and cavity-mode profiles are
specified through the phase itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridError, TimeDomainError

DEFAULT_GRID_STEPS = 1001
# Largest switch-off time t0: up to it 2 t0 (the default window), pi t for
# t <= t0 and 1/t0 all stay finite.
T0_MAX = sys.float_info.max / 4


def check_cos2(values, name: str = "cos2") -> np.ndarray:
    """``values`` as a float array, rejecting anything outside [0, 1] (NaN included)."""
    c = np.asarray(values, dtype=float)
    inside = (c >= 0.0) & (c <= 1.0)
    if not np.all(inside):
        raise ValueError(f"{name} must lie in [0, 1], got {c[~inside].flat[0]}")
    return c


def _check_times(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise TimeDomainError("schedules are defined for t >= 0 only")
    return arr


def _check_t0(t0: float) -> None:
    if not 0 < t0 <= T0_MAX:
        raise ValueError(f"t0 must be finite and > 0, at most {T0_MAX:.4g}, got {t0}")


@dataclass(frozen=True)
class ExpDecay:
    """cos^2[phase(t)] = exp(-gamma t)."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    def cos2(self, t):
        return np.exp(-self.gamma * _check_times(t))

    def phase(self, t):
        return np.arccos(np.sqrt(self.cos2(t)))


@dataclass(frozen=True)
class SinExpDecay:
    """cos^2[phase(t)] = sin^2((pi/2) exp(-gamma t)); starts at 1, decays to 0."""

    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")

    def cos2(self, t):
        return np.sin(0.5 * np.pi * np.exp(-self.gamma * _check_times(t))) ** 2

    def phase(self, t):
        return np.arccos(np.sqrt(self.cos2(t)))


@dataclass(frozen=True)
class Ramp:
    """Linearly growing coupling switched off at t0: phase = (pi/2)(t/t0)^2, then pi/2."""

    t0: float

    def __post_init__(self) -> None:
        _check_t0(self.t0)

    def phase(self, t):
        t = np.minimum(_check_times(t), self.t0)
        return 0.5 * np.pi * (t / self.t0) ** 2

    def cos2(self, t):
        return np.cos(self.phase(t)) ** 2


@dataclass(frozen=True)
class CavityMode:
    """Sine-shaped cavity transit of duration t0: phase = (pi/4)(1 - cos(pi t/t0)), then pi/2.

    The coupling turns on and off smoothly, so the phase derivative vanishes
    at t = 0 and t = t0.
    """

    t0: float

    def __post_init__(self) -> None:
        _check_t0(self.t0)

    def phase(self, t):
        t = np.minimum(_check_times(t), self.t0)
        return 0.25 * np.pi * (1.0 - np.cos(np.pi * t / self.t0))

    def cos2(self, t):
        return np.cos(self.phase(t)) ** 2


Schedule = Union[ExpDecay, SinExpDecay, Ramp, CavityMode]


def default_tmax(schedule: Schedule) -> float:
    """Window covering the interesting dynamics: 6/gamma for decays, 2 t0 otherwise."""
    if isinstance(schedule, (ExpDecay, SinExpDecay)):
        return 6.0 / schedule.gamma
    return 2.0 * schedule.t0


def time_grid(schedule: Schedule, steps: int = DEFAULT_GRID_STEPS, tmax: float | None = None) -> np.ndarray:
    """Uniform grid on [0, tmax] with ``steps`` points."""
    if steps < 2:
        raise GridError(f"grid needs at least 2 points, got {steps}")
    if tmax is None:
        tmax = default_tmax(schedule)
    if not 0 < tmax < math.inf:
        raise GridError(f"tmax must be finite and > 0, got {tmax}")
    return np.linspace(0.0, float(tmax), int(steps))
