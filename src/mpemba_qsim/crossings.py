"""Crossing detection between distance trajectories, and Mpemba classification.

A Mpemba crossing means the trajectory that starts farther from equilibrium
ends up strictly below the other one after their last intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GridError

DEFAULT_SIGN_TOL = 1e-9


@dataclass
class DistanceSeries:
    """A labeled distance trajectory sampled on a strictly ascending grid."""

    label: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise GridError("series needs a 1-d grid with at least 2 points")
        if self.times.shape != self.values.shape:
            raise GridError(
                f"times and values differ in length: {self.times.size} vs {self.values.size}"
            )
        if np.any(np.diff(self.times) <= 0):
            raise GridError("series times must be strictly ascending")
        if not np.all((self.values >= 0) & (self.values < np.inf)):
            raise GridError("distance values must be finite and >= 0")


@dataclass
class CrossingPair:
    """Detected intersections of two distance trajectories."""

    label_a: str
    label_b: str
    crossing_times: list[float]
    mpemba: bool
    degenerate_start: bool = False


@dataclass
class CrossingReport:
    """Crossing results for one or more trajectory pairs over a common window."""

    window: tuple[float, float]
    pairs: list[CrossingPair] = field(default_factory=list)


def _crossings_of_difference(
    times: np.ndarray, delta: np.ndarray, tol: float
) -> list[float]:
    """Interpolated sign-change times of delta, ignoring |delta| <= tol.

    Consecutive detections closer than one grid cell collapse to the first,
    which suppresses jitter at tangential near-touches.
    """
    idx = np.flatnonzero(np.abs(delta) > tol)
    hits = np.flatnonzero(delta[idx[:-1]] * delta[idx[1:]] < 0.0)
    prev, nxt = idx[hits], idx[hits + 1]
    t_hits = times[prev] + (times[nxt] - times[prev]) * delta[prev] / (delta[prev] - delta[nxt])
    crossings: list[float] = []
    min_gap = float(np.min(np.diff(times)))
    for t_cross in t_hits.tolist():
        if crossings and t_cross - crossings[-1] <= min_gap:
            continue
        crossings.append(t_cross)
    return crossings


def detect_crossings(
    s1: DistanceSeries, s2: DistanceSeries, tol: float = DEFAULT_SIGN_TOL
) -> CrossingReport:
    """Locate sign changes of s1 - s2 and classify the pair.

    The mpemba flag is true when the series with the larger initial value is
    strictly below the other at every significant sample after the last
    crossing.  Pairs that start equal (within tol) are flagged
    ``degenerate_start`` and never mpemba.
    """
    if s1.times.shape != s2.times.shape or np.any(s1.times != s2.times):
        raise GridError("series must share an identical time grid")
    delta = s1.values - s2.values
    crossings = _crossings_of_difference(s1.times, delta, tol)
    window = (float(s1.times[0]), float(s1.times[-1]))

    degenerate = bool(abs(float(delta[0])) <= tol)
    mpemba = False
    if crossings and not degenerate:
        leader = 1.0 if delta[0] > 0 else -1.0
        after = delta[s1.times > crossings[-1]]
        after = after[np.abs(after) > tol]
        mpemba = after.size > 0 and bool(np.all(leader * after < 0))
    pair = CrossingPair(s1.label, s2.label, crossings, mpemba, degenerate)
    return CrossingReport(window, [pair])


def pairwise_crossings(
    series: Sequence[DistanceSeries], tol: float = DEFAULT_SIGN_TOL
) -> CrossingReport:
    """Crossing report for every unordered pair of trajectories."""
    if not series:
        raise GridError("need at least one series")
    report = CrossingReport((float(series[0].times[0]), float(series[0].times[-1])))
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            report.pairs.extend(detect_crossings(series[i], series[j], tol).pairs)
    return report

