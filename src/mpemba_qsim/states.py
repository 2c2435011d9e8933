"""Qubit-state parametrizations shared by the two-level-system models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import StateError

BLOCH_NORM_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """(rx, ry, rz) with rx^2 + ry^2 + rz^2 <= 1; parametrizes any qubit state."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self) -> None:
        if not self.norm_sq() <= 1.0 + BLOCH_NORM_TOL:
            raise StateError(
                f"Bloch vector ({self.rx}, {self.ry}, {self.rz}) has norm > 1 or is not finite"
            )

    def norm_sq(self) -> float:
        return self.rx**2 + self.ry**2 + self.rz**2

    @property
    def r_perp(self) -> float:
        """In-plane coherence magnitude sqrt(rx^2 + ry^2)."""
        return math.hypot(self.rx, self.ry)

    @classmethod
    def from_sequence(cls, seq: Iterable[float]) -> "BlochVector":
        vals = [float(x) for x in seq]
        if len(vals) != 3:
            raise StateError(f"Bloch vector needs 3 components, got {len(vals)}")
        return cls(*vals)


@dataclass(frozen=True)
class BathThermal:
    """Thermal qubit/boson bath at dimensionless inverse temperature beta*hbar*omega.

    ``math.inf`` encodes zero temperature.
    """

    beta_hbar_omega: float

    def __post_init__(self) -> None:
        b = self.beta_hbar_omega
        if math.isnan(b) or b < 0:
            raise StateError(f"beta*hbar*omega must be >= 0, got {b}")

    @property
    def is_zero_temperature(self) -> bool:
        return math.isinf(self.beta_hbar_omega)

    @property
    def p_excited(self) -> float:
        """Excited-level weight 1/(1 + e^(beta hbar omega)) of a thermal qubit; 0 at beta = inf."""
        try:
            return 1.0 / (1.0 + math.exp(self.beta_hbar_omega))
        except OverflowError:  # e^beta beyond the float range: the weight is e^-beta
            return math.exp(-self.beta_hbar_omega)

    @property
    def p_ground(self) -> float:
        return 1.0 - self.p_excited

    @property
    def nbar(self) -> float:
        """Mean boson occupation 1/(e^(beta hbar omega) - 1); inf at beta = 0, 0 at beta = inf."""
        if self.beta_hbar_omega == 0.0:
            return math.inf
        try:
            return 1.0 / math.expm1(self.beta_hbar_omega)
        except OverflowError:  # e^beta beyond the float range: the occupation is e^-beta
            return math.exp(-self.beta_hbar_omega)


ZERO_TEMPERATURE = BathThermal(math.inf)


def bloch_density_matrix(b: BlochVector) -> np.ndarray:
    """rho = (1 + r . sigma) / 2 in the {excited, ground} basis."""
    coh = complex(b.rx, -b.ry)
    return 0.5 * np.array([[1.0 + b.rz, coh], [coh.conjugate(), 1.0 - b.rz]], dtype=complex)

