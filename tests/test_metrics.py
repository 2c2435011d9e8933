import math

import numpy as np
import pytest

from mpemba_qsim import linalg, metrics
from mpemba_qsim.errors import DimensionError, StateError
from mpemba_qsim.states import BlochVector

from conftest import random_density_matrix, random_ket


class TestTraceDistance:
    def test_identical_states_exactly_zero(self, rng):
        rho = random_density_matrix(rng, 5)
        assert metrics.trace_distance(rho, rho.copy()) == 0.0

    def test_orthogonal_pure_states(self):
        assert metrics.trace_distance(
            np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        ) == pytest.approx(1.0, abs=1e-14)

    def test_pure_state_overlap_shortcut(self, rng):
        # independent oracle: sqrt(1 - |<psi|phi>|^2) for pure states
        for dim in (2, 3, 8):
            psi, phi = random_ket(rng, dim), random_ket(rng, dim)
            expected = math.sqrt(1.0 - abs(np.vdot(psi, phi)) ** 2)
            got = metrics.trace_distance(linalg.projector(psi), linalg.projector(phi))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_metric_axioms(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            a, b, c = (random_density_matrix(rng, dim) for _ in range(3))
            dab = metrics.trace_distance(a, b)
            assert dab == pytest.approx(metrics.trace_distance(b, a), abs=1e-14)
            assert dab >= 0.0
            assert dab <= metrics.trace_distance(a, c) + metrics.trace_distance(c, b) + 1e-12

    def test_unitary_invariance(self, rng):
        for dim in (2, 4, 8):
            a, b = random_density_matrix(rng, dim), random_density_matrix(rng, dim)
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            u = linalg.propagator((m + m.conj().T) / 2)
            before = metrics.trace_distance(a, b)
            after = metrics.trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
            assert after == pytest.approx(before, abs=1e-10)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            metrics.trace_distance(random_density_matrix(rng, 2), random_density_matrix(rng, 3))


class TestHsDistance:
    def test_identical(self, rng):
        rho = random_density_matrix(rng, 4)
        assert metrics.hs_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        got = metrics.hs_distance(
            np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        )
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_matches_eigenvalue_route(self, rng):
        # oracle: sqrt of the sum of squared eigenvalues of the difference
        a, b = random_density_matrix(rng, 6), random_density_matrix(rng, 6)
        w, _ = linalg.eig_hermitian(a - b)
        assert metrics.hs_distance(a, b) == pytest.approx(math.sqrt(np.sum(w**2)), abs=1e-13)


class TestBlochDistance:
    def test_invalid_norm_rejected(self):
        with pytest.raises(StateError):
            BlochVector(1.0, 1.0, 1.0)
        for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)):
            with pytest.raises(StateError, match="not finite"):
                BlochVector(*bad)
