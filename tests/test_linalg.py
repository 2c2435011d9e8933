import math

import numpy as np
import pytest

from mpemba_qsim import linalg
from mpemba_qsim.errors import DimensionError, HermiticityError, StateError

from conftest import ladder_lowering, random_density_matrix, validate_density_matrix


class TestLadder:
    def test_dim2_single_entry(self):
        a = ladder_lowering(2)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_dim3_sqrt2(self):
        a = ladder_lowering(3)
        assert a[1, 2] == pytest.approx(math.sqrt(2.0), abs=0)
        assert np.count_nonzero(a) == 2

    def test_number_operator_from_ladder(self):
        # exact up to the one rounding in sqrt(n)**2
        a = ladder_lowering(4)
        assert np.max(np.abs(a.conj().T @ a - np.diag([0.0, 1.0, 2.0, 3.0]))) <= 1e-14

    def test_too_small_dim(self):
        with pytest.raises(DimensionError):
            ladder_lowering(1)


class TestTensor:
    def test_identity(self):
        eye2 = np.eye(2, dtype=complex)
        assert np.array_equal(linalg.tensor(eye2, eye2), np.eye(4))

    def test_dimension_law(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert linalg.tensor(a, b).shape == (6, 6)

    def test_mixed_product_property(self, rng):
        # oracle: direct multiplication of the factors
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        left = linalg.tensor(a, b) @ linalg.tensor(c, d)
        right = linalg.tensor(a @ c, b @ d)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_associative_exact_on_integer_entries(self, rng):
        a, b, c = (rng.integers(-4, 5, size=(2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(
            linalg.tensor(linalg.tensor(a, b), c), linalg.tensor(a, linalg.tensor(b, c))
        )

    def test_associative_random(self, rng):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = linalg.tensor(linalg.tensor(a, b), c)
        right = linalg.tensor(a, linalg.tensor(b, c))
        assert np.max(np.abs(left - right)) <= 1e-15


class TestPartialTrace:
    def test_product_state(self, rng):
        rho_a = random_density_matrix(rng, 3)
        rho_b = random_density_matrix(rng, 4)
        out = linalg.partial_trace_b(linalg.tensor(rho_a, rho_b), 3, 4)
        assert np.max(np.abs(out - rho_a)) <= 1e-14

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        out = linalg.partial_trace_b(linalg.projector(bell), 2, 2)
        assert np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-15

    def test_trace_preserved_vs_summation_oracle(self, rng):
        rho = random_density_matrix(rng, 12)
        out = linalg.partial_trace_b(rho, 3, 4)
        # oracle: explicit index summation
        expected = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for k in range(3):
                for j in range(4):
                    expected[i, k] += rho[i * 4 + j, k * 4 + j]
        assert np.max(np.abs(out - expected)) <= 1e-14
        assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_positivity_preserved(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, 12)
            out = linalg.partial_trace_b(rho, 4, 3)
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            linalg.partial_trace_b(random_density_matrix(rng, 6), 4, 2)


class TestEigHermitian:
    def test_diagonal_sorted(self):
        w, _ = linalg.eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)

    def test_pauli_x_spectrum(self):
        w, _ = linalg.eig_hermitian(linalg.PAULI_X)
        assert np.allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_trace_identity_and_residuals(self, rng):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (m + m.conj().T) / 2
        w, v = linalg.eig_hermitian(m)
        assert abs(np.sum(w) - np.trace(m).real) <= 1e-10
        norm = np.linalg.norm(m, 2)
        assert np.max(np.abs(m @ v - v * w)) <= 1e-9 * norm
        assert np.max(np.abs(v @ v.conj().T - np.eye(8))) <= 1e-10

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(HermiticityError):
            linalg.eig_hermitian(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


class TestPropagator:
    def test_zero_generator(self):
        assert np.array_equal(linalg.propagator(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_generator(self):
        theta = 0.7
        u = linalg.propagator(theta * linalg.PAULI_Z)
        expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        assert np.max(np.abs(u - expected)) <= 1e-15

    def test_unitarity_random(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = linalg.propagator((m + m.conj().T) / 2)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) <= 1e-10

    def test_inverse_is_negated_generator(self, rng):
        for dim in (2, 8, 32):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (m + m.conj().T) / 2
            assert np.max(np.abs(linalg.propagator(h) @ linalg.propagator(-h) - np.eye(dim))) <= 1e-10


class TestDensityValidation:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density_matrix(rng, 5))

    def test_rejects_bad_trace(self):
        with pytest.raises(StateError):
            validate_density_matrix(2.0 * np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))
