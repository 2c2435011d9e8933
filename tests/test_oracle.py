import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpemba_qsim import linalg, oracle, oscillator, tls
from mpemba_qsim.errors import DimensionError, StateError, TruncationError, TruncationWarning
from mpemba_qsim.oscillator import Coherent, Fock, Thermal
from mpemba_qsim.states import BathThermal, BlochVector, ZERO_TEMPERATURE, bloch_density_matrix

from conftest import (
    bloch_vectors,
    ladder_lowering,
    number_operator,
    random_bloch,
    validate_density_matrix,
)

EXCITED = BlochVector(0.0, 0.0, 1.0)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def kappa_of(cos2):
    return math.acos(math.sqrt(cos2))


class TestOscillatorOracle:
    def test_vacuum_fixed_point(self):
        for kappa in (0.0, 0.7, math.pi / 2):
            rho = oracle.oscillator_oracle(Fock(0), 0.0, kappa, 10)
            assert np.max(np.abs(rho - oscillator.ground_state(10))) <= 1e-14

    def test_single_quantum_splits_evenly(self):
        rho = oracle.oscillator_oracle(Fock(1), 0.0, kappa_of(0.5), 8)
        diag = np.diag(rho).real
        assert diag[0] == pytest.approx(0.5, abs=1e-12)
        assert diag[1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.abs(diag[2:]) <= 1e-14)

    def test_coherent_matches_closed_form(self):
        cos2 = math.exp(-1.0)
        got = oracle.oscillator_oracle(Coherent(1.0), 0.0, kappa_of(cos2), 40)
        expected = oscillator.evolve_closed_form(Coherent(1.0), cos2, 0.0, 40)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_coherent_free_phase_matches_closed_form(self):
        cos2 = 0.42
        for w0t in (0.0, 0.9, 2.5):
            got = oracle.oscillator_oracle(Coherent(1.2), w0t, kappa_of(cos2), 30)
            expected = oscillator.evolve_closed_form(Coherent(1.2), cos2, w0t, 30)
            assert np.max(np.abs(got - expected)) <= 1e-8

    def test_thermal_matches_closed_form(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for tau in (0.0, 0.6, 2.4):
                cos2 = math.exp(-tau)
                got = oracle.oscillator_oracle(Thermal(3.0), 0.0, kappa_of(cos2), 40)
                expected = oscillator.evolve_closed_form(Thermal(3.0), cos2, 0.0, 40)
                assert np.max(np.abs(got - expected)) <= 1e-6

    def test_matches_dense_propagator_route(self):
        # the sector engine must reproduce the one-shot dense exponential on
        # both state paths: Fock and padded Thermal (mixed), Coherent (pure)
        dim = 6
        cap = dim + oracle.PAD_CAP
        thermal = oracle._levels_for_geometric(0.3, dim, oracle.PAD_TAIL_TOL, cap)
        alpha = 0.7 - 0.4j
        coherent = oracle._levels_for_poisson(abs(alpha) ** 2, dim, oracle.PAD_TAIL_TOL, cap)
        cases = [(Fock(n), np.diag(np.eye(dim)[n]), 1.1) for n in (0, 3, 5)]
        cases.append((Thermal(0.3), np.diag(oracle._geometric_weights(0.3, thermal)), 0.8))
        amps = [alpha**n / math.sqrt(math.factorial(n)) for n in range(coherent)]
        vec = np.array(amps) / np.linalg.norm(amps)
        cases.append((Coherent(alpha), np.outer(vec, vec.conj()), 0.8))
        for state, rho_sys, kappa in cases:
            levels = len(rho_sys)
            u = dense_oscillator_reference(0.6, kappa, levels)
            vacuum = np.diag(np.eye(levels)[0]).astype(complex)
            rho = u @ linalg.tensor(rho_sys, vacuum) @ u.conj().T
            dense = linalg.partial_trace_b(rho, levels, levels)[:dim, :dim]
            dense /= np.trace(dense).real
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                got = oracle.oscillator_oracle(state, 0.6, kappa, dim)
            assert np.max(np.abs(dense - got)) <= 1e-12

    def test_excitation_conservation_before_partial_trace(self):
        # <n_a> + <n_b> in the composite state is kappa-independent
        levels = 8
        n_tot = linalg.tensor(
            number_operator(levels), np.eye(levels, dtype=complex)
        ) + linalg.tensor(np.eye(levels, dtype=complex), number_operator(levels))
        psi0 = np.kron(np.eye(levels)[3], np.eye(levels)[0])
        values = []
        for kappa in np.linspace(0.0, math.pi, 7):
            u = dense_oscillator_reference(0.0, float(kappa), levels)
            psi = u @ psi0
            values.append(float(np.real(psi.conj() @ n_tot @ psi)))
        assert np.max(np.abs(np.array(values) - 3.0)) <= 1e-10

    def test_truncation_convergence_dim_plus_10(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for state in (Thermal(1.0), Coherent(1.0), Fock(2)):
                a = oracle.oscillator_oracle(state, 0.0, 0.8, 40)
                b = oracle.oscillator_oracle(state, 0.0, 0.8, 50)
                assert np.max(np.abs(a - b[:40, :40])) <= 1e-9

    def test_outputs_are_valid_states(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for state in (Thermal(3.0), Coherent(1.5), Fock(4)):
                rho = oracle.oscillator_oracle(state, 0.4, 0.9, 40)
                validate_density_matrix(rho)

    @SETTINGS
    @given(
        state=st.one_of(
            st.floats(0.0, 1.0).map(Thermal),
            st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)).map(Coherent),
            st.integers(0, 10).map(Fock),
        ),
        cos2=st.floats(0.0, 1.0),
        w0t=st.floats(0.0, 2.0 * math.pi),
    )
    def test_matches_closed_form_by_property(self, state, cos2, w0t):
        # The largest deviation over 4,000 random points was 8.1e-13, from
        # Thermal(1): the oracle drops the initial tail above level 40, mass
        # (1/2)**40 = 9.1e-13.  Coherent reached 1.5e-14 and Fock 1.2e-15.
        got = oracle.oscillator_oracle(state, w0t, kappa_of(cos2), 40)
        expected = oscillator.evolve_closed_form(state, cos2, w0t, 40)
        assert np.max(np.abs(got - expected)) <= 2e-12

    def test_fock_level_needs_room(self):
        with pytest.raises(DimensionError):
            oracle.oscillator_oracle(Fock(10), 0.0, 0.5, 10)


class TestTlsPairOracle:
    def test_full_swap_into_cold_bath(self):
        rho = oracle.tls_pair_oracle(EXCITED, ZERO_TEMPERATURE, math.pi / 2)
        assert np.max(np.abs(rho - tls.ground_state())) <= 1e-12

    def test_full_swap_exchanges_populations(self):
        bath = BathThermal(1.0)
        rho = oracle.tls_pair_oracle(EXCITED, bath, math.pi / 2)
        assert rho[0, 0].real == pytest.approx(bath.p_excited, abs=1e-12)

    def test_matches_closed_form_grid(self, rng):
        # phases stay in [0, pi/2]: the closed form takes the non-negative
        # cosine root, which is what every schedule in the package produces
        for beta in (math.inf, 1.0):
            bath = BathThermal(beta)
            for _ in range(10):
                r = random_bloch(rng)
                mu = float(rng.uniform(0.0, math.pi / 2))
                wt = float(rng.uniform(0.0, 5.0))
                got = oracle.tls_pair_oracle(r, bath, mu, wt)
                expected = tls.tls_pair_evolve(r, bath, math.cos(mu) ** 2, wt)
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_constant_generators_are_bit_identical(self, rng):
        for beta in (math.inf, 1.0):
            bath = BathThermal(beta)
            for _ in range(10):
                r = random_bloch(rng)
                mu, wt = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0))
                got = oracle.tls_pair_oracle(r, bath, mu, wt)
                assert np.array_equal(got, dense_tls_pair_oracle(r, bath, mu, wt))


def dense_tls_pair_oracle(r, bath, mu, omega_t):
    """The pair oracle with its generators rebuilt by Kronecker products on every call."""
    rho0 = linalg.tensor(
        bloch_density_matrix(r), np.diag([bath.p_excited, bath.p_ground]).astype(complex)
    )
    sz = linalg.PAULI_Z
    eye = np.eye(2, dtype=complex)
    gen = 0.5 * omega_t * (linalg.tensor(sz, eye) + linalg.tensor(eye, sz)) + mu * (
        linalg.tensor(linalg.SIGMA_MINUS, linalg.SIGMA_PLUS)
        + linalg.tensor(linalg.SIGMA_PLUS, linalg.SIGMA_MINUS)
    )
    u = linalg.propagator(gen)
    return linalg.partial_trace_b(u @ rho0 @ u.conj().T, 2, 2)


def dense_oscillator_reference(omega0_t, kappa, levels):
    """Dense composite oscillator propagator on levels x levels, exponentiated in one shot.

    Reference route for small dimensions; the oracle's sector engine is its
    exact block-diagonalization.
    """
    a = ladder_lowering(levels)
    eye = np.eye(levels, dtype=complex)
    num = number_operator(levels)
    gen = omega0_t * (linalg.tensor(num, eye) + linalg.tensor(eye, num)) + kappa * (
        linalg.tensor(a, a.conj().T) + linalg.tensor(a.conj().T, a)
    )
    return linalg.propagator(gen)


def dense_jcm_reference(r, mode_pops, phi, omega_t):
    """Qubit x mode evolved with the dense 2dim x 2dim propagator, then reduced."""
    dim = len(mode_pops)
    rho0 = linalg.tensor(bloch_density_matrix(r), np.diag(mode_pops).astype(complex))
    b = ladder_lowering(dim)
    coupling = linalg.tensor(linalg.SIGMA_PLUS, b) + linalg.tensor(
        linalg.SIGMA_MINUS, b.conj().T
    )
    u_int = linalg.propagator(phi * coupling)
    free_qubit = np.exp(-0.5j * omega_t * np.array([1.0, -1.0]))
    free_mode = np.exp(-1j * omega_t * np.arange(dim))
    u = np.diag(np.kron(free_qubit, free_mode)) @ u_int
    return linalg.partial_trace_b(u @ rho0 @ u.conj().T, 2, dim)


class TestJcmOracle:
    # phases past pi/2 move weight through the uncoupled edge states
    # |g, 0> and |e, dim-1> as well as every 2x2 block
    PHIS = (0.0, 0.4, 1.3, 2.2, 3.9)

    @pytest.mark.parametrize("dim", [2, 3, 5, 12])
    @pytest.mark.parametrize("beta", [math.inf, 1.0])
    def test_sectors_match_dense_route(self, rng, dim, beta):
        # small dims leave a large thermal tail, so both routes get the same
        # renormalized truncated Boltzmann populations directly
        bath = BathThermal(beta)
        if bath.is_zero_temperature:
            pops = np.eye(dim)[0]
        else:
            pops = oracle._geometric_weights(bath.nbar, dim)
        for phi in self.PHIS:
            r = random_bloch(rng)
            wt = float(rng.uniform(0.5, 5.0))
            dense = dense_jcm_reference(r, pops, phi, wt)
            got = oracle._jcm_evolve(bloch_density_matrix(r), pops, phi, wt)
            assert np.max(np.abs(got - dense)) <= 1e-12
            if bath.is_zero_temperature:
                public = oracle.jcm_oracle(r, bath, phi, wt, dim=dim)
                assert np.max(np.abs(public - dense)) <= 1e-12

    @pytest.mark.parametrize("dim", [40, 120])
    def test_matches_dense_route_thermal(self, rng, dim):
        bath = BathThermal(1.0)
        pops = oracle._geometric_weights(bath.nbar, dim)
        for phi in (0.3, 1.5, 2.7):
            r = random_bloch(rng)
            dense = dense_jcm_reference(r, pops, phi, 0.7)
            got = oracle.jcm_oracle(r, bath, phi, 0.7, dim=dim)
            assert np.max(np.abs(got - dense)) <= 1e-12

    @SETTINGS
    @given(
        r=bloch_vectors(),
        phi=st.floats(0.0, 2.0 * math.pi),
        wt=st.floats(0.0, 10.0),
        beta=st.one_of(st.just(math.inf), st.floats(0.7, 50.0)),
    )
    def test_outputs_are_valid_states_by_property(self, r, phi, wt, beta):
        # beta >= 0.7 keeps the thermal tail below BATH_TAIL_TOL at dim 40
        rho = oracle.jcm_oracle(r, BathThermal(beta), phi, wt, dim=40)
        validate_density_matrix(rho)

    def test_dim_below_two_rejected(self):
        for dim in (0, 1):
            with pytest.raises(DimensionError):
                oracle.jcm_oracle(EXCITED, ZERO_TEMPERATURE, 0.5, dim=dim)

    def test_zero_phase_identity(self):
        dim = 6
        sectors = oracle._jcm_sector_propagators(0.0, dim)
        assert np.max(np.abs(sectors[1:dim] - np.eye(2))) == 0.0
        # the edge sectors hold only |g, 0> and |e, dim-1>
        assert sectors[0].tolist() == [[0, 0], [0, 1]] and sectors[dim].tolist() == [[1, 0], [0, 0]]

    def test_single_excitation_swap(self):
        # sector 1 spans {|e,0>, |g,1>}: |e,0> -> -i|g,1> at phi = pi/2
        block = oracle._jcm_sector_propagators(math.pi / 2, 5)[1]
        assert np.max(np.abs(block - np.array([[0.0, -1j], [-1j, 0.0]]))) <= 1e-12

    def test_infinite_temperature_rejected(self):
        with pytest.raises(StateError):
            oracle.jcm_oracle(EXCITED, BathThermal(0.0), 0.5, dim=10)

    def test_bath_past_exp_overflow_is_zero_temperature(self, rng):
        r = random_bloch(rng)
        got = oracle.jcm_oracle(r, BathThermal(710.0), 0.9, 0.3, dim=10)
        cold = oracle.jcm_oracle(r, ZERO_TEMPERATURE, 0.9, 0.3, dim=10)
        assert np.max(np.abs(got - cold)) <= 1e-15

    def test_cold_bath_full_relaxation(self):
        rho = oracle.jcm_oracle(EXCITED, ZERO_TEMPERATURE, math.pi / 2, dim=20)
        assert np.max(np.abs(rho - tls.ground_state())) <= 1e-12

    def test_matches_zero_temperature_closed_form(self, rng):
        for _ in range(10):
            r = random_bloch(rng)
            phi = float(rng.uniform(0.0, math.pi / 2))
            wt = float(rng.uniform(0.0, 5.0))
            got = oracle.jcm_oracle(r, ZERO_TEMPERATURE, phi, wt, dim=20)
            expected = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, phi, wt)
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_matches_thermal_series(self):
        bath = BathThermal(1.0)
        got = oracle.jcm_oracle(EXCITED, bath, math.pi / 4, dim=40)
        expected = tls.jcm_thermal_components(EXCITED, bath, math.pi / 4)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_outputs_are_valid_states(self, rng):
        for beta in (math.inf, 1.0):
            rho = oracle.jcm_oracle(random_bloch(rng), BathThermal(beta), 0.8, 0.3, dim=40)
            validate_density_matrix(rho)

    def test_hot_bath_needs_room(self):
        with pytest.raises(TruncationError):
            oracle.jcm_oracle(EXCITED, BathThermal(0.05), 0.5, dim=10)
