import math

import numpy as np
import pytest

from mpemba_qsim import metrics, tls
from mpemba_qsim.errors import StateError, TruncationError
from mpemba_qsim.states import (
    BathThermal,
    BlochVector,
    ZERO_TEMPERATURE,
    bloch_density_matrix,
)

from conftest import random_bloch, validate_density_matrix

EXCITED = BlochVector(0.0, 0.0, 1.0)
TILTED = BlochVector(0.5, 0.5, 0.5)


class TestPairEvolve:
    def test_initial_identity(self):
        rho = tls.tls_pair_evolve(EXCITED, ZERO_TEMPERATURE, 1.0)
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) == 0.0

    def test_full_relaxation(self):
        rho = tls.tls_pair_evolve(EXCITED, ZERO_TEMPERATURE, 0.0)
        assert np.max(np.abs(rho - tls.ground_state())) == 0.0

    def test_tilted_state_by_hand(self):
        # zero-temperature components at cos^2 = 1/2, evaluated by hand:
        # rho11 = (3/4)(1/2), rho12 = (1-i)/4 * sqrt(1/2), rho22 = 1/4 + (3/4)(1/2)
        rho = tls.tls_pair_evolve(TILTED, ZERO_TEMPERATURE, 0.5)
        c = math.sqrt(0.5)
        assert rho[0, 0] == pytest.approx(0.375, abs=1e-15)
        assert rho[0, 1] == pytest.approx(0.25 * (1 - 1j) * c, abs=1e-15)
        assert rho[1, 1] == pytest.approx(0.625, abs=1e-15)

    def test_finite_temperature_fixed_point(self):
        # when the exchange completes, the system carries the bath populations
        bath = BathThermal(1.0)
        for r in (EXCITED, TILTED):
            rho = tls.tls_pair_evolve(r, bath, 0.0)
            assert rho[0, 0].real == pytest.approx(bath.p_excited, abs=1e-15)

    def test_unit_trace_and_validity(self, rng):
        for _ in range(20):
            r = random_bloch(rng)
            rho = tls.tls_pair_evolve(r, BathThermal(0.7), float(rng.uniform()), 1.3)
            validate_density_matrix(rho)

    def test_invalid_mu_cos2(self):
        with pytest.raises(ValueError):
            tls.tls_pair_evolve(EXCITED, ZERO_TEMPERATURE, 1.5)


class TestPairTraceDistance:
    # at zero bath temperature the pair distance is the jcm law in mu_cos2
    def test_excited_start(self):
        assert tls.jcm_trace_distance(EXCITED, 1.0) == 1.0

    def test_relaxed(self):
        assert tls.jcm_trace_distance(TILTED, 0.0) == 0.0

    def test_tilted_by_hand(self):
        # (1/2) sqrt(9/4 + 1/2)
        assert tls.jcm_trace_distance(TILTED, 1.0) == pytest.approx(
            0.5 * math.sqrt(2.75), abs=1e-15
        )

    def test_matches_eigenvalue_route(self, rng):
        for _ in range(25):
            r = random_bloch(rng)
            mu_cos2 = float(rng.uniform())
            rho = tls.tls_pair_evolve(r, ZERO_TEMPERATURE, mu_cos2, omega_t=0.9)
            expected = metrics.trace_distance(rho, tls.ground_state())
            assert tls.jcm_trace_distance(r, mu_cos2) == pytest.approx(expected, abs=1e-12)


class TestJcmThermalComponents:
    def test_zero_temperature_matches_closed_matrix(self, rng):
        # the series must collapse to the single n=0 term
        for _ in range(15):
            r = random_bloch(rng)
            phi = float(rng.uniform(0.0, math.pi))
            wt = float(rng.uniform(0.0, 6.0))
            got = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, phi, wt)
            c = math.cos(phi)
            expected = np.array(
                [
                    [0.5 * (1 + r.rz) * c * c, 0.5 * (r.rx - 1j * r.ry) * np.exp(-1j * wt) * c],
                    [0.5 * (r.rx + 1j * r.ry) * np.exp(1j * wt) * c, 0.0],
                ],
                dtype=complex,
            )
            expected[1, 1] = 1.0 - expected[0, 0]
            assert np.max(np.abs(got - expected)) <= 1e-14

    def test_no_interaction(self):
        rho = tls.jcm_thermal_components(TILTED, BathThermal(1.0), 0.0, omega_t=0.8)
        assert rho[0, 0].real == pytest.approx(0.75, abs=1e-13)
        assert rho[0, 1] == pytest.approx(0.25 * (1 - 1j) * np.exp(-0.8j), abs=1e-13)

    def test_unit_trace_by_construction(self, rng):
        for beta in (0.3, 1.0, 5.0):
            rho = tls.jcm_thermal_components(random_bloch(rng), BathThermal(beta), 0.7)
            assert np.trace(rho).real == pytest.approx(1.0, abs=0)
            validate_density_matrix(rho)

    def test_insufficient_n_max(self):
        # b = 0.001 needs ~32000 terms, past SERIES_CAP
        with pytest.raises(TruncationError):
            tls.jcm_thermal_components(EXCITED, BathThermal(0.001), 0.5)

    def test_infinite_temperature_rejected(self):
        with pytest.raises(StateError):
            tls.jcm_thermal_components(EXCITED, BathThermal(0.0), 0.5)


class TestJcmBloch:
    def test_no_interaction_identity(self):
        assert tls.jcm_bloch_components(TILTED, 0.0, 0.0) == (0.5, 0.5, 0.5)

    def test_full_relaxation_point(self, rng):
        for _ in range(10):
            ax, ay, az = tls.jcm_bloch_components(random_bloch(rng), math.pi / 2, float(rng.uniform(0, 9)))
            assert abs(ax) <= 1e-15 and abs(ay) <= 1e-15
            assert az == pytest.approx(-1.0, abs=1e-15)

    def test_hand_value(self):
        ax, ay, az = tls.jcm_bloch_components(TILTED, math.pi / 4, math.pi / 2)
        assert ax == pytest.approx(-0.5 * math.sqrt(0.5), abs=1e-15)
        assert ay == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)
        assert az == pytest.approx(-0.25, abs=1e-15)

    def test_consistent_with_state_matrix(self, rng):
        for _ in range(20):
            r = random_bloch(rng)
            phi = float(rng.uniform(0.0, math.pi / 2))
            wt = float(rng.uniform(0.0, 7.0))
            lhs = bloch_density_matrix(BlochVector(*tls.jcm_bloch_components(r, phi, wt)))
            rhs = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, phi, wt)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_norm_never_grows(self, rng):
        for _ in range(30):
            r = random_bloch(rng)
            a = tls.jcm_bloch_components(r, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 9)))
            assert sum(x * x for x in a) <= 1.0 + 1e-12


class TestJcmTraceDistance:
    def test_excited_is_cos2(self):
        for c in (0.0, 0.3, 1.0):
            assert tls.jcm_trace_distance(EXCITED, c) == pytest.approx(c, abs=1e-15)

    def test_excited_is_cos2_where_its_square_underflows(self):
        # below about 1.5e-154 the law's c**2 underflows; the distance is still c
        c = np.concatenate([np.exp(-np.arange(0.0, 745.0, 5.0)), [1e-160, 1e-300, 5e-324, 0.0]])
        assert np.array_equal(tls.jcm_trace_distance(EXCITED, c), c)
        assert tls.jcm_trace_distance(EXCITED, 1e-300) == 1e-300

    def test_tilted_at_full_coupling(self):
        assert tls.jcm_trace_distance(TILTED, 1.0) == pytest.approx(
            0.25 * math.sqrt(11.0), abs=1e-15
        )

    def test_relaxed(self, rng):
        assert tls.jcm_trace_distance(random_bloch(rng), 0.0) == 0.0

    def test_matches_eigenvalue_route(self, rng):
        for _ in range(25):
            r = random_bloch(rng)
            phi_cos2 = float(rng.uniform())
            rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, math.acos(math.sqrt(phi_cos2)))
            assert tls.jcm_trace_distance(r, phi_cos2) == pytest.approx(
                metrics.trace_distance(rho, tls.ground_state()), abs=1e-12
            )

    def test_hs_is_sqrt2_times_trace(self, rng):
        for _ in range(25):
            r = random_bloch(rng)
            phi = float(rng.uniform(0.0, math.pi / 2))
            rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, phi)
            hs = metrics.hs_distance(rho, tls.ground_state())
            td = metrics.trace_distance(rho, tls.ground_state())
            assert hs == pytest.approx(math.sqrt(2.0) * td, abs=1e-12)


class TestEnergy:
    def test_extremes(self):
        assert tls.tls_energy(1.0) == 0.5
        assert tls.tls_energy(0.0) == -0.5
        assert tls.tls_energy(np.array([1.0, 0.0])).tolist() == [0.5, -0.5]

    def test_tilted_initial(self):
        assert tls.tls_energy(0.75) == 0.25


class TestCrossingFormulas:
    def test_max_coherence(self):
        got = tls.crossing_cos_phi(BlochVector(1.0, 0.0, 0.0))
        assert got == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)

    def test_no_coherence_no_crossing(self):
        assert tls.crossing_cos_phi(BlochVector(0.0, 0.0, 0.5)) is None

    def test_tilted_value_and_numeric_root(self):
        got = tls.crossing_cos_phi(TILTED)
        assert got == pytest.approx(math.sqrt(2.0 / 7.0), abs=1e-12)
        # oracle: bisect the difference of the two distance curves in cos^2
        lo, hi = 1e-9, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            diff = tls.jcm_trace_distance(TILTED, mid) - tls.jcm_trace_distance(EXCITED, mid)
            if diff > 0:
                lo = mid
            else:
                hi = mid
        assert got**2 == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_cavity_crossing_time_values(self):
        assert tls.crossing_tau_cavity(1.0) == pytest.approx(0.5694142151441509, abs=1e-12)
        assert tls.crossing_tau_cavity(0.789) == pytest.approx(0.6302, abs=5e-4)
        assert tls.crossing_tau_cavity(1e-9) == pytest.approx(1.0, abs=1e-3)

    def test_cavity_crossing_monotone(self):
        grid = np.linspace(1e-3, 1.0, 50)
        taus = [tls.crossing_tau_cavity(float(r)) for r in grid]
        assert np.all(np.diff(taus) < 0)

    def test_cavity_crossing_is_the_inline_phase_formula(self):
        # the crossing phase of crossing_cos_phi, r_perp / sqrt(3) at rz = 0,
        # gives the same floats as the formula written out, down to 5e-324
        grid = np.concatenate([[5e-324], np.logspace(-300, -1, 499), np.linspace(0.0, 1.0, 501)[1:]])
        for r_perp in grid.tolist():
            inline = math.acos(1.0 - (4.0 / math.pi) * math.acos(r_perp / math.sqrt(3.0))) / math.pi
            assert tls.crossing_tau_cavity(r_perp) == inline
        assert tls.crossing_tau_cavity(5e-324) == 1.0

    def test_cavity_crossing_domain(self):
        with pytest.raises(StateError):
            tls.crossing_tau_cavity(0.0)
        with pytest.raises(StateError):
            tls.crossing_tau_cavity(1.2)


class TestBathThermal:
    def test_weights_bit_equal_to_direct_formulas_below_overflow(self, rng):
        for b in [1e-3, 0.1, 1.0, 10.0, 100.0, 700.0, 709.0, *rng.uniform(0.0, 709.0, 200)]:
            bath = BathThermal(float(b))
            assert bath.p_excited == 1.0 / (1.0 + math.exp(b))
            assert bath.nbar == 1.0 / math.expm1(b)

    def test_zero_temperature_weights(self):
        assert (ZERO_TEMPERATURE.p_excited, ZERO_TEMPERATURE.p_ground, ZERO_TEMPERATURE.nbar) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("beta", [710.0, 1e6])
    def test_weights_finite_past_overflow(self, beta):
        bath = BathThermal(beta)
        for value in (bath.p_excited, bath.nbar):
            assert 0.0 <= value <= 1e-300
        assert bath.p_ground == 1.0
