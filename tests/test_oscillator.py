import math
import warnings

import numpy as np
import pytest

from mpemba_qsim import metrics, oscillator
from mpemba_qsim.errors import DimensionError, StateError, TruncationError, TruncationWarning
from mpemba_qsim.oscillator import Coherent, Fock, Thermal

from conftest import validate_density_matrix


class TestEvolvedStates:
    def test_ground_fock_stays_ground(self):
        for cos2 in (0.0, 0.3, 1.0):
            rho = oscillator.evolve_closed_form(Fock(0), cos2, dim=6)
            assert np.max(np.abs(rho - oscillator.ground_state(6))) == 0.0

    def test_zero_temperature_thermal_is_ground(self):
        rho = oscillator.evolve_closed_form(Thermal(0.0), 0.7, dim=6)
        assert np.max(np.abs(rho - oscillator.ground_state(6))) == 0.0

    def test_fock2_binomial_by_hand(self):
        # binomial coefficients at cos2 = 1/2: (1/4, 1/2, 1/4)
        rho = oscillator.evolve_closed_form(Fock(2), 0.5, dim=8)
        diag = np.diag(rho).real
        assert diag[:3] == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)
        assert np.all(diag[3:] == 0.0)
        assert np.max(np.abs(rho - np.diag(diag))) == 0.0

    def test_coherent_amplitude_shrinks(self):
        # evolved amplitude is alpha * sqrt(cos2); compare against the
        # explicitly constructed projector
        cos2 = math.exp(-1.0)
        rho = oscillator.evolve_closed_form(Coherent(1.0), cos2, 0.0, dim=40)
        v = oscillator.coherent_vector(math.exp(-0.5), 40)
        assert np.max(np.abs(rho - np.outer(v, v.conj()))) <= 1e-14

    def test_coherent_free_phase(self):
        w0t = 0.9
        rho = oscillator.evolve_closed_form(Coherent(1.0), 1.0, w0t, dim=30)
        # <1|rho|0> = amp * |c0|^2-ish: phase must be exp(-i w0 t)
        assert np.angle(rho[1, 0]) == pytest.approx(-w0t, abs=1e-12)

    def test_thermal_mean_scales(self):
        cos2 = 0.37
        rho = oscillator.evolve_closed_form(Thermal(2.0), cos2, dim=60)
        mean = float(np.sum(np.arange(60) * np.diag(rho).real))
        assert mean == pytest.approx(2.0 * cos2, rel=1e-10)

    def test_evolved_states_are_valid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for state in (Thermal(3.0), Coherent(2.0), Fock(5)):
                for cos2 in (1.0, 0.5, 0.01):
                    rho = oscillator.evolve_closed_form(state, cos2, dim=40)
                    validate_density_matrix(rho)

    def test_invalid_cos2(self):
        with pytest.raises(ValueError):
            oscillator.evolve_closed_form(Fock(1), 1.2)

    def test_fock_needs_room(self):
        with pytest.raises(DimensionError):
            oscillator.evolve_closed_form(Fock(8), 0.5, dim=8)

    def test_truncation_warning_for_hot_thermal(self):
        with pytest.warns(TruncationWarning):
            oscillator.evolve_closed_form(Thermal(3.0), 1.0, dim=40)

    def test_truncation_error_for_clipped_coherent(self):
        with pytest.raises(TruncationError):
            oscillator.evolve_closed_form(Coherent(2.0), 1.0, dim=8)

    def test_negative_nbar_rejected(self):
        with pytest.raises(StateError):
            Thermal(-0.5)

    @pytest.mark.parametrize(
        "family, value",
        [
            (Thermal, math.inf),
            (Thermal, math.nan),
            (Coherent, math.nan),
            (Coherent, math.inf),
            (Coherent, complex(1.0, math.inf)),
            (Coherent, complex(math.nan, 0.0)),
        ],
        ids=["thermal-inf", "thermal-nan", "coherent-nan", "coherent-inf", "coherent-inf-imag", "coherent-nan-real"],
    )
    def test_non_finite_parameter_rejected(self, family, value):
        with pytest.raises(StateError, match="finite"):
            family(value)

    def test_coherent_amplitude_whose_square_overflows_rejected(self):
        # |alpha|^2 leaves the float range just above sqrt(max float) ~ 1.34e154
        assert oscillator.trace_distance_closed(Coherent(1.3e154), 1.0) == 1.0
        for alpha in (1.4e154, 1e200j, complex(1e308, 1e308)):
            with pytest.raises(StateError, match="float range"):
                Coherent(alpha)


class TestTraceDistanceClosed:
    def test_coherent_value(self):
        got = oscillator.trace_distance_closed(Coherent(1.0), 1.0)
        assert got == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)), abs=1e-15)

    def test_fock_fully_relaxed(self):
        for n in (1, 3, 7):
            assert oscillator.trace_distance_closed(Fock(n), 0.0) == 0.0

    def test_thermal_intercept(self):
        assert oscillator.trace_distance_closed(Thermal(3.0), 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_matches_eigenvalue_route(self):
        # the closed forms are exact for the untruncated state, so the matrix
        # route needs a truncation whose tail is below the comparison tolerance
        # (80 levels leave ~1e-10 for nbar=3; 40 is plenty for the others)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for state, dim in ((Thermal(3.0), 80), (Coherent(1.0), 40), (Fock(2), 40)):
                ground = oscillator.ground_state(dim)
                for tau in np.linspace(0.0, 6.0, 11):
                    cos2 = math.exp(-tau)
                    rho = oscillator.evolve_closed_form(state, cos2, dim=dim)
                    assert oscillator.trace_distance_closed(state, cos2) == pytest.approx(
                        metrics.trace_distance(rho, ground), abs=1e-9
                    )

    def test_all_curves_vanish_when_relaxed(self):
        for state in (Thermal(3.0), Coherent(2.0), Fock(5)):
            assert oscillator.trace_distance_closed(state, 0.0) == pytest.approx(0.0, abs=1e-15)


class TestHsDistanceClosed:
    def test_coherent_sqrt2_ratio(self):
        td = oscillator.trace_distance_closed(Coherent(1.0), 1.0)
        hs = oscillator.hs_distance_closed(Coherent(1.0), 1.0)
        assert hs == pytest.approx(math.sqrt(2.0) * td, abs=1e-15)

    def test_thermal_ratio_approaches_sqrt2(self):
        cos2 = math.exp(-20.0)
        ratio = oscillator.hs_distance_closed(Thermal(3.0), cos2) / oscillator.trace_distance_closed(
            Thermal(3.0), cos2
        )
        assert abs(ratio - math.sqrt(2.0)) <= 1e-8

    def test_thermal_ratio_bit_identical_to_doubled_form(self):
        # (m + 1)/(m + 0.5) is (2m + 2)/(2m + 1) with top and bottom halved exactly
        cos2 = np.concatenate([[0.0, 5e-324, 1e-310], np.geomspace(1e-300, 1.0, 4001)])
        for nbar in (1.0, 3.0, 1e6, 8.9e307):
            m = nbar * cos2
            doubled = np.sqrt((2.0 * m + 2.0) / (2.0 * m + 1.0))
            expected = doubled * oscillator.trace_distance_closed(Thermal(nbar), cos2)
            assert np.array_equal(oscillator.hs_distance_closed(Thermal(nbar), cos2), expected)

    def test_fock1_by_hand(self):
        # single binomial term: sqrt(0.25 + 0.25)
        got = oscillator.hs_distance_closed(Fock(1), 0.5)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_matches_matrix_route(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            for state, dim in ((Thermal(3.0), 80), (Coherent(1.0), 40), (Fock(3), 40)):
                ground = oscillator.ground_state(dim)
                for tau in (0.0, 0.5, 2.0, 5.0):
                    cos2 = math.exp(-tau)
                    rho = oscillator.evolve_closed_form(state, cos2, dim=dim)
                    assert oscillator.hs_distance_closed(state, cos2) == pytest.approx(
                        metrics.hs_distance(rho, ground), abs=1e-9
                    )

    def test_fock1_hs_monotone_decreasing(self):
        taus = np.linspace(0.0, 6.0, 400)
        vals = [oscillator.hs_distance_closed(Fock(1), math.exp(-t)) for t in taus]
        assert np.all(np.diff(vals) < 0)


class TestHelpers:
    def test_binomial_matches_exact_integers(self):
        # oracle: exact integer binomial coefficients
        cos2 = 0.37
        for n in (1, 5, 17, 60):
            pops = oscillator.binomial_populations(n, cos2, n + 1)
            exact = np.array(
                [math.comb(n, k) * cos2**k * (1 - cos2) ** (n - k) for k in range(n + 1)]
            )
            assert np.max(np.abs(pops - exact)) <= 1e-14

    def test_thermal_populations_normalized(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            pops = oscillator.thermal_populations(3.0, 40)
        assert pops.sum() == pytest.approx(1.0, abs=1e-14)

    def test_coherent_vector_normalized(self):
        v = oscillator.coherent_vector(1.5 + 0.5j, 40)
        assert np.sum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-14)
