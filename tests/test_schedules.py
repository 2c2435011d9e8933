import math
import sys

import numpy as np
import pytest

from mpemba_qsim import schedules
from mpemba_qsim.errors import GridError, TimeDomainError
from mpemba_qsim.schedules import CavityMode, ExpDecay, Ramp, SinExpDecay


class TestExpDecay:
    def test_starts_at_one(self):
        assert float(ExpDecay(1.0).cos2(0.0)) == 1.0

    def test_law(self):
        assert float(ExpDecay(2.0).cos2(0.7)) == pytest.approx(math.exp(-1.4), abs=1e-15)

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 8.0, 400)
        assert np.all(np.diff(ExpDecay(0.7).cos2(t)) < 0)

    def test_negative_time(self):
        with pytest.raises(TimeDomainError):
            ExpDecay(1.0).cos2(-0.1)

    def test_positive_rate_required(self):
        with pytest.raises(ValueError):
            ExpDecay(0.0)


class TestSinExpDecay:
    def test_starts_at_one_ends_at_zero(self):
        sched = SinExpDecay(1.0)
        assert float(sched.cos2(0.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(sched.cos2(40.0)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # sin^2((pi/2) e^-1) evaluated directly
        got = float(SinExpDecay(1.0).cos2(1.0))
        assert got == pytest.approx(math.sin(0.5 * math.pi * math.exp(-1.0)) ** 2, abs=1e-15)

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 10.0, 500)
        assert np.all(np.diff(SinExpDecay(1.3).cos2(t)) < 0)


class TestRamp:
    def test_phase_quadratic(self):
        assert float(Ramp(2.0).phase(1.0)) == pytest.approx(0.5 * math.pi * 0.25, abs=1e-15)

    def test_endpoint(self):
        assert float(Ramp(1.0).phase(1.0)) == pytest.approx(math.pi / 2, abs=1e-15)
        assert float(Ramp(1.0).cos2(1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_constant_beyond_t0(self):
        sched = Ramp(1.0)
        t = np.linspace(1.0, 5.0, 50)
        assert np.all(sched.phase(t) == math.pi / 2)

    def test_clamped_law_matches_the_switched_formula(self):
        sched = Ramp(0.7)
        t = np.concatenate([np.linspace(0.0, 1.4, 1001), [1e200, 1e308]])
        with np.errstate(over="ignore"):
            old = np.where(t <= 0.7, 0.5 * np.pi * (t / 0.7) ** 2, 0.5 * np.pi)
        assert np.array_equal(sched.phase(t), old)


class TestCavityMode:
    def test_halfway_value(self):
        # (pi/4)(1 - cos(pi/2)) = pi/4 by hand
        assert float(CavityMode(1.0).phase(0.5)) == pytest.approx(math.pi / 4, abs=1e-15)
        assert float(CavityMode(1.0).cos2(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_constant_beyond_t0(self):
        sched = CavityMode(2.0)
        assert float(sched.phase(2.0)) == pytest.approx(math.pi / 2, abs=1e-15)
        assert float(sched.phase(7.0)) == math.pi / 2

    def test_clamped_law_matches_the_switched_formula(self):
        sched = CavityMode(0.7)
        t = np.concatenate([np.linspace(0.0, 1.4, 1001), [1e200, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            old = np.where(t <= 0.7, 0.25 * np.pi * (1.0 - np.cos(np.pi * t / 0.7)), 0.5 * np.pi)
        assert np.array_equal(sched.phase(t), old)

    def test_smooth_switch_on_and_off(self):
        sched = CavityMode(1.0)
        eps = 1e-6
        assert (sched.phase(eps) - sched.phase(0.0)) / eps < 1e-5
        assert (sched.phase(1.0) - sched.phase(1.0 - eps)) / eps < 1e-5


class TestCommonInvariants:
    @pytest.mark.parametrize(
        "sched",
        [
            ExpDecay(1.0),
            SinExpDecay(1.0),
            Ramp(1.5),
            CavityMode(0.8),
        ],
        ids=["exp", "sinexp", "ramp", "cavity"],
    )
    def test_cos2_in_unit_interval_and_consistent_with_phase(self, sched):
        t = np.linspace(0.0, 6.0, 301)
        cos2 = sched.cos2(t)
        assert np.all((cos2 >= 0.0) & (cos2 <= 1.0))
        assert np.max(np.abs(cos2 - np.cos(sched.phase(t)) ** 2)) <= 1e-12

    @pytest.mark.parametrize("cls", [ExpDecay, SinExpDecay, Ramp, CavityMode])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_parameter_must_be_finite_and_positive(self, cls, value):
        with pytest.raises(ValueError, match="finite and > 0"):
            cls(value)

    @pytest.mark.parametrize("cls", [Ramp, CavityMode])
    def test_largest_t0_keeps_window_and_phase_finite(self, cls):
        # beyond float max / 4, the default window 2 t0 or pi t overflows
        sched = cls(sys.float_info.max / 4)
        grid = schedules.time_grid(sched, 11)
        tau = (1.0 / sched.t0) * grid
        assert np.all(np.isfinite(grid)) and np.all(np.isfinite(tau))
        assert tau[-1] == pytest.approx(2.0, abs=1e-15)
        with np.errstate(all="raise"):
            assert np.all(np.isfinite(sched.phase(grid)))
        with pytest.raises(ValueError, match="t0 must be finite and > 0"):
            cls(math.nextafter(schedules.T0_MAX, math.inf))

    @pytest.mark.parametrize("tmax", [0.0, -1.0, math.nan, math.inf])
    def test_grid_window_must_be_finite_and_positive(self, tmax):
        with pytest.raises(GridError, match="finite and > 0"):
            schedules.time_grid(ExpDecay(1.0), tmax=tmax)

    def test_default_grids(self):
        grid = schedules.time_grid(ExpDecay(2.0))
        assert grid.size == 1001 and grid[-1] == pytest.approx(3.0)
        grid = schedules.time_grid(Ramp(1.5))
        assert grid[-1] == pytest.approx(3.0)
        with pytest.raises(GridError):
            schedules.time_grid(ExpDecay(1.0), steps=1)
