import math

import numpy as np
import pytest

from mpemba_qsim import crossings, oscillator, tls
from mpemba_qsim.crossings import DistanceSeries, detect_crossings, pairwise_crossings
from mpemba_qsim.errors import GridError
from mpemba_qsim.schedules import CavityMode, ExpDecay, Ramp, time_grid
from mpemba_qsim.states import BlochVector

from conftest import alpha_window_scan

EXCITED = BlochVector(0.0, 0.0, 1.0)
TILTED = BlochVector(0.5, 0.5, 0.5)


def jcm_series(schedule, grid, blochs=(EXCITED, TILTED)):
    cos2 = schedule.cos2(grid)
    return [
        DistanceSeries(f"r={r.rx:g},{r.ry:g},{r.rz:g}", grid, tls.jcm_trace_distance(r, cos2))
        for r in blochs
    ]


class TestSampleSeries:
    """Distance curves sampled on a grid into a DistanceSeries."""

    def test_constant_function(self):
        s = DistanceSeries("const", [0.0, 1.0, 2.0], np.full(3, 0.25))
        assert np.all(s.values == 0.25)
        assert s.label == "const"

    def test_excited_jcm_curve_is_cos2(self):
        sched = Ramp(1.0)
        grid = time_grid(sched, 101, 2.0)
        s = DistanceSeries("i", grid, tls.jcm_trace_distance(EXCITED, sched.cos2(grid)))
        assert np.max(np.abs(s.values - sched.cos2(grid))) <= 1e-15

    def test_grid_length(self):
        grid = np.linspace(0.0, 1.0, 1001)
        assert DistanceSeries("x", grid, grid).values.size == 1001

    def test_rejects_bad_grids(self):
        with pytest.raises(GridError):
            DistanceSeries("x", [0.0], [1.0])
        with pytest.raises(GridError):
            DistanceSeries("x", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])


class TestDistanceSeries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_rejects_values_that_are_not_distances(self, bad):
        with pytest.raises(GridError, match="finite and >= 0"):
            DistanceSeries("x", [0.0, 1.0, 2.0], [0.5, bad, 0.1])


class TestDetectCrossings:
    def test_identical_series(self):
        grid = np.linspace(0.0, 1.0, 50)
        s1 = DistanceSeries("a", grid, np.exp(-grid))
        s2 = DistanceSeries("b", grid, np.exp(-grid))
        report = detect_crossings(s1, s2)
        pair = report.pairs[0]
        assert pair.crossing_times == []
        assert not pair.mpemba
        assert pair.degenerate_start

    def test_simple_crossing_time_interpolated(self):
        grid = np.linspace(0.0, 2.0, 2001)
        s1 = DistanceSeries("lin", grid, np.maximum(1.0 - grid, 0.0))
        s2 = DistanceSeries("const", grid, np.full_like(grid, 0.4))
        report = detect_crossings(s1, s2)
        pair = report.pairs[0]
        assert len(pair.crossing_times) == 1
        assert pair.crossing_times[0] == pytest.approx(0.6, abs=1e-9)
        assert pair.mpemba  # started above, strictly below afterwards

    def test_jitter_below_tol_ignored(self):
        grid = np.linspace(0.0, 1.0, 101)
        base = np.exp(-grid)
        noise = 1e-12 * np.where(np.arange(101) % 2 == 0, 1.0, -1.0)
        s1 = DistanceSeries("a", grid, base + np.abs(noise))
        s2 = DistanceSeries("b", grid, base)
        report = detect_crossings(s1, s2, tol=1e-9)
        assert report.pairs[0].crossing_times == []

    def test_grid_mismatch(self):
        s1 = DistanceSeries("a", np.linspace(0, 1, 10), np.ones(10))
        s2 = DistanceSeries("b", np.linspace(0, 2, 10), np.ones(10))
        with pytest.raises(GridError):
            detect_crossings(s1, s2)

    def test_ramp_crossing_near_analytic_root(self):
        # independent oracle: the curves meet at cos^2(phase) = 2/7, which the
        # ramp phase law places at tau = sqrt(arccos(sqrt(2/7)) / (pi/2))
        sched = Ramp(1.0)
        grid = time_grid(sched, 1001)
        expected = math.sqrt(math.acos(math.sqrt(2.0 / 7.0)) / (0.5 * math.pi))
        report = detect_crossings(*jcm_series(sched, grid))
        pair = report.pairs[0]
        assert len(pair.crossing_times) == 1
        assert pair.crossing_times[0] == pytest.approx(expected, abs=5e-3)
        assert pair.crossing_times[0] == pytest.approx(0.800, abs=5e-3)
        assert pair.mpemba

    def test_cavity_crossing_near_analytic_root(self):
        sched = CavityMode(1.0)
        grid = time_grid(sched, 1001)
        expected = math.acos(1.0 - 4.0 * math.acos(math.sqrt(2.0 / 7.0)) / math.pi) / math.pi
        report = detect_crossings(*jcm_series(sched, grid))
        pair = report.pairs[0]
        assert len(pair.crossing_times) == 1
        assert pair.crossing_times[0] == pytest.approx(expected, abs=5e-3)
        assert pair.crossing_times[0] == pytest.approx(0.591, abs=5e-3)

    def test_crossing_stable_under_grid_refinement(self):
        for sched in (Ramp(1.0), CavityMode(1.0)):
            t1 = detect_crossings(*jcm_series(sched, time_grid(sched, 1001))).pairs[0]
            t2 = detect_crossings(*jcm_series(sched, time_grid(sched, 4001))).pairs[0]
            assert len(t1.crossing_times) == len(t2.crossing_times) == 1
            assert abs(t1.crossing_times[0] - t2.crossing_times[0]) < 1e-3

    def test_pairwise_report(self):
        sched = Ramp(1.0)
        grid = time_grid(sched, 201)
        series = jcm_series(sched, grid) + [
            DistanceSeries("flat", grid, np.full(grid.size, 2.0))
        ]
        report = pairwise_crossings(series)
        assert len(report.pairs) == 3


    def test_scan_equals_per_cell_loop(self, rng):
        # reference: the per-cell loop the array scan replaced
        def loop(times, delta, tol):
            idx = np.flatnonzero(np.abs(delta) > tol)
            found = []
            min_gap = float(np.min(np.diff(times)))
            for prev, nxt in zip(idx[:-1], idx[1:]):
                if delta[prev] * delta[nxt] < 0.0:
                    t = times[prev] + (times[nxt] - times[prev]) * delta[prev] / (
                        delta[prev] - delta[nxt]
                    )
                    if found and t - found[-1] <= min_gap:
                        continue
                    found.append(float(t))
            return found

        times = np.linspace(0.0, 5.0, 400)
        for scale in (1e-9, 1e-3, 1.0):
            # sign flips in adjacent cells exercise the min_gap collapse
            delta = rng.normal(scale=scale, size=times.size)
            delta[rng.uniform(size=times.size) < 0.2] = 0.0
            assert crossings._crossings_of_difference(times, delta, 1e-9) == loop(
                times, delta, 1e-9
            )


class TestOscillatorPairs:
    def test_coherent_vs_fock_single_crossing(self):
        # number state starts farther (1 vs sqrt(1 - e^-1)) and relaxes faster
        grid = np.linspace(0.0, 10.0, 2001)
        s_num = DistanceSeries(
            "number:1", grid, oscillator.trace_distance_closed(oscillator.Fock(1), np.exp(-grid))
        )
        s_coh = DistanceSeries(
            "coherent:1", grid, oscillator.trace_distance_closed(oscillator.Coherent(1.0), np.exp(-grid))
        )
        pair = detect_crossings(s_num, s_coh).pairs[0]
        assert len(pair.crossing_times) == 1
        assert pair.mpemba

    def test_thermal_vs_fock_crossing_at_hand_computed_time(self):
        # curves meet where cos2 = 3 cos2/(3 cos2 + 1), i.e. cos2 = 2/3
        grid = np.linspace(0.0, 6.0, 4001)
        s_num = DistanceSeries(
            "number:1", grid, oscillator.trace_distance_closed(oscillator.Fock(1), np.exp(-grid))
        )
        s_th = DistanceSeries(
            "thermal:3", grid, oscillator.trace_distance_closed(oscillator.Thermal(3.0), np.exp(-grid))
        )
        pair = detect_crossings(s_num, s_th).pairs[0]
        assert len(pair.crossing_times) == 1
        assert pair.crossing_times[0] == pytest.approx(math.log(1.5), abs=1e-3)
        assert pair.mpemba  # distance-based flag only; energy ordering is separate

    def test_number_states_cross_coherent_earlier_for_smaller_n(self):
        # number:N starts at distance 1, above coherent:1 at sqrt(1 - e^-1), and
        # meets it once, at the root c* of 1 - (1 - c)^N = sqrt(1 - e^-c)
        grid = time_grid(ExpDecay(1.0), 20001)
        cos2 = np.exp(-grid)
        coherent = DistanceSeries(
            "coherent:1", grid, oscillator.trace_distance_closed(oscillator.Coherent(1.0), cos2)
        )
        taus = []
        for n in (1, 2, 3, 5):
            number = DistanceSeries(
                f"number:{n}", grid, oscillator.trace_distance_closed(oscillator.Fock(n), cos2)
            )
            pair = detect_crossings(number, coherent).pairs[0]
            assert len(pair.crossing_times) == 1 and pair.mpemba
            lo, hi = 0.0, 1.0  # the gap below is < 0 as c -> 0 and > 0 at c = 1
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if 1.0 - (1.0 - mid) ** n < math.sqrt(-math.expm1(-mid)):
                    lo = mid
                else:
                    hi = mid
            assert abs(pair.crossing_times[0] + math.log(lo)) <= 1e-6
            taus.append(pair.crossing_times[0])
        assert taus == sorted(set(taus))


class TestAlphaWindowScan:
    def test_examples(self):
        grid = np.linspace(0.0, 6.0, 1001)
        out = alpha_window_scan(3.0, [0.95, 0.6], grid)
        assert out[0]["has_crossing"] is False  # coherent starts farther
        assert out[1]["has_crossing"] is True

    def test_zero_temperature_thermal_never_crosses(self):
        grid = np.linspace(0.0, 6.0, 501)
        out = alpha_window_scan(0.0, [0.3, 0.8], grid)
        assert all(not e["has_crossing"] for e in out)

    def test_upper_boundary_near_equal_start(self):
        # analytic boundary: alpha = sqrt(ln(16/7)) where the t=0 distances match
        grid = np.linspace(0.0, 6.0, 2001)
        alphas = np.arange(0.88, 0.94, 0.001)
        out = alpha_window_scan(3.0, list(alphas), grid)
        flags = [e["has_crossing"] for e in out]
        last_true = alphas[max(i for i, f in enumerate(flags) if f)]
        assert last_true == pytest.approx(math.sqrt(math.log(16.0 / 7.0)), abs=0.005)

    def test_figure_style_grid_edges(self):
        grid = np.linspace(0.0, 6.0, 1001)
        alphas = [round(0.1 * k, 1) for k in range(1, 10)]
        out = alpha_window_scan(3.0, alphas, grid)
        crossing_alphas = [e["alpha"] for e in out if e["has_crossing"]]
        assert min(crossing_alphas) == pytest.approx(0.2, abs=1e-12)
        assert max(crossing_alphas) == pytest.approx(0.9, abs=1e-12)
