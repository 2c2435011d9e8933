"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time
import warnings

import numpy as np
import pytest

from mpemba_qsim import linalg, metrics, oracle, oscillator, tls
from mpemba_qsim.crossings import DistanceSeries, alpha_window_scan, detect_crossings
from mpemba_qsim.errors import DimensionError, StateError, TruncationWarning
from mpemba_qsim.oscillator import Coherent, Fock, Thermal
from mpemba_qsim.schedules import CavityMode, ExpDecay, Ramp, time_grid
from mpemba_qsim.states import BathThermal, BlochVector, ZERO_TEMPERATURE

from conftest import validate_density_matrix

EXCITED = BlochVector(0.0, 0.0, 1.0)
TILTED = BlochVector(0.5, 0.5, 0.5)
TAUS_11 = np.linspace(0.0, 6.0, 11)
PHI_CROSS = math.acos(math.sqrt(2.0 / 7.0))  # analytic root of the two distance laws


def check(criterion, description, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def jcm_pair_series(schedule, steps=1001):
    grid = time_grid(schedule, steps)
    cos2 = schedule.cos2(grid)
    return [
        DistanceSeries(name, grid, tls.jcm_trace_distance(r, cos2))
        for r, name in ((EXCITED, "i"), (TILTED, "ii"))
    ]


def detected_crossing(schedule, steps=1001):
    pair = detect_crossings(*jcm_pair_series(schedule, steps)).pairs[0]
    assert len(pair.crossing_times) == 1
    return pair.crossing_times[0]


def test_criterion_01_ramp_crossing():
    start = time.perf_counter()
    got = detected_crossing(Ramp(1.0))
    analytic = math.sqrt(PHI_CROSS / (0.5 * math.pi))
    elapsed = time.perf_counter() - start
    ok = check(1, f"ramp crossing tau={got:.4f} (0.800 +/- 0.02, analytic {analytic:.4f}), "
                  f"{elapsed * 1e3:.0f} ms", abs(got - 0.800) <= 0.02 and abs(got - analytic) <= 5e-3
                  and elapsed < 1.0)
    assert ok


def test_criterion_02_cavity_crossing():
    start = time.perf_counter()
    got = detected_crossing(CavityMode(1.0))
    elapsed = time.perf_counter() - start
    ok = check(2, f"cavity crossing tau={got:.4f} (0.591 +/- 0.02), {elapsed * 1e3:.0f} ms",
               abs(got - 0.591) <= 0.02 and elapsed < 1.0)
    assert ok


def test_criterion_03_crossing_time_formula():
    value = tls.crossing_tau_cavity(1.0)
    grid = np.linspace(0.02, 1.0, 50)
    taus = [tls.crossing_tau_cavity(float(r)) for r in grid]
    decreasing = bool(np.all(np.diff(taus) < 0))
    ok = check(3, f"crossing_tau_cavity(1)={value:.4f} (0.5695 +/- 0.01), "
                  f"strictly decreasing over 50 points: {decreasing}",
               abs(value - 0.5695) <= 0.01 and decreasing)
    assert ok


def test_criterion_04_oscillator_closed_vs_oracle():
    start = time.perf_counter()
    families = {
        "thermal": ([Thermal(x) for x in (0.5, 1.0, 3.0)], 1e-6),
        "coherent": ([Coherent(x) for x in (0.5, 1.0, 2.0)], 1e-8),
        "number": ([Fock(n) for n in (1, 2, 5)], 1e-8),
    }
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for name, (states, tol) in families.items():
            worst = 0.0
            for state in states:
                for tau in TAUS_11:
                    cos2 = math.exp(-tau)
                    kappa = math.acos(math.sqrt(cos2))
                    closed = oscillator.evolve_closed_form(state, cos2, 0.0, 40)
                    brute = oracle.oscillator_oracle(state, 0.0, kappa, 40)
                    worst = max(worst, float(np.max(np.abs(closed - brute))))
            ok = check(4, f"oscillator {name}: max deviation {worst:.3e} <= {tol:g}", worst <= tol) and ok
    elapsed = time.perf_counter() - start
    ok = check(4, f"oscillator families runtime {elapsed:.1f} s < 60 s", elapsed < 60.0) and ok
    assert ok


def test_criterion_05_tls_closed_vs_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    blochs = []
    while len(blochs) < 10:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        blochs.append(BlochVector(*(v * rng.uniform() ** (1.0 / 3.0))))
    phases = np.linspace(0.0, 0.5 * math.pi, 10)
    ok = True
    for beta in (math.inf, 1.0):
        bath = BathThermal(beta)
        worst_pair = worst_jcm = 0.0
        for r in blochs:
            for p in phases:
                closed = tls.tls_pair_evolve(r, bath, math.cos(p) ** 2, omega_t=0.6)
                brute = oracle.tls_pair_oracle(r, bath, float(p), omega_t=0.6)
                worst_pair = max(worst_pair, float(np.max(np.abs(closed - brute))))
                closed = tls.jcm_thermal_components(r, bath, float(p), omega_t=0.6)
                brute = oracle.jcm_oracle(r, bath, float(p), omega_t=0.6, dim=40)
                worst_jcm = max(worst_jcm, float(np.max(np.abs(closed - brute))))
        label = "inf" if math.isinf(beta) else f"{beta:g}"
        ok = check(5, f"tls pair (beta={label}): max deviation {worst_pair:.3e} <= 1e-8",
                   worst_pair <= 1e-8) and ok
        ok = check(5, f"jcm (beta={label}, dim=40): max deviation {worst_jcm:.3e} <= 1e-8",
                   worst_jcm <= 1e-8) and ok
    elapsed = time.perf_counter() - start
    ok = check(5, f"tls grids runtime {elapsed:.1f} s < 60 s", elapsed < 60.0) and ok
    assert ok


def test_criterion_06_hs_identities():
    ground = oscillator.ground_state(40)
    worst_coh = 0.0
    for tau in TAUS_11:
        rho = oscillator.evolve_closed_form(Coherent(1.0), math.exp(-tau), 0.0, 40)
        worst_coh = max(
            worst_coh,
            abs(metrics.hs_distance(rho, ground) - math.sqrt(2.0) * metrics.trace_distance(rho, ground)),
        )
    ok = check(6, f"coherent HS = sqrt(2) trace: max |diff| {worst_coh:.3e} <= 1e-12", worst_coh <= 1e-12)

    rng = np.random.default_rng(20240502)
    worst_jcm = 0.0
    for _ in range(30):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = BlochVector(*(v * rng.uniform() ** (1.0 / 3.0)))
        rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, float(rng.uniform(0, math.pi / 2)))
        worst_jcm = max(
            worst_jcm,
            abs(metrics.hs_distance(rho, tls.ground_state())
                - math.sqrt(2.0) * metrics.trace_distance(rho, tls.ground_state())),
        )
    ok = check(6, f"jcm zero-T HS = sqrt(2) trace: max |diff| {worst_jcm:.3e} <= 1e-12",
               worst_jcm <= 1e-12) and ok

    # thermal ratio law vs the level-population series summed to convergence
    worst_th = 0.0
    for tau in TAUS_11:
        cos2 = math.exp(-tau)
        mean = 3.0 * cos2
        total = (1.0 / (mean + 1.0) - 1.0) ** 2
        p = 1.0 / (mean + 1.0)
        for _ in range(2000):
            p *= mean / (mean + 1.0)
            if p < 1e-17:
                break
            total += p * p
        worst_th = max(worst_th, abs(math.sqrt(total) - oscillator.hs_distance_closed(Thermal(3.0), cos2)))
    ok = check(6, f"thermal HS ratio law vs series: max |diff| {worst_th:.3e} <= 1e-12",
               worst_th <= 1e-12) and ok

    cos2 = math.exp(-20.0)
    ratio = oscillator.hs_distance_closed(Thermal(3.0), cos2) / oscillator.trace_distance_closed(
        Thermal(3.0), cos2
    )
    dev = abs(ratio - math.sqrt(2.0))
    ok = check(6, f"thermal ratio at gamma*t=20: |ratio - sqrt(2)| = {dev:.3e} <= 1e-8",
               dev <= 1e-8) and ok
    assert ok


def test_criterion_07_hs_number_monotonicity():
    """Number states relax with Binomial(N, cos2) populations, so along any
    schedule with decreasing cos2 their HS distance to |0><0| strictly falls.
    For N=3, with c = cos2, d(D_HS^2)/dc factors as
    6 c (2c^2 - 2c + 1)(10c^2 - 15c + 6), and both quadratics are positive
    definite (discriminants -4 and -15), so D_HS is strictly increasing in c
    and strictly decreasing in tau under ExpDecay (c = exp(-tau)).  The
    factorization is checked symbolically by the test below; the oracle
    clause ties the curve to the brute-force evolution, not the closed form
    alone.
    """
    taus = np.linspace(0.0, 6.0, 4001)
    values_n3 = np.array([oscillator.hs_distance_closed(Fock(3), math.exp(-t)) for t in taus])
    decreasing = bool(np.all(np.diff(values_n3) < 0))
    ok = check(7, f"HS distance for number state N=3 strictly decreasing: {decreasing}",
               decreasing)

    values_n1 = np.array([oscillator.hs_distance_closed(Fock(1), math.exp(-t)) for t in taus])
    monotone = bool(np.all(np.diff(values_n1) < 0))
    ok = check(7, f"HS distance for number state N=1 monotone decreasing: {monotone}",
               monotone) and ok

    ground = oscillator.ground_state(40)
    brute = np.array([
        metrics.hs_distance(
            oracle.oscillator_oracle(Fock(3), 0.0, math.acos(math.sqrt(math.exp(-t))), 40),
            ground,
        )
        for t in TAUS_11
    ])
    closed = oscillator.hs_distance_closed(Fock(3), np.exp(-TAUS_11))
    oracle_decreasing = bool(np.all(np.diff(brute) < 0))
    worst = float(np.max(np.abs(brute - closed)))
    ok = check(7, f"oracle HS distance for N=3 (dim 40) strictly decreasing: {oracle_decreasing}, "
                  f"max |oracle - closed| {worst:.3e} <= 1e-8",
               oracle_decreasing and worst <= 1e-8) and ok
    assert ok


def test_criterion_07_hs_number_factorization_sympy():
    """Symbolic proof behind criterion 7, built from the binomial law itself."""
    sympy = pytest.importorskip("sympy")
    c = sympy.symbols("c")
    p = [sympy.binomial(3, k) * c**k * (1 - c) ** (3 - k) for k in range(4)]
    d2 = sum(pk**2 for pk in p[1:]) + (1 - p[0]) ** 2
    q1 = 2 * c**2 - 2 * c + 1
    q2 = 10 * c**2 - 15 * c + 6
    assert sympy.expand(sympy.diff(d2, c) - 6 * c * q1 * q2) == 0
    assert sympy.discriminant(q1, c) == -4
    assert sympy.discriminant(q2, c) == -15
    for value in (sympy.Rational(1, 4), sympy.Rational(1, 2), sympy.Rational(3, 4)):
        exact = float(sympy.sqrt(d2.subs(c, value)))
        assert abs(exact - oscillator.hs_distance_closed(Fock(3), float(value))) <= 1e-15


def test_criterion_08_thermal_coherent_window():
    grid = np.linspace(0.0, 6.0, 2001)
    fine = np.round(np.arange(0.880, 0.9401, 0.001), 3)
    out = alpha_window_scan(3.0, list(fine), grid)
    flags = [e["has_crossing"] for e in out]
    upper = float(fine[max(i for i, f in enumerate(flags) if f)])
    analytic = math.sqrt(math.log(16.0 / 7.0))
    ok = check(8, f"upper crossing boundary |alpha|={upper:.3f} "
                  f"(analytic {analytic:.4f} +/- 0.005)", abs(upper - analytic) <= 0.005)

    coarse = [round(0.1 * k, 1) for k in range(1, 10)]
    out = alpha_window_scan(3.0, coarse, grid)
    lower = min(e["alpha"] for e in out if e["has_crossing"])
    ok = check(8, f"lower edge on the 0.1-step scan: |alpha|={lower:.1f} in [0.2, 0.4]",
               0.2 <= lower <= 0.4) and ok
    assert ok


def test_criterion_09_property_suites():
    rng = np.random.default_rng(20240503)

    worst_tri = 0.0
    symmetric = True
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        mats = []
        for _ in range(3):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = a @ a.conj().T
            mats.append(rho / np.trace(rho).real)
        a, b, c = mats
        dab = metrics.trace_distance(a, b)
        symmetric = symmetric and abs(dab - metrics.trace_distance(b, a)) <= 1e-14
        worst_tri = max(worst_tri, dab - metrics.trace_distance(a, c) - metrics.trace_distance(c, b))
    ok = check(9, f"metric axioms on 200 random triples (dim <= 8): symmetry {symmetric}, "
                  f"max triangle violation {worst_tri:.3e} <= 1e-12", symmetric and worst_tri <= 1e-12)

    worst_u = 0.0
    for n in (2, 8, 32):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u = linalg.propagator((m + m.conj().T) / 2)
        worst_u = max(worst_u, float(np.max(np.abs(u @ u.conj().T - np.eye(n)))))
    for w, v in oracle._sector_eigensystems(6):  # the blocks oscillator_oracle applies
        u = (v * np.exp(-0.9j * w)) @ v.T
        worst_u = max(worst_u, float(np.max(np.abs(u @ u.conj().T - np.eye(len(w))))))
    blocks = oracle._jcm_sector_propagators(1.1, 12)[1:12]  # the coupled 2x2 blocks
    worst_u = max(worst_u, float(np.max(np.abs(blocks @ blocks.conj().transpose(0, 2, 1) - np.eye(2)))))
    ok = check(9, f"propagator unitarity: max deviation {worst_u:.3e} <= 1e-10",
               worst_u <= 1e-10) and ok

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        states_ok = True
        for state in (Thermal(3.0), Coherent(2.0), Fock(5)):
            for tau in TAUS_11:
                closed = oscillator.evolve_closed_form(state, math.exp(-tau), 0.0, 40)
                brute = oracle.oscillator_oracle(state, 0.0, math.acos(math.sqrt(math.exp(-tau))), 40)
                for rho in (closed, brute):
                    try:
                        validate_density_matrix(rho)
                    except (StateError, DimensionError):
                        states_ok = False
    ok = check(9, f"every evolved state is a valid density matrix: {states_ok}", states_ok) and ok

    worst_r = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = BlochVector(*(v * rng.uniform() ** (1.0 / 3.0)))
        rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, 0.5 * math.pi, omega_t=2.2)
        worst_r = max(worst_r, float(np.max(np.abs(rho - tls.ground_state()))))
    ok = check(9, f"universal relaxation at phase pi/2: max deviation {worst_r:.3e} <= 1e-12",
               worst_r <= 1e-12) and ok
    assert ok


def test_criterion_10_crossing_grid_stability():
    ok = True
    for name, sched in (("ramp", Ramp(1.0)), ("cavity", CavityMode(1.0))):
        coarse = detected_crossing(sched, 1001)
        fine = detected_crossing(sched, 4001)
        shift = abs(coarse - fine)
        ok = check(10, f"{name} crossing moves {shift:.2e} < 1e-3 under 1001 -> 4001 refinement",
                   shift < 1e-3) and ok
    assert ok
