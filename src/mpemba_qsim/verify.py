"""Closed-form-vs-oracle verification suites behind the ``verify`` CLI command.

Every suite returns a plain dict so the CLI can emit a deterministic JSON
report; nothing here depends on wall-clock time or unseeded randomness.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import linalg, metrics, oracle, oscillator, tls
from .crossings import DistanceSeries, detect_crossings
from .errors import DimensionError, TruncationError
from .schedules import CavityMode, Ramp, time_grid
from .states import BathThermal, BlochVector, ZERO_TEMPERATURE

DEFAULT_TOLERANCES = {
    "oscillator_thermal": 1e-6,
    "oscillator_coherent": 1e-8,
    "oscillator_number": 1e-8,
    "oscillator_distances": 1e-9,
    "tls_pair": 1e-8,
    "jcm_zero_temperature": 1e-8,
    "jcm_thermal_series": 1e-8,
    "hs_identities": 1e-12,
    "hs_thermal_asymptote": 1e-8,
    "propagator_unitarity": 1e-10,
    "jcm_relaxation": 1e-12,
    "crossing_analytics": 5e-3,
}

# Cases hold Python floats, so a report's worst_case reads the same under every numpy.
_TAUS_11 = np.linspace(0.0, 6.0, 11).tolist()  # ExpDecay{gamma=1} comparison grid


def _random_bloch(rng: np.random.Generator) -> BlochVector:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform() ** (1.0 / 3.0)
    return BlochVector(*(radius * direction).tolist())


def _run_cases(name, tol, case_fn, cases):
    """Evaluate |deviation| over cases, tracking the worst one and any warnings."""
    max_dev = 0.0
    worst = None
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for case in cases:
                dev = float(case_fn(*case))
                if dev > max_dev or worst is None:
                    max_dev = dev
                    worst = case
        except (DimensionError, TruncationError) as exc:  # dim too small for a case
            notes.append(f"truncation: {exc}")
            max_dev = math.inf
            worst = case
    for w in caught:
        msg = str(w.message)
        if msg not in notes:
            notes.append(msg)
    return {
        "name": name,
        "tolerance": tol,
        "max_deviation": max_dev,
        "worst_case": repr(worst),
        "cases": len(cases),
        "warnings": sorted(notes),
        "passed": max_dev <= tol,
    }


# Initial-state family and parameters of each oscillator closed-form-vs-oracle suite.
_OSCILLATOR_FAMILIES = {
    "oscillator_thermal": (oscillator.Thermal, (0.5, 1.0, 3.0)),
    "oscillator_coherent": (oscillator.Coherent, (0.5, 1.0, 2.0)),
    "oscillator_number": (oscillator.Fock, (1, 2, 5)),
}


def suite_oscillator_state(name, dim, seed, tol):
    """Closed-form evolved oscillator states vs the oracle along the exp schedule."""
    family, params = _OSCILLATOR_FAMILIES[name]

    def dev(param, tau):
        cos2 = math.exp(-tau)
        closed = oscillator.evolve_closed_form(family(param), cos2, 0.0, dim)
        brute = oracle.oscillator_oracle(family(param), 0.0, math.acos(math.sqrt(cos2)), dim)
        return np.max(np.abs(closed - brute))

    cases = [(param, tau) for param in params for tau in _TAUS_11]
    return _run_cases(name, tol, dev, cases)


def suite_oscillator_distances(name, dim, seed, tol):
    """Closed-form distances vs the eigenvalue route on the evolved matrices.

    The closed forms are exact for the untruncated state, so the thermal
    comparison pads the matrix truncation until its tail is below the
    tolerance (80 levels for nbar = 3).
    """

    def dev(state, tau):
        use_dim = max(dim, 80) if isinstance(state, oscillator.Thermal) else dim
        cos2 = math.exp(-tau)
        rho = oscillator.evolve_closed_form(state, cos2, 0.0, use_dim)
        ground = oscillator.ground_state(use_dim)
        return abs(
            oscillator.trace_distance_closed(state, cos2)
            - metrics.trace_distance(rho, ground)
        )

    states = [oscillator.Thermal(3.0), oscillator.Coherent(1.0), oscillator.Fock(2)]
    cases = [(s, tau) for s in states for tau in _TAUS_11]
    return _run_cases(name, tol, dev, cases)


def suite_tls_pair(name, dim, seed, tol):
    rng = np.random.default_rng(seed)
    blochs = [_random_bloch(rng) for _ in range(10)]
    mus = np.linspace(0.0, 0.5 * math.pi, 10).tolist()

    def dev(r, mu, beta):
        bath = BathThermal(beta)
        closed = tls.tls_pair_evolve(r, bath, math.cos(mu) ** 2, omega_t=0.7)
        brute = oracle.tls_pair_oracle(r, bath, mu, omega_t=0.7)
        return np.max(np.abs(closed - brute))

    cases = [(r, mu, beta) for beta in (math.inf, 1.0) for r in blochs for mu in mus]
    return _run_cases(name, tol, dev, cases)


# (rng seed offset, bath) of each qubit-boson closed-form-vs-oracle suite.
_JCM_BATHS = {
    "jcm_zero_temperature": (1, ZERO_TEMPERATURE),
    "jcm_thermal_series": (2, BathThermal(1.0)),
}


def suite_jcm_oracle(name, dim, seed, tol):
    """Closed-form qubit-boson states vs the oracle on random Bloch vectors."""
    offset, bath = _JCM_BATHS[name]
    rng = np.random.default_rng(seed + offset)
    blochs = [_random_bloch(rng) for _ in range(10)]
    phis = np.linspace(0.0, 0.5 * math.pi, 10).tolist()

    def dev(r, phi):
        closed = tls.jcm_thermal_components(r, bath, phi, omega_t=0.4)
        brute = oracle.jcm_oracle(r, bath, phi, omega_t=0.4, dim=dim)
        return np.max(np.abs(closed - brute))

    cases = [(r, phi) for r in blochs for phi in phis]
    return _run_cases(name, tol, dev, cases)


def suite_hs_identities(name, dim, seed, tol):
    """sqrt(2) proportionality for coherent and zero-T qubit states, thermal ratio."""
    rng = np.random.default_rng(seed + 3)
    ground = oscillator.ground_state(dim)

    def dev(kind, x):
        if kind == "coherent":
            state = oscillator.Coherent(1.0)
            cos2 = math.exp(-x)
            rho = oscillator.evolve_closed_form(state, cos2, 0.0, dim)
            return abs(
                metrics.hs_distance(rho, ground)
                - math.sqrt(2.0) * metrics.trace_distance(rho, ground)
            )
        if kind == "jcm":
            r = _random_bloch(rng)
            phi = x
            rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, phi)
            return abs(
                metrics.hs_distance(rho, tls.ground_state())
                - math.sqrt(2.0) * metrics.trace_distance(rho, tls.ground_state())
            )
        # thermal ratio identity against the level-population series summed
        # to float convergence (independent of any matrix truncation)
        nbar = 3.0
        cos2 = math.exp(-x)
        mean = nbar * cos2
        total = (1.0 / (mean + 1.0) - 1.0) ** 2
        p = 1.0 / (mean + 1.0)
        ratio = mean / (mean + 1.0)
        for _ in range(2000):
            p *= ratio
            if p < 1e-17:
                break
            total += p * p
        return abs(math.sqrt(total) - oscillator.hs_distance_closed(oscillator.Thermal(nbar), cos2))

    cases = [("coherent", t) for t in _TAUS_11]
    cases += [("jcm", p) for p in np.linspace(0.0, 0.5 * math.pi, 11).tolist()]
    cases += [("thermal", t) for t in _TAUS_11]
    return _run_cases(name, tol, dev, cases)


def suite_hs_thermal_asymptote(name, dim, seed, tol):
    """The thermal HS/trace ratio approaches sqrt(2) deep in the relaxed regime."""

    def dev(nbar, tau):
        cos2 = math.exp(-tau)
        ratio = oscillator.hs_distance_closed(
            oscillator.Thermal(nbar), cos2
        ) / oscillator.trace_distance_closed(oscillator.Thermal(nbar), cos2)
        return abs(ratio - math.sqrt(2.0))

    return _run_cases(name, tol, dev, [(3.0, 20.0)])


def suite_propagator_unitarity(name, dim, seed, tol):
    rng = np.random.default_rng(seed + 4)

    def dev(kind, n):
        if kind == "random":
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u = linalg.propagator((m + m.conj().T) / 2.0)
            return np.max(np.abs(u @ u.conj().T - np.eye(n)))
        if kind == "jcm_sectors":
            blocks = oracle._jcm_sector_propagators(0.9, n)[1:n]  # the coupled 2x2 blocks
            return np.max(np.abs(blocks @ blocks.conj().transpose(0, 2, 1) - np.eye(2)))
        # the excitation sectors oscillator_oracle applies
        sectors = [(v * np.exp(-0.8j * w)) @ v.T for w, v in oracle._sector_eigensystems(n)]
        return max(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) for u in sectors)

    cases = [("random", n) for n in (2, 6, 16, 32)]
    cases += [("jcm_sectors", 12), ("oscillator_sectors", 8)]
    return _run_cases(name, tol, dev, cases)


def suite_jcm_relaxation(name, dim, seed, tol):
    """At phase pi/2 the zero-temperature state is diag(0, 1) for every input."""
    rng = np.random.default_rng(seed + 5)

    def dev(idx):
        r = _random_bloch(rng)
        rho = tls.jcm_thermal_components(r, ZERO_TEMPERATURE, 0.5 * math.pi, omega_t=1.3)
        return np.max(np.abs(rho - tls.ground_state()))

    return _run_cases(name, tol, dev, [(i,) for i in range(100)])


def suite_crossing_analytics(name, dim, seed, tol):
    """Detected trajectory crossings vs the analytic phase root cos^2 = 2/7."""
    r_i = BlochVector(0.0, 0.0, 1.0)
    r_ii = BlochVector(0.5, 0.5, 0.5)
    phi_star = math.acos(math.sqrt(2.0 / 7.0))

    def dev(kind):
        if kind == "ramp":
            sched, expected = Ramp(1.0), math.sqrt(phi_star / (0.5 * math.pi))
        elif kind == "cavity":
            sched, expected = CavityMode(1.0), math.acos(1.0 - 4.0 * phi_star / math.pi) / math.pi
        else:
            return abs(tls.crossing_tau_cavity(1.0) - 0.5694142151441509)
        grid = time_grid(sched, 1001)
        cos2 = sched.cos2(grid)
        series = [DistanceSeries(str(r), grid, tls.jcm_trace_distance(r, cos2)) for r in (r_i, r_ii)]
        report = detect_crossings(series[0], series[1])
        times = report.pairs[0].crossing_times
        if len(times) != 1:
            return math.inf
        return abs(times[0] - expected)

    return _run_cases(name, tol, dev, [("ramp",), ("cavity",), ("formula",)])


# Report name -> suite, in report order.
_SUITES = {
    "oscillator_thermal": suite_oscillator_state,
    "oscillator_coherent": suite_oscillator_state,
    "oscillator_number": suite_oscillator_state,
    "oscillator_distances": suite_oscillator_distances,
    "tls_pair": suite_tls_pair,
    "jcm_zero_temperature": suite_jcm_oracle,
    "jcm_thermal_series": suite_jcm_oracle,
    "hs_identities": suite_hs_identities,
    "hs_thermal_asymptote": suite_hs_thermal_asymptote,
    "propagator_unitarity": suite_propagator_unitarity,
    "jcm_relaxation": suite_jcm_relaxation,
    "crossing_analytics": suite_crossing_analytics,
}


def run_all(dim: int = 40, seed: int = 2024) -> dict:
    """Run every suite at its DEFAULT_TOLERANCES entry and assemble the JSON-ready report."""
    suites = [fn(name, dim, seed, DEFAULT_TOLERANCES[name]) for name, fn in _SUITES.items()]
    return {
        "tool": "mpemba-qsim",
        "dim": dim,
        "seed": seed,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites),
    }
