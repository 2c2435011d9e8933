"""Output checks, run after timing and never inside it.

Every value in a curve CSV is compared with the benchmark's own numpy
evaluation of the closed form; crossing reports are compared with an
independent sign-change count over the CSV columns; ``verify`` reports must
pass all 12 suites.  Each check returns a list of problems (empty = correct).
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from workloads import Command, ramp_crossing_cos2

SIGN_TOL = 1e-9  # crossings.DEFAULT_SIGN_TOL: |difference| at or below it is a tie
# Closed forms evaluated in another order agree to ~1e-15; these bounds sit
# well above that and far below a changed leading digit.
RTOL = 1e-10
ATOL = 1e-12
SERIES_STOP = 1e-18  # the benchmark's own thermal series runs until e^(-b n) < this
# The analytic jcm ramp crossing may differ from a grid-interpolated one by
# O(h^2) (about 0.25 h^2 measured); a root-refined crossing only gets closer.
RAMP_TAU_H2 = 10.0
VERIFY_SUITES = 12


def _label(kind: str, value) -> str:
    if kind == "number":
        return f"number:{value}"
    return f"{kind}:{value:g}"


def _bloch_label(r) -> str:
    return "bloch({:g};{:g};{:g})".format(*r)


def _compare(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    err = np.abs(got - want)
    bad = err > ATOL + RTOL * np.abs(want)
    if not bad.any():
        return []
    i = int(np.argmax(err))
    return [f"{name}: {int(bad.sum())} rows off the closed form "
            f"(row {i}: {got[i]!r} vs {want[i]!r})"]


def _in_range(name: str, col: np.ndarray, lo: float, hi: float) -> list[str]:
    if np.all((col >= lo) & (col <= hi)):
        return []
    return [f"{name}: values outside [{lo}, {hi}]"]


# -- closed forms, written from the physics rather than from the package ----

def oscillator_trace(kind: str, value, c: np.ndarray) -> np.ndarray:
    if kind == "thermal":
        m = value * c
        return m / (m + 1.0)
    if kind == "coherent":
        return np.sqrt(-np.expm1(-abs(value) ** 2 * c))
    return 1.0 - (1.0 - c) ** value  # 1 - p_0 of the binomial mixture


def oscillator_hs(kind: str, value, c: np.ndarray) -> np.ndarray:
    if kind == "thermal":
        q = value * c / (value * c + 1.0)  # geometric ratio of the evolved state
        return q * np.sqrt(2.0 / (1.0 + q))
    if kind == "coherent":
        return np.sqrt(2.0 * -np.expm1(-abs(value) ** 2 * c))
    k = np.arange(value + 1)
    binom = np.array([math.comb(value, int(j)) for j in k], dtype=float)
    pops = binom * c[:, None] ** k * (1.0 - c[:, None]) ** (value - k)
    return np.sqrt((1.0 - pops[:, 0]) ** 2 + np.sum(pops[:, 1:] ** 2, axis=1))


def jcm_components(r, beta: float, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Excited population and |coherence| of the qubit after the thermal series."""
    rx, ry, rz = r
    up, dn = 0.5 * (1.0 + rz), 0.5 * (1.0 - rz)
    if math.isinf(beta):
        c = np.cos(phi) ** 2
        return up * c, 0.5 * math.hypot(rx, ry) * np.sqrt(c)
    n = np.arange(math.ceil(-math.log(SERIES_STOP) / beta) + 1, dtype=float)
    w = np.exp(-beta * n) * -math.expm1(-beta)
    pop = np.empty_like(phi)
    coh = np.empty_like(phi)
    for s in range(0, phi.size, 2048):  # chunks keep the phi x n tables small
        p = phi[s : s + 2048, None]
        cos_up, cos_dn, sin_dn = np.cos(p * np.sqrt(n + 1.0)), np.cos(p * np.sqrt(n)), np.sin(p * np.sqrt(n))
        pop[s : s + 2048] = up * (cos_up**2 @ w) + dn * (sin_dn**2 @ w)
        coh[s : s + 2048] = (cos_up * cos_dn) @ w
    return pop, 0.5 * math.hypot(rx, ry) * np.abs(coh)


def pair_distance(r, beta: float, c: np.ndarray) -> np.ndarray:
    """Trace distance to the bath-thermal point: the 2x2 difference has
    eigenvalues +-sqrt(dp^2 + |coherence|^2), and the exchange moves the
    excited population to c*up + (1 - c)*p_e."""
    rx, ry, rz = r
    pe = 0.0 if math.isinf(beta) else 1.0 / (1.0 + math.exp(beta))
    dp = c * (0.5 * (1.0 + rz) - pe)
    return np.sqrt(dp**2 + 0.25 * (rx * rx + ry * ry) * c)


def schedule_cos2_phase(schedule: str, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos^2 and phase at the scaled times (gamma = t0 = 1, as the workloads use)."""
    if schedule == "exp":
        c = np.exp(-tau)
        return c, np.arccos(np.sqrt(c))
    phi = np.where(tau <= 1.0, 0.5 * np.pi * tau**2, 0.5 * np.pi)  # ramp
    return np.cos(phi) ** 2, phi


# -- crossings ---------------------------------------------------------------

def sign_changes(tau: np.ndarray, delta: np.ndarray) -> list[float]:
    """Interpolated sign changes of delta between consecutive significant samples."""
    idx = np.flatnonzero(np.abs(delta) > SIGN_TOL)
    a, b = idx[:-1], idx[1:]
    flip = delta[a] * delta[b] < 0.0
    a, b = a[flip], b[flip]
    return (tau[a] + (tau[b] - tau[a]) * delta[a] / (delta[a] - delta[b])).tolist()


def classify(tau: np.ndarray, delta: np.ndarray, times: list[float]) -> tuple[bool, bool]:
    """(mpemba, degenerate_start): the farther starter ends strictly closer."""
    degenerate = bool(abs(delta[0]) <= SIGN_TOL)
    if not times or degenerate:
        return False, degenerate
    after = delta[tau > times[-1]]
    after = after[np.abs(after) > SIGN_TOL]
    return bool(after.size and np.all(np.sign(delta[0]) * after < 0)), degenerate


def check_crossing_report(body: dict, labels: list[str], tau: np.ndarray,
                          curves: np.ndarray) -> list[str]:
    problems = []
    pairs = body.get("pairs", [])
    expected = list(combinations(range(len(labels)), 2))
    if len(pairs) != len(expected):
        return [f"sidecar: {len(pairs)} pairs, expected {len(expected)}"]
    h = float(tau[1] - tau[0])
    for (i, j), got in zip(expected, pairs):
        name = f"pair {labels[i]} / {labels[j]}"
        if got.get("pair") != [labels[i], labels[j]]:
            problems.append(f"{name}: labelled {got.get('pair')}")
            continue
        delta = curves[:, i] - curves[:, j]
        times = sign_changes(tau, delta)
        reported = got.get("crossings", [])
        if len(reported) != len(times):
            problems.append(f"{name}: {len(reported)} crossings reported, "
                            f"{len(times)} sign changes counted")
        # a root-refined crossing still lies in the grid cell of the sign change
        elif any(abs(x - y) > h for x, y in zip(reported, times)):
            problems.append(f"{name}: crossing times {reported} vs {times}")
        mpemba, degenerate = classify(tau, delta, times)
        if got.get("mpemba") is not mpemba or got.get("degenerate_start") is not degenerate:
            problems.append(f"{name}: mpemba/degenerate {got.get('mpemba')}/"
                            f"{got.get('degenerate_start')}, expected {mpemba}/{degenerate}")
        if got.get("window") != [float(tau[0]), float(tau[-1])]:
            problems.append(f"{name}: window {got.get('window')}")
    return problems


# -- per command ---------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    raw = path.read_bytes()
    if b"\r" in raw:
        raise ValueError("CR line endings")
    header = raw.split(b"\n", 1)[0].decode().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_curves(cmd: Command, outdir: Path) -> list[str]:
    try:
        header, data = read_csv(outdir / cmd.csv)
        body = json.loads((outdir / cmd.sidecar).read_text())
    except (OSError, ValueError) as exc:
        return [f"{cmd.name}: unreadable output: {exc}"]
    if cmd.kind == "oscillator":
        labels = [_label(k, v) for k, v in cmd.states]
        extra = []
    else:
        labels = [_bloch_label(r) for r in cmd.blochs]
        extra = [f"{lbl}:energy" for lbl in labels] if cmd.model == "jcm" else []
    if header != ["tau"] + labels + extra:
        return [f"{cmd.name}: header {header}"]
    if data.shape != (cmd.steps, len(header)):
        return [f"{cmd.name}: {data.shape[0]} rows x {data.shape[1]} columns"]
    if not np.all(np.isfinite(data)):
        return [f"{cmd.name}: non-finite values"]

    schedule = "exp" if cmd.kind == "oscillator" else cmd.schedule
    tmax = 6.0 if schedule == "exp" else 2.0  # default windows: 6/gamma, 2 t0
    tau = data[:, 0]
    problems = _compare(f"{cmd.name} tau", tau, np.linspace(0.0, tmax, cmd.steps))
    c, phi = schedule_cos2_phase(schedule, tau)
    curves = data[:, 1 : 1 + len(labels)]
    hi = math.sqrt(2.0) if cmd.metric == "hs" else 1.0
    for col, lbl in enumerate(labels):
        got = curves[:, col]
        problems += _in_range(f"{cmd.name} {lbl}", got, 0.0, hi)
        if cmd.kind == "oscillator":
            law = oscillator_hs if cmd.metric == "hs" else oscillator_trace
            want = law(*cmd.states[col], c)
        elif cmd.model == "pair":
            want = pair_distance(cmd.blochs[col], cmd.beta, c)
        else:
            pop, coh = jcm_components(cmd.blochs[col], cmd.beta, phi)
            want = np.hypot(pop, coh)
            energy = data[:, 1 + len(labels) + col]
            problems += _in_range(f"{cmd.name} {lbl}:energy", energy, -0.5, 0.5)
            problems += _compare(f"{cmd.name} {lbl}:energy", energy, pop - 0.5)
        problems += _compare(f"{cmd.name} {lbl}", got, want)

    problems += [f"{cmd.name} {p}" for p in check_crossing_report(body, labels, tau, curves)]
    if cmd.kind == "tls" and cmd.model == "jcm" and cmd.schedule == "ramp" and math.isinf(cmd.beta):
        problems += check_ramp_crossing(cmd, body, float(tau[1] - tau[0]))
    return problems


def ramp_crossing_tau(r) -> float:
    """Analytic crossing with (0,0,1) under the ramp: cos(phi*) = r_perp/sqrt(4-(1+rz)^2),
    phase = (pi/2) tau^2."""
    phi = math.acos(math.sqrt(ramp_crossing_cos2(r)))
    return math.sqrt(phi / (0.5 * math.pi))


def check_ramp_crossing(cmd: Command, body: dict, h: float) -> list[str]:
    want = ramp_crossing_tau(cmd.blochs[1])
    pair = body["pairs"][0]
    if len(pair["crossings"]) != 1 or abs(pair["crossings"][0] - want) > RAMP_TAU_H2 * h * h:
        return [f"{cmd.name}: ramp crossing {pair['crossings']}, analytic {want!r}"]
    if not pair["mpemba"]:
        return [f"{cmd.name}: ramp crossing not flagged mpemba"]
    return []


def check_verify(cmd: Command, outdir: Path) -> list[str]:
    try:
        report = json.loads((outdir / "stdout").read_text())
    except (OSError, ValueError) as exc:
        return [f"{cmd.name}: unreadable report: {exc}"]
    problems = []
    suites = report.get("suites", [])
    if len(suites) != VERIFY_SUITES or len({s.get("name") for s in suites}) != VERIFY_SUITES:
        problems.append(f"{cmd.name}: {len(suites)} suites, expected {VERIFY_SUITES}")
    failed = [s.get("name") for s in suites if s.get("passed") is not True]
    if report.get("all_passed") is not True or failed:
        problems.append(f"{cmd.name}: all_passed={report.get('all_passed')}, failed {failed}")
    if report.get("dim") != cmd.dim or report.get("seed") != cmd.seed:
        problems.append(f"{cmd.name}: dim/seed {report.get('dim')}/{report.get('seed')}")
    return problems


def check(cmd: Command, outdir: Path) -> list[str]:
    """Problems in one invocation's outputs; empty when they are correct."""
    if cmd.kind == "verify":
        return check_verify(cmd, outdir)
    return check_curves(cmd, outdir)
