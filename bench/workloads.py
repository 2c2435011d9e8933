"""The benchmark's workloads: fixed lists of CLI invocations.

Grid sizes and state counts are fixed per workload.  The seed chooses only
the free inputs: the second Bloch vector of every ``tls`` command, the 39
coherent amplitudes of ``crossings-scan`` and the ``verify --seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Boltzmann cut of the package's thermal boson series (tls.BOLTZMANN_CUT);
# used only to count the series terms a jcm command asks for.
SERIES_CUT = 1e-14


def _num(x: float) -> str:
    """Shortest spelling a user would type that still parses back to x."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus the parameters the output checks need."""

    name: str
    kind: str  # "oscillator", "tls" or "verify"
    steps: int = 0
    metric: str = "trace"
    states: tuple = ()  # oscillator: ("thermal", nbar) / ("coherent", alpha) / ("number", n)
    model: str = ""
    schedule: str = ""
    beta: float = math.inf
    blochs: tuple = ()  # tls: (rx, ry, rz) triples
    dim: int = 0
    seed: int = 0

    @property
    def csv(self) -> str:
        return f"{self.name}.csv"

    @property
    def sidecar(self) -> str:
        return f"{self.name}.json"

    def argv(self) -> list[str]:
        """Arguments after ``python -m mpemba_qsim.cli``; outputs go to the cwd."""
        if self.kind == "oscillator":
            states = [f"{k}:{_num(v) if k != 'number' else v}" for k, v in self.states]
            metric = ["--metric", "hs"] if self.metric == "hs" else []
            return ["oscillator", *metric, "--states", *states,
                    "--steps", str(self.steps), "--out", self.csv]
        if self.kind == "tls":
            beta = [] if math.isinf(self.beta) else ["--beta", _num(self.beta)]
            # --bloch=... keeps a leading minus sign from reading as an option
            blochs = ["--bloch=" + ",".join(_num(x) for x in r) for r in self.blochs]
            return ["tls", "--model", self.model, "--schedule", self.schedule, *beta,
                    *blochs, "--steps", str(self.steps), "--out", self.csv]
        return ["verify", "--dim", str(self.dim), "--seed", str(self.seed)]

    def outputs(self) -> list[str]:
        """Files the invocation leaves in its cwd (verify's report is its stdout)."""
        return ["stdout"] if self.kind == "verify" else [self.csv, self.sidecar]

    @property
    def pairs(self) -> int:
        """Curve pairs in the crossing report (verify has none)."""
        n = len(self.states) + len(self.blochs)
        return n * (n - 1) // 2

    @property
    def series_terms(self) -> int:
        """Grid points x Boltzmann terms of the jcm thermal series, per state."""
        if self.kind != "tls" or self.model != "jcm":
            return 0
        terms = 1 if math.isinf(self.beta) else math.ceil(-math.log(SERIES_CUT) / self.beta) + 1
        return len(self.blochs) * self.steps * terms


def ramp_crossing_cos2(r) -> float:
    """cos^2 of the phase where the zero-temperature jcm curve of r meets that of (0,0,1)."""
    rx, ry, rz = r
    return (rx * rx + ry * ry) / (4.0 - (1.0 + rz) ** 2)


def _bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """A Bloch vector with r_perp > 0 whose ramp crossing with (0,0,1) lies
    well inside the coupling window (cos^2 of the crossing phase in [0.15, 0.85])."""
    while True:
        rz = round(float(rng.uniform(-0.9, 0.9)), 4)
        r_perp = float(rng.uniform(0.05, math.sqrt(1.0 - rz * rz)))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        # truncating toward zero keeps the rounded vector inside the ball
        rx = math.trunc(r_perp * math.cos(angle) * 1e4) / 1e4
        ry = math.trunc(r_perp * math.sin(angle) * 1e4) / 1e4
        if rx * rx + ry * ry > 0.0 and 0.15 <= ramp_crossing_cos2((rx, ry, rz)) <= 0.85:
            return (rx, ry, rz)


def _amplitudes(rng: np.random.Generator, count: int) -> list[float]:
    """Distinct coherent amplitudes in [0.05, 2.0], four decimals, ascending."""
    values: set[float] = set()
    while len(values) < count:
        values.add(round(float(rng.uniform(0.05, 2.0)), 4))
    return sorted(values)


def curves_zero_t(rng: np.random.Generator) -> list[Command]:
    return [
        Command("osc_trace", "oscillator", steps=100001,
                states=(("thermal", 3.0), ("coherent", 1.0), ("number", 1))),
        Command("osc_hs", "oscillator", steps=100001, metric="hs",
                states=(("number", 20), ("thermal", 3.0))),
        Command("jcm_ramp", "tls", steps=100001, model="jcm", schedule="ramp",
                blochs=((0.0, 0.0, 1.0), _bloch(rng))),
    ]


def curves_thermal(rng: np.random.Generator) -> list[Command]:
    return [
        Command("jcm_ramp_beta0.1", "tls", steps=20001, model="jcm", schedule="ramp",
                beta=0.1, blochs=((0.0, 0.0, 1.0), _bloch(rng))),
        Command("pair_exp_beta1", "tls", steps=100001, model="pair", schedule="exp",
                beta=1.0, blochs=((0.0, 0.0, 1.0), _bloch(rng))),
    ]


def verify_oracle(rng: np.random.Generator) -> list[Command]:
    seeds = rng.integers(0, 2**31 - 1, size=2)
    return [
        Command("verify_dim40", "verify", dim=40, seed=int(seeds[0])),
        Command("verify_dim120", "verify", dim=120, seed=int(seeds[1])),
    ]


def crossings_scan(rng: np.random.Generator) -> list[Command]:
    states = (("thermal", 3.0),) + tuple(("coherent", a) for a in _amplitudes(rng, 39))
    return [Command("alpha_scan", "oscillator", steps=10001, states=states)]


WORKLOADS = {
    "curves-zeroT": curves_zero_t,
    "curves-thermal": curves_thermal,
    "verify-oracle": verify_oracle,
    "crossings-scan": crossings_scan,
}


def build(workload: str, seed: int) -> list[Command]:
    """The workload's command list; the same seed gives the same commands."""
    return WORKLOADS[workload](np.random.default_rng(seed))
