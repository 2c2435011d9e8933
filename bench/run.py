"""End-to-end benchmark of the mpemba-qsim CLI.

Each workload is a fixed list of CLI invocations (see workloads.py).  Every
invocation runs in its own fresh ``python -m mpemba_qsim.cli`` process from
the checkout's ``src``, so it pays for interpreter start, import, the work
and CSV/JSON emission, exactly as a user does.  Children get at most nproc
BLAS threads and never see MPEMBA_QSIM_THREADS.

    python3 bench/run.py --workload curves-zeroT --seed 0 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s (sum of
per-command median wall times, i.e. one pass through the list), setup_s
(median fresh ``--version``) and peak_rss_mb (highest per-process peak RSS).
--trace 1 repeats the timing, then runs every command once more in a fresh
process under bench/tracer.py; it prints every metric and reports the
per-layer ones in the JSON line.
Output checks (checks.py) run after timing; the last stdout line is the JSON
result, and the full record with provenance and quartiles is written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from checks import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every child is killed once the run gets this old
TRACEBACK = b"Traceback (most recent call last)"
LAYERS = ("schedules", "oscillator", "tls", "metrics", "linalg", "oracle", "crossings", "emit", "verify")

PROBE = r"""
import ctypes, glob, json, os, sys, numpy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
info = {"python": sys.version.split()[0], "numpy": numpy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            if get is not None and info["blas_threads"] is None:
                info["blas_threads"] = get()
print(json.dumps(info))
"""


@dataclass
class Invocation:
    label: str
    outdir: Path
    wall_s: float
    rss_mib: float
    problems: list[str] = field(default_factory=list)  # empty when it succeeded


class Runner:
    """Starts children one at a time and reaps each before returning."""

    def __init__(self, env: dict, started: float) -> None:
        self.env = env
        self.started = started
        self.invocations: list[Invocation] = []

    def run(self, label: str, argv: list[str], outdir: Path) -> Invocation:
        outdir.mkdir(parents=True)
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(outdir / "stdout", "wb") as out, open(outdir / "stderr", "wb") as err:
            done: dict = {}
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=outdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def reap() -> None:
                _, status, usage = os.wait4(proc.pid, 0)
                done.update(t1=time.perf_counter(), status=status, usage=usage)

            reaper = threading.Thread(target=reap)
            reaper.start()
            reaper.join(timeout)
            if reaper.is_alive():
                proc.kill()
                reaper.join()
            proc.returncode = os.waitstatus_to_exitcode(done["status"])
        inv = Invocation(label, outdir, done["t1"] - t0, done["usage"].ru_maxrss / 1024.0)
        if proc.returncode != 0:
            inv.problems.append(f"{label}: exit {proc.returncode}")
        if TRACEBACK in (outdir / "stderr").read_bytes():
            inv.problems.append(f"{label}: traceback on stderr")
        self.invocations.append(inv)
        return inv


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "mpemba_qsim.cli", *args]


def child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k != "MPEMBA_QSIM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env, nproc


def provenance(env: dict, nproc: int, args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                           text=True, timeout=60)
    info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "src_sha256": digest.hexdigest(), "nproc": nproc,
        "platform": platform.platform(), "machine": platform.machine(), **info,
        "child_thread_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "MPEMBA_QSIM_THREADS_set": "MPEMBA_QSIM_THREADS" in env,
        "MPEMBA_QSIM_THREADS_in_caller_env": "MPEMBA_QSIM_THREADS" in os.environ,
    }


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(runner: Runner, commands, seconds: float, outroot: Path) -> dict:
    """One full pass, then more invocations while they fit in the window.

    Each extra invocation goes to the command whose next sample most reduces
    the variance of the summed medians: time^2 / (n (n + 1)) for n samples.
    """
    samples: dict[str, list[Invocation]] = {c.name: [] for c in commands}

    def run(cmd) -> None:
        k = len(samples[cmd.name])
        samples[cmd.name].append(runner.run(cmd.name, cli(*cmd.argv()), outroot / cmd.name / str(k)))

    def typical(cmd) -> float:
        return statistics.median(i.wall_s for i in samples[cmd.name])

    start = time.perf_counter()
    for cmd in commands:
        run(cmd)
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [c for c in commands if typical(c) <= left]
        if not fits:
            return samples
        n = {c.name: len(samples[c.name]) for c in fits}
        run(max(fits, key=lambda c: typical(c) ** 2 / (n[c.name] * (n[c.name] + 1))))


def digests(outdir: Path, names: list[str]) -> dict:
    return {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest()
            if (outdir / n).is_file() else None for n in names}


def check_outputs(commands, samples: dict, traced: dict) -> None:
    """Content checks on the first copy; every other copy, traced ones too,
    must be byte-identical to it (reruns are byte-identical)."""
    for cmd in commands:
        first = samples[cmd.name][0]
        names = cmd.outputs()
        want = digests(first.outdir, names)
        problems = check(cmd, first.outdir)
        for inv in samples[cmd.name] + traced.get(cmd.name, []):
            inv.problems += problems
            if inv is not first and digests(inv.outdir, names) != want:
                inv.problems.append(f"{cmd.name}: output differs from the first run")


def layer_metrics(commands, traces: dict, traced: dict, wall_s: float) -> dict:
    m: dict[str, float] = {}
    funcs = [f for t in traces.values() for f in t["functions"].values()]
    cpu = sum(t["cpu_s"] for t in traces.values())
    attributed = 0.0
    for layer in LAYERS:
        mine = [f for f in funcs if f["layer"] == layer]
        self_s = sum(f["self_s"] for f in mine)
        attributed += self_s
        m[f"{layer}.calls"] = sum(f["calls"] for f in mine)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / cpu if cpu else 0.0
    m["other.self_s"] = max(0.0, cpu - attributed)
    m["other.share"] = m["other.self_s"] / cpu if cpu else 0.0

    def outer(layer: str, names=None) -> list[float]:
        return [s["end"] - s["start"] for name, t in traces.items() if names is None or name in names
                for s in t["spans"] if s["layer"] == layer and s["outer"]]

    terms = sum(c.series_terms for c in commands)
    m["tls.series_terms"] = terms
    m["tls.series_terms_per_s"] = terms / m["tls.self_s"] if m["tls.self_s"] else 0.0
    for dim in (40, 120):
        calls = outer("oracle", {c.name for c in commands if c.kind == "verify" and c.dim == dim})
        m[f"oracle.s_per_call.dim{dim}"] = sum(calls) / len(calls) if calls else 0.0
    first = outer("oracle")
    m["oracle.first_call_s"] = first[0] if first else 0.0
    pairs = sum(c.pairs for c in commands)
    m["crossings.pairs"] = pairs
    scans = outer("crossings", {c.name for c in commands if c.pairs})
    m["crossings.s_per_pair"] = sum(scans) / pairs if pairs else 0.0
    m["emit.bytes"] = sum(t["emit_bytes"] for t in traces.values())
    emit_s = sum(outer("emit"))
    m["emit.mb_per_s"] = m["emit.bytes"] / 1e6 / emit_s if emit_s else 0.0
    m["warnings.truncation"] = sum(t["truncation_warnings"] for t in traces.values())
    m["traced_wall_s"] = sum(inv.wall_s for invs in traced.values() for inv in invs)
    m["trace_overhead_s"] = m["traced_wall_s"] - wall_s
    return m


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mpemba_qsim" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no mpemba_qsim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(spec_path.read_text())

    started = time.perf_counter()
    commands = workloads.build(args.workload, args.seed)
    outroot = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outroot, ignore_errors=True)
    env, nproc = child_env()
    runner = Runner(env, started)
    record = {"provenance": provenance(env, nproc, args),
              "commands": {c.name: c.argv() for c in commands}}

    runner.run("warmup", cli("--version"), outroot / "setup" / "warmup")  # writes bytecode caches
    setup = [runner.run("setup", cli("--version"), outroot / "setup" / str(k))
             for k in range(SETUP_SAMPLES)]
    samples = measure(runner, commands, args.seconds, outroot)
    traced: dict[str, list[Invocation]] = {}
    traces: dict[str, dict] = {}
    if args.trace:
        for cmd in commands:
            outdir = outroot / "traced" / cmd.name
            argv = [sys.executable, str(BENCH / "tracer.py"), "--trace-out", "trace.json", "--",
                    *cmd.argv()]
            inv = runner.run(cmd.name + ":traced", argv, outdir)
            traced[cmd.name] = [inv]
            try:
                traces[cmd.name] = json.loads((outdir / "trace.json").read_text())
            except (OSError, ValueError):
                inv.problems.append(f"{cmd.name}: no trace written")
            else:
                if not traces[cmd.name]["restored"]:
                    inv.problems.append(f"{cmd.name}: tracer left a wrapped attribute behind")
    check_outputs(commands, samples, traced)
    for inv in runner.invocations:
        if inv.label in ("warmup", "setup") and not (inv.outdir / "stdout").read_text().strip():
            inv.problems.append(f"{inv.label}: --version printed nothing")

    per_cmd = {name: quartiles([i.wall_s for i in invs]) for name, invs in samples.items()}
    rss = {name: statistics.median(i.rss_mib for i in invs) for name, invs in samples.items()}
    metrics = {"wall_s": sum(q["median"] for q in per_cmd.values()),
               "setup_s": statistics.median(i.wall_s for i in setup),
               "peak_rss_mb": max(rss.values())}
    if args.trace:
        metrics.update(layer_metrics(commands, traces, traced, metrics["wall_s"]))
    attempted = len(runner.invocations)
    failed = sum(bool(inv.problems) for inv in runner.invocations)
    metrics["fail_ratio"] = failed / attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    problems = sorted({p for inv in runner.invocations for p in inv.problems})
    correct = failed == 0

    record.update({
        "commands_wall_s": per_cmd, "commands_peak_rss_mib": rss,
        "setup_s": quartiles([i.wall_s for i in setup]),
        "metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
        "run_s": time.perf_counter() - started,
    })
    outroot.mkdir(parents=True, exist_ok=True)
    (outroot / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if traces:
        (outroot / "trace.json").write_text(json.dumps(traces) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} invocations, {failed} failed, "
          f"{time.perf_counter() - started:.1f} s; record in {outroot.relative_to(ROOT)}")
    for name, q in per_cmd.items():
        print(f"  {name:18s} {q['median']:9.4f} s  [q1 {q['q1']:.4f}, q3 {q['q3']:.4f}] n={q['n']}"
              f"  peak {rss[name]:.1f} MiB")
    q = record["setup_s"]
    print(f"  {'--version':18s} {q['median']:9.4f} s  [q1 {q['q1']:.4f}, q3 {q['q3']:.4f}] n={q['n']}")
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"{m['name']:28s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{failed}/{attempted} invocations failed")
    for p in problems[:20]:
        print(f"FAIL {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
