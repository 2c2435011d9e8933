"""Command-line surface: figure-style CSV/JSON emitters and the verification run.

Exit codes: 0 ok, 1 verification failure, 2 usage error.  CSV files carry a
header row, comma separators and LF line endings, and spell every value exactly
as C's and Python's '%.17g' do, so repeated runs with the same flags are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, metrics, oscillator, tls, verify
from .crossings import DistanceSeries, pairwise_crossings
from .errors import StateError, TruncationError
from .schedules import CavityMode, ExpDecay, Ramp, SinExpDecay, time_grid
from .states import ZERO_TEMPERATURE, BathThermal, BlochVector

_SCHEDULES = {"exp": ExpDecay, "sinexp": SinExpDecay, "ramp": Ramp, "cavity": CavityMode}
# CSV rows are formatted in blocks of about this many cells.
CSV_CHUNK_CELLS = 8192


def _parse_state(token: str) -> oscillator.InitialState:
    kind, _, value = token.partition(":")
    try:
        if kind == "thermal":
            return oscillator.Thermal(float(value))
        if kind == "coherent":
            return oscillator.Coherent(complex(value))
        if kind == "number":
            return oscillator.Fock(int(value))
    except (ValueError, StateError) as exc:
        raise argparse.ArgumentTypeError(f"bad state spec {token!r}: {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown state spec {token!r} (expected thermal:NBAR, coherent:ALPHA or number:N)"
    )


def _parse_bloch(token: str) -> BlochVector:
    try:
        return BlochVector.from_sequence(token.split(","))
    except (ValueError, StateError) as exc:
        raise argparse.ArgumentTypeError(f"bad Bloch vector {token!r}: {exc}")


def _parse_beta(token: str) -> BathThermal:
    try:
        return BathThermal(float(token))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad beta {token!r} (number or 'inf'): {exc}")


def _parse_dim(token: str) -> int:
    try:
        dim = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dim {token!r} (expected an integer)")
    if dim < 2:
        raise argparse.ArgumentTypeError(f"Fock truncation needs dim >= 2, got {dim}")
    return dim


# The fast path of the cell formatter covers zero and |x| in [_FAST_MIN,
# _FAST_MAX]; the powers of ten 10**k it needs, k in [_POW_MIN, _POW_MAX], are
# normal doubles whose Dekker split cannot overflow.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_POW_MIN, _POW_MAX = -266, 298
_SPLIT = 134217729.0  # 2**27 + 1
# The quad table holds "0000".."9999" zero-padded, then from these offsets with
# leading zeros blank, with leading zeros blank but "0" kept for 0, and with
# trailing zeros blank.
_LEAD, _LAST, _TRAIL = 10000, 20000, 30000


def _words(texts: list[bytes], width: int = 4) -> np.ndarray:
    """``texts`` left-justified and NUL-padded to ``width`` bytes, as native uint32 words."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint32)


@cache
def _format_tables() -> dict:
    """Lookup tables of the cell formatter, built on first use.

    ``pow``: 10**k as hi + lo with |lo| <= ulp(hi)/2, from exact integer
    arithmetic, and hi's Dekker halves.  The rest are words of text.
    """
    his, los = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            n = 10**-k
            hi = 1 / n
            num, den = hi.as_integer_ratio()
            lo = (den - num * n) / (den * n)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    digits = (np.arange(10000, dtype=np.int32)[:, None] // np.array([1000, 100, 10, 1], np.int32) % 10).astype(np.uint8)
    lead = np.maximum.accumulate(digits > 0, axis=1)
    last = lead.copy()
    last[:, 3] = True
    trail = np.maximum.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    chars = digits + np.uint8(48)
    quads = np.concatenate([chars, chars * lead, chars * last, chars * trail])
    # 0..999 right-aligned, then the same with a minus sign before the first digit
    small = np.concatenate([quads[_LAST : _LAST + 1000]] * 2)
    n = np.arange(1000)
    small[n + 1000, 2 - (n >= 10) - (n >= 100)] = ord("-")
    return {
        "pow": (hi, np.array(los), hi_h, hi - hi_h),
        "quad": quads.view(np.uint32).ravel(),
        "small": small.view(np.uint32).ravel(),
        # the sign and the first of 17 integer digits (blank for 0), negative from 10
        "head": _words([b"\0\0" + sign + (b"%d" % i if i else b"") for sign in (b"", b"-") for i in range(10)]),
        # the point and the zeros of 0.000ddd..., blank at 4
        "point": _words([b"." + b"0" * z for z in range(4)] + [b""]),
        # the last fraction digit in byte 0, blank at 10
        "digit": _words([b"%d" % i for i in range(10)] + [b""]),
        # "e-300".."e+300" from byte 1 of two words, blank at 601
        "exp": _words([b"\0e%+03d" % e for e in range(-300, 301)] + [b""], 8).reshape(-1, 2).T.copy(),
    }


def _scaled(ax: np.ndarray, k: np.ndarray, pow10) -> tuple[np.ndarray, np.ndarray]:
    """ax * 10**k as p + r: p = fl(ax * hi), r a double within about 1e-14 of the rest."""
    k = k - _POW_MIN
    hi, lo, hi_h, hi_l = (t[k] for t in pow10)
    c = _SPLIT * ax
    ax_h = c - (c - ax)
    ax_l = ax - ax_h
    p = ax * hi
    err = ((ax_h * hi_h - p) + ax_h * hi_l + ax_l * hi_h) + ax_l * hi_l
    return p, err + ax * lo


def _round17(x: np.ndarray, pow10) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits of each x: (d, E, fast) with |x| ~ d * 10**(E - 16), d in [1e16, 1e17).

    y = |x| * 10**(16 - E) is found to about 1e-14 as a double-double and d is
    round(y).  ``fast`` is False where that cannot be trusted: y within 1e-6
    of a rounding tie, |x| outside the fast range, or x not finite.  Zeros give
    d = E = 0.
    """
    ax = np.abs(x)
    zero = ax == 0
    fast = zero | ((ax >= _FAST_MIN) & (ax <= _FAST_MAX))
    ax = np.where(fast & ~zero, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    p, r = _scaled(ax, 16 - e, pow10)
    # log10 can miss the decade next to a power of ten: move E by one there
    shift = ((p > 1e17) | ((p == 1e17) & (r >= 0))).astype(np.int64)
    shift -= (p < 1e16) | ((p == 1e16) & (r < 0))
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        p[moved], r[moved] = _scaled(ax[moved], 16 - e[moved], pow10)
    whole = np.floor(r)
    r -= whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    fast &= (np.abs(r - 0.5) > 1e-6) & (d >= 10**16) & (d <= 10**17)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    return d, e, fast


def _quads(v: np.ndarray) -> list[np.ndarray]:
    """v < 10**16 as four 4-digit groups, most significant first."""
    upper = v // 10**8
    lower = (v - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    q1 = upper // 10000
    q3 = lower // 10000
    return [q1, upper - q1 * 10000, q3, lower - q3 * 10000]


def _format_block(block: np.ndarray) -> bytearray:
    """CSV text of a 2-D float block: each cell exactly '%.17g' % x, ',' between cells, LF after rows.

    Each cell is written into a slot of native uint32 words, NUL where unused,
    and the NULs are deleted at the end.  Cells that ``_round17`` cannot vouch
    for are formatted by Python.
    """
    tables = _format_tables()
    quad = tables["quad"]
    x = block.ravel()
    d, e, fast = _round17(x, tables["pow"])

    # %g layout: fixed point for -4 <= E < 17, else d.ddd...e+XX.  With `lead`
    # digits before the point (none below 1), the integer part i prints without
    # leading zeros, the fraction f (left-aligned in 17 digits) without trailing
    # zeros, and the point only before a fraction digit.
    fixed = (e >= -4) & (e < 17)
    lead = np.where(fixed, np.maximum(e, -1), 0) + 1
    scale = 10 ** np.arange(18, dtype=np.int64)
    unit = scale[17 - lead]
    i = d // unit
    f = (d - i * unit) * scale[lead]
    neg = np.signbit(x)
    # slot: the integer part (one word below 1000, else five), the point, four
    # fraction groups, then the last fraction digit, the exponent and the separator
    wide = i.max() >= 1000
    words = 12 if wide else 8
    buf = bytearray(4 * words * x.size)
    out = np.frombuffer(buf, np.uint32).reshape(x.size, words)
    if wide:
        i0 = i // 10**16
        blank = i0 == 0
        out[:, 0] = tables["head"][i0 + 10 * neg]
        for col, q in enumerate(_quads(i - i0 * 10**16), 1):
            out[:, col] = quad[q + (_LAST if col == 4 else _LEAD) * blank]
            blank &= q == 0
    else:
        out[:, 0] = tables["small"][i + 1000 * neg]
    out[:, -7] = tables["point"][np.where(f == 0, 4, np.where(fixed & (e < 0), -1 - e, 0))]
    top = f // 10
    last = f - top * 10
    blank = last == 0
    for col, q in zip(range(-3, -7, -1), _quads(top)[::-1]):
        out[:, col] = quad[q + _TRAIL * blank]
        blank &= q == 0
    exp = np.where(fixed, 601, e + 300)
    out[:, -2] = tables["digit"][np.where(last == 0, 10, last)] | tables["exp"][0][exp]
    out[:, -1] = tables["exp"][1][exp]
    cells = out.view(np.uint8)
    sep = np.full(block.shape[1], ord(","), np.uint8)
    sep[-1] = ord("\n")
    cells.reshape(*block.shape, 4 * words)[:, :, -2] = sep
    for n in np.flatnonzero(~fast):
        text = b"%.17g" % x[n]
        cells[n, :-2] = 0
        cells[n, : len(text)] = np.frombuffer(text, np.uint8)
    return buf.translate(None, b"\0")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = max(1, CSV_CHUNK_CELLS // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), rows):
            block = np.column_stack([col[start : start + rows] for col in columns]).astype(np.float64, copy=False)
            fh.write(_format_block(block))


def _write_json(path: Path, body: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(body, indent=2, sort_keys=True))
        fh.write("\n")


def _check_outputs(*named: tuple[str, str | Path | None]) -> None:
    """Reject, before any work, outputs that coincide, are directories or lie in a missing directory.

    Each output is a (name, path) pair; a None path is skipped.
    """
    seen: dict[Path, str] = {}
    for name, path in ((name, Path(path)) for name, path in named if path):
        full = path.resolve()
        if full in seen:
            raise ValueError(f"{name} {path} is the same file as {seen[full]}")
        if full.is_dir():
            raise ValueError(f"{name} {path} is a directory")
        if not full.parent.is_dir():
            raise ValueError(f"{name} {path}: directory {full.parent} does not exist")
        seen[full] = name


def _emit_curves(out: Path, tau, labels, columns, extra_header, extra_columns, meta: dict) -> None:
    """Write the curve CSV, then the crossing report of every curve pair to ``<out>.json``.

    ``extra_header``/``extra_columns`` follow the curves in the CSV but take no
    part in the crossing report; ``meta`` is merged into the sidecar.
    """
    series = [DistanceSeries(lbl, tau, col) for lbl, col in zip(labels, columns)]
    _write_csv(out, ["tau", *labels, *extra_header], [tau, *columns, *extra_columns])
    report = pairwise_crossings(series)
    pairs = [
        {
            "pair": [p.label_a, p.label_b],
            "crossings": p.crossing_times,
            "mpemba": p.mpemba,
            "degenerate_start": p.degenerate_start,
            "window": list(report.window),
        }
        for p in report.pairs
    ]
    _write_json(out.with_suffix(".json"), {**meta, "tool": "mpemba-qsim", "version": __version__, "pairs": pairs})


def _num(x: float) -> str:
    """Label spelling of x: %g when that parses back to x, else repr, so distinct inputs get distinct labels."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _state_label(state) -> str:
    if isinstance(state, oscillator.Thermal):
        return f"thermal:{_num(state.nbar)}"
    if isinstance(state, oscillator.Coherent):
        a = state.alpha
        imag = "" if a.imag == 0 else f"{'+' if a.imag > 0 else ''}{_num(a.imag)}j"
        return f"coherent:{_num(a.real)}{imag}"
    return f"number:{state.n}"


def cmd_oscillator(args) -> int:
    if args.states is None:
        args.states = [oscillator.Thermal(3.0), oscillator.Coherent(1.0), oscillator.Fock(1)]
    _check_outputs(("--out", args.out), ("its sidecar", Path(args.out).with_suffix(".json")))
    schedule = _SCHEDULES[args.schedule](args.gamma)
    grid = time_grid(schedule, args.steps, args.tmax)
    tau = args.gamma * grid
    cos2 = schedule.cos2(grid)
    if args.metric == "trace":
        dist = oscillator.trace_distance_closed
    else:
        dist = oscillator.hs_distance_closed
    labels = [_state_label(s) for s in args.states]
    _emit_curves(Path(args.out), tau, labels, [dist(state, cos2) for state in args.states], [], [], {
        "command": "oscillator",
        "schedule": {"type": args.schedule, **dataclasses.asdict(schedule)},
        "grid": {"tmax": float(grid[-1]), "steps": args.steps, "tau_scale": args.gamma},
        "metric": args.metric,
        "states": labels,
    })
    return 0


def _tls_columns(args, bath, r, sums, cos2) -> tuple[np.ndarray, np.ndarray | None]:
    """Distance column of one Bloch vector, and its energy column for jcm from the bath ``sums``."""
    if args.model == "pair":
        if bath.is_zero_temperature:
            # at zero bath temperature the pair obeys the jcm law in mu_cos2
            return tls.jcm_trace_distance(r, cos2), None
        rho_ee, _, rho_eg = tls.tls_pair_components(r, bath, cos2)
        return metrics.traceless_qubit_distance(rho_ee - bath.p_excited, rho_eg), None
    rho_ee, rho_eg = tls.jcm_thermal_series(r, sums)
    energy = tls.tls_energy(rho_ee)
    if bath.is_zero_temperature:
        return tls.jcm_trace_distance(r, cos2), energy
    # Finite-temperature boson bath: distance measured to the zero-temperature
    # relaxation point diag(0, 1), the fixed reference all the figure curves share.
    return metrics.traceless_qubit_distance(rho_ee, rho_eg), energy


def cmd_tls(args) -> int:
    if args.bloch is None:
        args.bloch = [BlochVector(0.0, 0.0, 1.0), BlochVector(0.5, 0.5, 0.5)]
    if args.schedule in ("exp", "sinexp"):
        schedule = _SCHEDULES[args.schedule](args.gamma)
        tau_scale = args.gamma
    else:
        schedule = _SCHEDULES[args.schedule](args.t0)
        tau_scale = 1.0 / args.t0
    if not math.isfinite(tau_scale):
        raise ValueError(f"--t0 {args.t0:g} is too small: 1/t0 overflows")
    if args.traj_out and (args.model != "jcm" or not args.beta.is_zero_temperature):
        raise ValueError("--traj-out is only available for --model jcm at --beta inf")
    if not math.isfinite(args.omega_t0):
        raise ValueError(f"--omega-t0 must be finite, got {args.omega_t0}")
    sidecar = Path(args.out).with_suffix(".json")
    _check_outputs(("--out", args.out), ("its sidecar", sidecar), ("--traj-out", args.traj_out))

    grid = time_grid(schedule, args.steps, args.tmax)
    tau = tau_scale * grid
    cos2 = schedule.cos2(grid)
    phase = schedule.phase(grid)
    sums = tls.jcm_bath_sums(args.beta, phase) if args.model == "jcm" else None

    columns, energies = zip(*(_tls_columns(args, args.beta, r, sums, cos2) for r in args.bloch))

    # semicolons keep the labels comma-free for naive CSV consumers
    labels = [f"bloch({_num(r.rx)};{_num(r.ry)};{_num(r.rz)})" for r in args.bloch]
    energy_labels, energies = ([f"{lbl}:energy" for lbl in labels], energies) if args.model == "jcm" else ([], [])
    _emit_curves(Path(args.out), tau, labels, columns, energy_labels, energies, {
        "command": "tls",
        "model": args.model,
        "schedule": {"type": args.schedule, **dataclasses.asdict(schedule)},
        "grid": {"tmax": float(grid[-1]), "steps": args.steps, "tau_scale": tau_scale},
        "beta_hbar_omega": "inf" if args.beta.is_zero_temperature else args.beta.beta_hbar_omega,
        "states": labels,
    })

    if args.traj_out:
        # Bloch trajectories need a visible free rotation; omega is fixed by
        # the scaled rate omega*t0 (or omega/gamma), 20 by default.
        header = ["tau"]
        cols = [tau]
        for r, lbl in zip(args.bloch, labels):
            header += [f"{lbl}:a{comp}" for comp in "xyz"]
            cols += tls.jcm_bloch_components(r, phase, args.omega_t0 * tau)
        _write_csv(Path(args.traj_out), header, cols)
    return 0


def cmd_verify(args) -> int:
    _check_outputs(("--out", args.out))
    report = verify.run_all(dim=args.dim, seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)
    if not report["all_passed"]:
        for suite in report["suites"]:
            if not suite["passed"]:
                print(
                    f"FAILED {suite['name']}: max deviation {suite['max_deviation']:.3e} "
                    f"> {suite['tolerance']:g} at {suite['worst_case']}",
                    file=sys.stderr,
                )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpemba-qsim",
        description="Relaxation-distance trajectories and Mpemba-crossing detection "
        "for exactly solvable open-system models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_osc = sub.add_parser("oscillator", help="oscillator distance curves as CSV + crossing JSON")
    p_osc.add_argument("--schedule", choices=("exp", "sinexp"), default="exp")
    p_osc.add_argument("--gamma", type=float, default=1.0)
    p_osc.add_argument("--tmax", type=float, default=None, help="default 6/gamma")
    p_osc.add_argument("--steps", type=int, default=1001)
    p_osc.add_argument(
        "--states",
        type=_parse_state,
        nargs="+",
        action="extend",
        default=None,
        help="thermal:NBAR coherent:ALPHA number:N (repeatable; "
        "default thermal:3 coherent:1 number:1)",
    )
    p_osc.add_argument("--metric", choices=("trace", "hs"), default="trace")
    p_osc.add_argument("--out", required=True)
    p_osc.set_defaults(func=cmd_oscillator)

    p_tls = sub.add_parser("tls", help="two-level-system distance curves as CSV + crossing JSON")
    p_tls.add_argument("--model", choices=("pair", "jcm"), default="jcm")
    p_tls.add_argument("--schedule", choices=("exp", "sinexp", "ramp", "cavity"), default="ramp")
    p_tls.add_argument("--gamma", type=float, default=1.0)
    p_tls.add_argument("--t0", type=float, default=1.0)
    p_tls.add_argument(
        "--bloch",
        type=_parse_bloch,
        nargs="+",
        action="extend",
        default=None,
        help="rx,ry,rz (repeatable; default 0,0,1 and 0.5,0.5,0.5)",
    )
    p_tls.add_argument("--beta", type=_parse_beta, default=ZERO_TEMPERATURE, help="beta*hbar*omega; 'inf' = zero temperature")
    p_tls.add_argument("--tmax", type=float, default=None)
    p_tls.add_argument("--steps", type=int, default=1001)
    p_tls.add_argument("--out", required=True)
    p_tls.add_argument("--traj-out", default=None, help="also write Bloch trajectories (jcm at --beta inf only)")
    p_tls.add_argument("--omega-t0", type=float, default=20.0, help="scaled level splitting for trajectories")
    p_tls.set_defaults(func=cmd_tls)

    p_ver = sub.add_parser("verify", help="run the closed-form-vs-oracle verification suites")
    p_ver.add_argument("--dim", type=_parse_dim, default=40)
    p_ver.add_argument("--seed", type=int, default=2024)
    p_ver.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TruncationError, OSError) as exc:
        # the package rejects bad input with ValueError (and its subclasses)
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
