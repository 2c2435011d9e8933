"""In-process layer tracer for one ``mpemba_qsim.cli.main`` call.

The layers are the package's modules, plus ``emit`` for the CLI's CSV/JSON
writers.  Installing the tracer wraps every public function and public method
defined in a layer module, and rebinds every reference to the original that
other package modules hold (``from ... import`` aliases, module-level lists
and dicts such as ``verify._SUITES``).  Uninstalling puts the identical
original objects back.

Per-point kernel calls only bump per-function counters: calls and self CPU
time, measured per thread with ``time.thread_time`` because the CLI maps
columns over a thread pool.  Coarse layers (oracle, crossings, emit, verify)
also record a full span per call: name, parent span, wall start and end.
A layer whose public names were renamed or deleted simply reads 0 calls.

Run as a script it traces one CLI invocation in a fresh process:

    PYTHONPATH=src python bench/tracer.py --trace-out trace.json -- oscillator --out o.csv
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import traceback
import types
import warnings

PACKAGE = "mpemba_qsim"
LAYERS = ("schedules", "oscillator", "tls", "metrics", "linalg", "oracle", "crossings", "emit", "verify")
COARSE = frozenset({"oracle", "crossings", "emit", "verify"})
EMIT_FUNCTIONS = ("_write_csv", "_write_json")  # in cli


class _ThreadState:
    def __init__(self) -> None:
        self.cpu_stack: list[float] = []  # child CPU accumulated by each open call
        self.depth = dict.fromkeys(LAYERS, 0)  # open calls per layer
        self.span_stack: list[int] = []
        self.stats: dict[str, list] = {}  # function -> [layer, calls, total_cpu, child_cpu]
        self.spans: list[dict] = []
        self.emit_bytes = 0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)  # span 0 is the command
        self._patches: list[tuple] = []
        self.truncation_warnings = 0
        self._warn_lock = threading.Lock()

    # -- wrapping --------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def _wrap(self, fn, layer: str, name: str):
        coarse = layer in COARSE
        state = self._state
        ids = self._ids
        thread_time, perf_counter = time.thread_time, time.perf_counter

        def traced(*args, **kwargs):
            st = state()
            outer = st.depth[layer] == 0
            st.depth[layer] += 1
            st.cpu_stack.append(0.0)
            if coarse:
                span = next(ids)
                parent = st.span_stack[-1] if st.span_stack else 0
                st.span_stack.append(span)
                w0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = thread_time()
                dt = c1 - c0
                child = st.cpu_stack.pop()
                if st.cpu_stack:
                    st.cpu_stack[-1] += dt
                st.depth[layer] -= 1
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [layer, 0, 0.0, 0.0]
                rec[1] += 1
                rec[2] += dt
                rec[3] += child
                if coarse:
                    st.span_stack.pop()
                    if layer == "emit" and args:
                        st.emit_bytes += _size(args[0])
                    st.spans.append({"id": span, "parent": parent, "name": name, "layer": layer,
                                     "outer": outer, "thread": threading.get_ident(),
                                     "start": w0, "end": perf_counter()})

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def _targets(self):
        """(owner, attribute, original, layer, name) for every public callable of each layer."""
        for layer in LAYERS:
            modname = f"{PACKAGE}.cli" if layer == "emit" else f"{PACKAGE}.{layer}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue  # a deleted module is a layer with 0 calls
            if layer == "emit":
                for attr in EMIT_FUNCTIONS:
                    fn = vars(mod).get(attr)
                    if isinstance(fn, types.FunctionType):
                        yield mod, attr, fn, layer, f"emit.{attr}"
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, types.FunctionType):
                    yield mod, attr, obj, layer, f"{layer}.{attr}"
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            yield obj, meth, fn, layer, f"{layer}.{attr}.{meth}"

    def install(self) -> None:
        replacement = {}
        for owner, attr, fn, layer, name in list(self._targets()):
            new = self._wrap(fn, layer, name)
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, new)
            else:
                replacement[id(fn)] = (fn, new)
        # rebind the defining module's name and every alias other modules hold
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replacement and replacement[id(val)][0] is val:
                    self._patch(mod, attr, val, replacement[id(val)][1])
                elif isinstance(val, (list, dict)):
                    for key, item in list(val.items() if isinstance(val, dict) else enumerate(val)):
                        if id(item) in replacement and replacement[id(item)][0] is item:
                            self._patch(val, key, item, replacement[id(item)][1])
        self._patch(warnings, "warn", warnings.warn, self._counting_warn(warnings.warn))

    def _patch(self, owner, key, original, new) -> None:
        if isinstance(owner, (list, dict)):
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._patches.append((owner, key, original))

    def _counting_warn(self, warn):
        def counting_warn(message, category=None, stacklevel=1, source=None, **kwargs):
            cat = category or (type(message) if isinstance(message, Warning) else UserWarning)
            if "Truncation" in getattr(cat, "__name__", ""):
                with self._warn_lock:
                    self.truncation_warnings += 1
            return warn(message, category, stacklevel + 1, source, **kwargs)

        return counting_warn

    def uninstall(self) -> bool:
        """Put every original back; True when each slot holds the identical original."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, (list, dict)):
                owner[key] = original
            else:
                setattr(owner, key, original)
        restored = all(_slot(owner, key) is original for owner, key, original in self._patches)
        self._patches.clear()
        return restored

    # -- results ---------------------------------------------------------

    def functions(self) -> dict:
        """Per function: layer, calls, total and self CPU seconds, summed over threads."""
        out: dict[str, dict] = {}
        for st in self._states:
            for name, (layer, calls, total, child) in st.stats.items():
                rec = out.setdefault(name, {"layer": layer, "calls": 0, "total_s": 0.0, "self_s": 0.0})
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += total - child
        return out

    def spans(self) -> list[dict]:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s["start"])

    def emit_bytes(self) -> int:
        return sum(st.emit_bytes for st in self._states)


def _slot(owner, key):
    if isinstance(owner, (list, dict)):
        return owner[key]
    return vars(owner)[key] if inspect.isclass(owner) else getattr(owner, key)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def trace_main(argv: list[str]) -> tuple[int, dict]:
    """Run ``cli.main(argv)`` under the tracer; returns the exit code and the trace."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    w0, p0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    w1, p1 = time.perf_counter(), time.process_time()
    restored = tracer.uninstall()
    command = {"id": 0, "parent": None, "name": "command", "layer": "cli", "outer": True,
               "thread": threading.get_ident(), "start": w0, "end": w1, "argv": argv}
    return rc, {
        "returncode": rc,
        "restored": restored,
        "wall_s": w1 - w0,
        "cpu_s": p1 - p0,
        "functions": tracer.functions(),
        "spans": [command] + tracer.spans(),
        "emit_bytes": tracer.emit_bytes(),
        "truncation_warnings": tracer.truncation_warnings,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, help="where to write the trace JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    rc, trace = trace_main(argv)
    with open(args.trace_out, "w") as fh:
        json.dump(trace, fh)
    sys.stdout.flush()
    return rc if trace["restored"] else 3


if __name__ == "__main__":
    sys.exit(main())
