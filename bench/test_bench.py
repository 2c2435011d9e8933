"""Tests of the benchmark itself: its checks must catch corrupted outputs and
its tracer must leave the program untouched.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mpemba_qsim import cli  # noqa: E402
from workloads import Command  # noqa: E402

SMALL = [
    Command("osc", "oscillator", steps=1001,
            states=(("thermal", 3.0), ("coherent", 0.6), ("number", 1))),
    Command("osc_hs", "oscillator", steps=1001, metric="hs",
            states=(("number", 20), ("thermal", 3.0))),
    Command("jcm", "tls", steps=1001, model="jcm", schedule="ramp",
            blochs=((0.0, 0.0, 1.0), (0.5, 0.5, 0.5))),
    Command("jcm_hot", "tls", steps=201, model="jcm", schedule="ramp", beta=0.5,
            blochs=((0.0, 0.0, 1.0), (-0.3, 0.4, 0.1))),
    Command("pair", "tls", steps=1001, model="pair", schedule="exp", beta=1.0,
            blochs=((0.0, 0.0, 1.0), (0.5, -0.5, 0.5))),
]


def produce(cmd: Command, outdir: Path, monkeypatch, capsys) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(outdir)
    assert cli.main(cmd.argv()) == 0
    if cmd.kind == "verify":
        (outdir / "stdout").write_text(capsys.readouterr().out)
    return outdir


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    with pytest.MonkeyPatch.context() as mp:
        for cmd in SMALL:
            mp.chdir(root)
            assert cli.main(cmd.argv()) == 0
    return root


def corrupted(outputs: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(outputs, copy)
    return copy


def edit_value(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def flip_digit(cell: str) -> str:
    """Change the third significant digit."""
    digits = [i for i, ch in enumerate(cell) if ch.isdigit() and (ch != "0" or any(
        c in "123456789" for c in cell[:i]))]
    i = digits[2]
    return cell[:i] + str((int(cell[i]) + 5) % 10) + cell[i + 1 :]


@pytest.mark.parametrize("cmd", SMALL, ids=lambda c: c.name)
def test_clean_outputs_pass(outputs, cmd):
    assert checks.check(cmd, outputs) == []


@pytest.mark.parametrize("cmd", SMALL, ids=lambda c: c.name)
@pytest.mark.parametrize("col", [1, -1])
def test_flipped_digit_is_flagged(outputs, tmp_path, cmd, col):
    copy = corrupted(outputs, tmp_path)
    edit_value(copy / cmd.csv, 137, col, flip_digit)
    assert checks.check(cmd, copy)


@pytest.mark.parametrize("cmd", SMALL, ids=lambda c: c.name)
def test_nan_is_flagged(outputs, tmp_path, cmd):
    copy = corrupted(outputs, tmp_path)
    edit_value(copy / cmd.csv, 42, 1, lambda _: "nan")
    assert any("non-finite" in p for p in checks.check(cmd, copy))


@pytest.mark.parametrize("cmd", [SMALL[0], SMALL[2]], ids=lambda c: c.name)
def test_dropped_crossing_is_flagged(outputs, tmp_path, cmd):
    copy = corrupted(outputs, tmp_path)
    body = json.loads((copy / cmd.sidecar).read_text())
    crossing = next(p for p in body["pairs"] if p["crossings"])
    crossing["crossings"].pop()
    (copy / cmd.sidecar).write_text(json.dumps(body))
    assert any("crossings reported" in p for p in checks.check(cmd, copy))


def test_flipped_mpemba_flag_is_flagged(outputs, tmp_path):
    cmd = SMALL[0]
    copy = corrupted(outputs, tmp_path)
    body = json.loads((copy / cmd.sidecar).read_text())
    pair = next(p for p in body["pairs"] if p["crossings"])
    pair["mpemba"] = not pair["mpemba"]
    (copy / cmd.sidecar).write_text(json.dumps(body))
    assert any("mpemba" in p for p in checks.check(cmd, copy))


def test_verify_report_checks(tmp_path, monkeypatch, capsys):
    cmd = Command("verify", "verify", dim=40, seed=5)
    outdir = produce(cmd, tmp_path / "v", monkeypatch, capsys)
    report = json.loads((outdir / "stdout").read_text())
    assert checks.check(cmd, outdir) == []
    report["suites"].pop()
    (outdir / "stdout").write_text(json.dumps(report))
    assert any("11 suites" in p for p in checks.check(cmd, outdir))


def test_ramp_crossing_formula_at_readme_inputs():
    r = (0.5, 0.5, 0.5)
    assert workloads.ramp_crossing_cos2(r) == pytest.approx(2.0 / 7.0, rel=1e-15)
    assert checks.ramp_crossing_tau(r) == pytest.approx(0.8006141168, abs=1e-10)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_follow_the_seed(name):
    assert workloads.build(name, 11) == workloads.build(name, 11)
    assert workloads.build(name, 11) != workloads.build(name, 12)


def test_workload_shapes():
    scan = workloads.build("crossings-scan", 3)[0]
    assert scan.pairs == 780 and scan.steps == 10001
    assert all(0.05 <= a <= 2.0 for kind, a in scan.states[1:])
    for cmd in workloads.build("curves-zeroT", 3) + workloads.build("curves-thermal", 3):
        if cmd.kind == "tls":
            rx, ry, rz = cmd.blochs[1]
            assert math.hypot(rx, ry) > 0 and rx * rx + ry * ry + rz * rz <= 1.0
            assert 0.15 <= workloads.ramp_crossing_cos2(cmd.blochs[1]) <= 0.85
    assert workloads.build("curves-thermal", 0)[0].series_terms == 2 * 20001 * 324


def package_slots() -> dict:
    """Every function object the package's modules, classes and lists hold."""
    slots = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "mpemba_qsim":
            continue
        for attr, val in vars(mod).items():
            if isinstance(val, types.FunctionType):
                slots[(name, attr)] = val
            elif isinstance(val, list):
                slots.update({(name, attr, i): v for i, v in enumerate(val)})
            elif isinstance(val, type) and val.__module__ == name:
                slots.update({(name, attr, k): v for k, v in vars(val).items()
                              if isinstance(v, types.FunctionType)})
    return slots


def test_tracer_leaves_outputs_and_objects_identical(tmp_path, monkeypatch):
    def run(label):
        outdir = tmp_path / label
        outdir.mkdir()
        monkeypatch.chdir(outdir)
        for cmd in (SMALL[0], SMALL[3], SMALL[4]):
            assert cli.main(cmd.argv()) == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    before = package_slots()
    plain = run("plain")
    t = tracer.Tracer()
    t.install()
    try:
        traced = run("traced")
        assert cli._write_csv is not before[("mpemba_qsim.cli", "_write_csv")]
    finally:
        assert t.uninstall()
    after = run("after")
    assert plain == traced == after
    assert package_slots().keys() == before.keys()
    assert all(package_slots()[k] is v for k, v in before.items())
    funcs = t.functions()
    assert funcs["oscillator.trace_distance_closed"]["calls"] == 3 * 1001
    assert funcs["tls.jcm_thermal_components"]["calls"] == 4 * 201
    assert funcs["linalg.eig_hermitian"]["calls"] == 2 * 1001 + 2 * 201  # pair + jcm_hot distances
    assert funcs["emit._write_csv"]["calls"] == 3
    assert t.emit_bytes() == sum(len(v) for v in plain.values())
    spans = t.spans()
    assert {s["layer"] for s in spans} == {"crossings", "emit"}
    assert all(s["end"] >= s["start"] for s in spans)


def test_traced_verify_records_suite_and_oracle_spans(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, trace = tracer.trace_main(["verify", "--dim", "40", "--seed", "5"])
    assert rc == 0 and trace["restored"]
    by_id = {s["id"]: s for s in trace["spans"]}
    suites = [s for s in trace["spans"] if s["name"].startswith("verify.suite_")]
    assert len(suites) == 12
    oracle = [s for s in trace["spans"] if s["layer"] == "oracle"]
    assert oracle and all(by_id[s["parent"]]["layer"] == "verify" for s in oracle)


def test_renamed_or_missing_layers_read_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "EMIT_FUNCTIONS", ("_write_csv_renamed",))
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + ("kernels",))
    monkeypatch.chdir(tmp_path)
    rc, trace = tracer.trace_main(SMALL[0].argv())
    assert rc == 0 and trace["restored"]
    layers = {f["layer"] for f in trace["functions"].values()}
    assert "emit" not in layers and "kernels" not in layers
    assert trace["emit_bytes"] == 0
