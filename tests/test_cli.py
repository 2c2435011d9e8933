import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpemba_qsim import cli, oscillator, tls, verify


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestOscillatorCommand:
    def test_three_state_family(self, tmp_path):
        out = tmp_path / "osc.csv"
        rc = cli.main(
            [
                "oscillator",
                "--schedule", "exp",
                "--states", "thermal:3", "coherent:1", "number:1",
                "--metric", "trace",
                "--steps", "501",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, data = read_csv(out)
        assert header == ["tau", "thermal:3", "coherent:1", "number:1"]
        assert data.shape == (501, 4)
        # intercepts: 3/4, sqrt(1-e^-1), 1
        assert data[0, 1] == pytest.approx(0.75, abs=1e-15)
        assert data[0, 2] == pytest.approx(math.sqrt(1 - math.exp(-1)), abs=1e-14)
        assert data[0, 3] == pytest.approx(1.0, abs=1e-15)
        body = json.loads(out.with_suffix(".json").read_text())
        assert body["tool"] == "mpemba-qsim"
        assert body["schedule"] == {"type": "exp", "gamma": 1.0}
        assert len(body["pairs"]) == 3

    def test_ground_fock_gives_zero_column(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert cli.main(["oscillator", "--states", "number:0", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert np.all(data[:, 1] == 0.0)

    def test_hs_metric_column(self, tmp_path):
        out = tmp_path / "hs.csv"
        assert cli.main(
            ["oscillator", "--metric", "hs", "--states", "number:3", "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        assert data[0, 1] == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["oscillator", "--states", "thermal:1", "coherent:0.5", "--out"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(args + [str(out1)])
        cli.main(args + [str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()

    def test_hs_thermal_at_huge_nbar_is_finite(self, tmp_path):
        out = tmp_path / "hot.csv"
        rc = cli.main(["oscillator", "--metric", "hs", "--states", "thermal:1e308",
                       "--steps", "101", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out)
        assert header == ["tau", "thermal:1e+308"] and np.all(np.isfinite(data))

    def test_labels_tell_close_inputs_apart(self, tmp_path):
        out = tmp_path / "close.csv"
        states = ["coherent:0.1234561", "coherent:0.1234562", "coherent:0.1234562-0.1234563j",
                  "thermal:0.1234561", "thermal:0.1234562"]
        assert cli.main(["oscillator", "--states", *states, "--steps", "51", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header[1:] == states
        assert json.loads(out.with_suffix(".json").read_text())["states"] == states

    def test_label_keeps_the_g_spelling_when_exact(self):
        for alpha in (3.0, 1 + 2j, 1 - 2j, 0.5j, complex(-0.0, 1.0), complex(1.0, -0.0), 1e-20 + 1e154j):
            old = f"coherent:{alpha.real:g}" if alpha.imag == 0 else f"coherent:{alpha:g}"
            assert cli._state_label(oscillator.Coherent(alpha)) == old
        for nbar in (0.0, 0.5, 3.0, 1e-20, 1e300):
            assert cli._state_label(oscillator.Thermal(nbar)) == f"thermal:{nbar:g}"

    def test_unknown_state_spec_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["oscillator", "--states", "squeezed:2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "squeezed:2" in capsys.readouterr().err


class TestTlsCommand:
    def test_ramp_crossing_in_json(self, tmp_path):
        out = tmp_path / "jcm.csv"
        rc = cli.main(
            [
                "tls",
                "--model", "jcm",
                "--schedule", "ramp",
                "--bloch", "0,0,1", "--bloch", "0.5,0.5,0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        body = json.loads(out.with_suffix(".json").read_text())
        [pair] = body["pairs"]
        assert len(pair["crossings"]) == 1
        assert pair["crossings"][0] == pytest.approx(0.80, abs=0.02)
        assert pair["mpemba"] is True
        header, data = read_csv(out)
        assert header[3].endswith(":energy")
        # energies start at +1/2 and +1/4
        assert data[0, 3] == pytest.approx(0.5, abs=1e-14)
        assert data[0, 4] == pytest.approx(0.25, abs=1e-14)

    def test_cavity_crossing_in_json(self, tmp_path):
        out = tmp_path / "cav.csv"
        cli.main(["tls", "--model", "jcm", "--schedule", "cavity", "--out", str(out)])
        body = json.loads(out.with_suffix(".json").read_text())
        assert body["pairs"][0]["crossings"][0] == pytest.approx(0.591, abs=0.02)

    def test_pair_model_excited_column_is_cos2(self, tmp_path):
        out = tmp_path / "pair.csv"
        cli.main(
            [
                "tls",
                "--model", "pair",
                "--schedule", "exp",
                "--bloch", "0,0,1",
                "--beta", "inf",
                "--steps", "301",
                "--out", str(out),
            ]
        )
        _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1] - np.exp(-data[:, 0]))) <= 1e-12

    def test_finite_beta_pair(self, tmp_path):
        out = tmp_path / "warm.csv"
        rc = cli.main(
            ["tls", "--model", "pair", "--schedule", "exp", "--beta", "1.0",
             "--bloch", "0,0,1", "--steps", "101", "--out", str(out)]
        )
        assert rc == 0
        _, data = read_csv(out)
        # fully swapped: distance to the bath-thermal point decays to 0
        assert data[-1, 1] == pytest.approx(0.0, abs=1e-2)

    def test_pair_keeps_distances_below_the_old_clip(self, tmp_path):
        # (1 - p_e) e^-tau for the excited start: 6.84e-14 at tau = 30 and
        # 3.11e-18 at tau = 40, both once clipped to 0
        out = tmp_path / "warm.csv"
        rc = cli.main(["tls", "--model", "pair", "--beta", "1", "--schedule", "exp",
                       "--tmax", "40", "--steps", "5", "--bloch", "0,0,1", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        assert data[:, 0].tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        for row, approx in ((3, 6.84e-14), (4, 3.11e-18)):
            exact = math.exp(1.0) / (1.0 + math.exp(1.0)) * math.exp(-data[row, 0])
            assert abs(data[row, 1] - exact) <= 1e-12 * exact
            assert abs(exact - approx) <= 0.01 * approx

    def test_thermal_jcm_keeps_distances_below_the_old_clip(self, tmp_path):
        # the ground start gains only the n = 1 bath term, e^-32 sin^2(phi):
        # 1.85e-15 at tau = 0.5 and 1.27e-14 at tau = 1, both once clipped to 0
        out = tmp_path / "cold.csv"
        rc = cli.main(["tls", "--model", "jcm", "--beta", "32", "--bloch", "0,0,-1", "0,0,1",
                       "--schedule", "ramp", "--steps", "5", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        assert data[:, 0].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        weights = [math.exp(-32.0 * n) * -math.expm1(-32.0) for n in range(3)]
        for row, approx in ((1, 1.85e-15), (2, 1.27e-14)):
            phi = 0.5 * math.pi * data[row, 0] ** 2
            exact = sum(w * math.sin(phi * math.sqrt(n)) ** 2 for n, w in enumerate(weights))
            assert abs(data[row, 1] - exact) <= 1e-12 * exact
            assert abs(exact - approx) <= 0.01 * approx

    @pytest.mark.parametrize("beta", ["710", "1e6"])
    def test_pair_past_exp_overflow(self, tmp_path, beta):
        out = tmp_path / "cold.csv"
        rc = cli.main(["tls", "--model", "pair", "--beta", beta, "--steps", "101", "--out", str(out)])
        assert rc == 0
        _, data = read_csv(out)
        assert data.shape == (101, 3) and np.all(np.isfinite(data))

    def test_bloch_trajectory_output(self, tmp_path):
        out = tmp_path / "jcm.csv"
        traj = tmp_path / "traj.csv"
        cli.main(
            ["tls", "--model", "jcm", "--schedule", "cavity", "--bloch", "0.5,0.5,0.5",
             "--traj-out", str(traj), "--out", str(out)]
        )
        header, data = read_csv(traj)
        assert header == ["tau", "bloch(0.5;0.5;0.5):ax", "bloch(0.5;0.5;0.5):ay", "bloch(0.5;0.5;0.5):az"]
        norms = np.linalg.norm(data[:, 1:], axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        # ends at the relaxation point (0, 0, -1)
        assert data[-1, 3] == pytest.approx(-1.0, abs=1e-12)

    def test_invalid_bloch_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tls", "--bloch", "1,1,1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "schedule, beta, meta, tau_scale",
        [
            ("exp", "inf", {"type": "exp", "gamma": 1.5}, 1.5),
            ("sinexp", "2", {"type": "sinexp", "gamma": 1.5}, 1.5),
            ("ramp", "inf", {"type": "ramp", "t0": 2.0}, 0.5),
            ("cavity", "2", {"type": "cavity", "t0": 2.0}, 0.5),
        ],
    )
    def test_sidecar_schedule_metadata(self, tmp_path, schedule, beta, meta, tau_scale):
        out = tmp_path / "s.csv"
        rc = cli.main(
            ["tls", "--schedule", schedule, "--gamma", "1.5", "--t0", "2", "--beta", beta,
             "--steps", "51", "--out", str(out)]
        )
        assert rc == 0
        body = json.loads(out.with_suffix(".json").read_text())
        assert body["schedule"] == meta
        assert body["grid"]["tau_scale"] == tau_scale
        assert body["beta_hbar_omega"] == ("inf" if beta == "inf" else float(beta))

    def test_labels_tell_close_inputs_apart(self, tmp_path):
        out = tmp_path / "close.csv"
        rc = cli.main(["tls", "--bloch", "0.1234561,0,0", "--bloch", "0.1234562,0,0",
                       "--steps", "51", "--out", str(out)])
        assert rc == 0
        labels = ["bloch(0.1234561;0;0)", "bloch(0.1234562;0;0)"]
        header, _ = read_csv(out)
        assert header[1:] == [*labels, *(f"{lbl}:energy" for lbl in labels)]
        body = json.loads(out.with_suffix(".json").read_text())
        assert body["states"] == labels and body["pairs"][0]["pair"] == labels

    @pytest.mark.parametrize("model, sums_calls", [("jcm", 1), ("pair", 0)])
    def test_bath_sums_once_per_command(self, tmp_path, monkeypatch, model, sums_calls):
        calls = []
        bath_sums = tls.jcm_bath_sums
        monkeypatch.setattr(tls, "jcm_bath_sums", lambda *a: calls.append(a) or bath_sums(*a))
        rc = cli.main(["tls", "--model", model, "--beta", "1", "--steps", "51",
                       "--bloch", "0,0,1", "--bloch", "0.5,0.5,0.5", "--bloch=-0.3,0.2,0.1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert len(calls) == sums_calls

    @pytest.mark.parametrize("schedule, tmax", [("ramp", "1e200"), ("cavity", "1e308")])
    def test_window_far_past_switch_off(self, tmp_path, capsys, schedule, tmax):
        rc = cli.main(["tls", "--schedule", schedule, "--steps", "11", "--tmax", tmax,
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_traj_rejected_for_pair_model(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(
                ["tls", "--model", "pair", "--traj-out", str(tmp_path / "t.csv"),
                 "--out", str(tmp_path / "x.csv")]
            )


class TestVerifyCommand:
    def test_default_run_passes(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path / "report.json")])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"] is True
        names = [s["name"] for s in report["suites"]]
        assert "oscillator_thermal" in names and "crossing_analytics" in names
        assert list(verify._SUITES) == list(verify.DEFAULT_TOLERANCES) == names
        cases = [s["cases"] for s in report["suites"]]
        assert cases == [33, 33, 33, 33, 200, 100, 100, 33, 1, 2, 100, 3]
        tolerances = [s["tolerance"] for s in report["suites"]]
        assert tolerances == [1e-6, 1e-8, 1e-8, 1e-9, 1e-8, 1e-8, 1e-8, 1e-12, 1e-8, 1e-10, 1e-12, 5e-3]
        assert "np." not in (tmp_path / "report.json").read_text()

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["verify", "--seed", "7", "--out", str(a)])
        cli.main(["verify", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_small_dim_surfaces_truncation(self, tmp_path, capsys):
        rc = cli.main(["verify", "--dim", "8", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        report = json.loads((tmp_path / "r.json").read_text())
        coh = next(s for s in report["suites"] if s["name"] == "oscillator_coherent")
        assert not coh["passed"]
        assert any("tail" in w or "truncation" in w for w in coh["warnings"])
        assert "FAILED" in capsys.readouterr().err

    def test_benchmarked_dim_passes(self, tmp_path):
        rc = cli.main(["verify", "--dim", "120", "--out", str(tmp_path / "r.json")])
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["all_passed"] is True
        assert [s["name"] for s in report["suites"]] == list(verify.DEFAULT_TOLERANCES)
        assert len(report["suites"]) == 12

    @pytest.mark.parametrize("dim", ["0", "1"])
    def test_dim_below_two_is_usage_error(self, tmp_path, capsys, dim):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--dim", dim, "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"needs dim >= 2, got {dim}" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    def test_dim_too_small_for_fock_cases_fails_suites(self, tmp_path, capsys):
        # Fock(5) cannot fit in 3 levels: reported as failed suites, exit 1
        rc = cli.main(["verify", "--dim", "3", "--out", str(tmp_path / "r.json")])
        assert rc == 1
        report = json.loads((tmp_path / "r.json").read_text())
        number = next(s for s in report["suites"] if s["name"] == "oscillator_number")
        assert not number["passed"]
        assert any("needs dim > 5" in w for w in number["warnings"])
        err = capsys.readouterr().err
        assert "FAILED oscillator_number" in err
        assert "np." not in err and "np." not in (tmp_path / "r.json").read_text()

    def test_unknown_override_rejected(self, tmp_path):
        # --tol-overrides is gone: every suite runs at its DEFAULT_TOLERANCES entry
        with pytest.raises(SystemExit):
            cli.main(["verify", "--tol-overrides", "nope=1e-3", "--out", str(tmp_path / "r.json")])


@pytest.mark.parametrize(
    "argv",
    [
        ["oscillator", "--states", "thermal:inf", "coherent:nan"],
        ["oscillator", "--states", "coherent:nan"],
        ["oscillator", "--states", "coherent:1e155"],
        ["oscillator", "--metric", "hs", "--states", "coherent:1e155"],
        ["oscillator", "--states", "coherent:1e200j"],
        ["oscillator", "--steps", "1"],
        ["oscillator", "--tmax", "-1"],
        ["oscillator", "--tmax", "inf"],
        ["oscillator", "--gamma", "0"],
        ["tls", "--t0", "inf"],
        ["tls", "--t0", "1e-310", "--steps", "11"],
        ["tls", "--schedule", "cavity", "--t0", "8e307", "--steps", "11"],
        ["tls", "--schedule", "cavity", "--t0", "1e308"],
        ["tls", "--schedule", "ramp", "--t0", "1e308"],
        ["tls", "--schedule", "ramp", "--t0", "1e308", "--tmax", "1"],
        ["tls", "--beta", "0"],
        ["tls", "--beta", "0.001"],
        ["tls", "--beta", "nan"],
        ["tls", "--bloch", "nan,0,0"],
        ["tls", "--model", "pair", "--traj-out", "{tmp}/t.csv"],
        ["tls", "--omega-t0", "nan", "--traj-out", "{tmp}/t.csv"],
        # scaled window ends, and trajectory phases, past the float range
        ["oscillator", "--gamma", "1e10", "--tmax", "1e300", "--steps", "3"],
        ["tls", "--schedule", "exp", "--gamma", "1e10", "--tmax", "1e300", "--steps", "3"],
        ["tls", "--schedule", "ramp", "--t0", "1e-300", "--tmax", "1e10", "--steps", "3"],
        ["tls", "--model", "jcm", "--schedule", "ramp", "--t0", "0.5", "--tmax", "1e10", "--steps", "3",
         "--traj-out", "{tmp}/T.csv", "--omega-t0", "1e300"],
        ["tls", "--beta", "0.5", "--traj-out", "{tmp}/t.csv"],
        # the removed --tol-overrides flag is refused in every spelling
        ["verify", "--tol-overrides", "nope=1e-3"],
        ["verify", "--tol-overrides", "oscillator_thermal"],
        ["verify", "--tol-overrides", "oscillator_thermal=abc"],
        ["oscillator", "--out", "{tmp}/missing/x.csv"],
        ["tls", "--out", "{tmp}/missing/x.csv"],
        ["oscillator", "--out", "{tmp}/x.json"],
        ["tls", "--out", "{tmp}/x.json"],
        ["tls", "--traj-out", "{tmp}/x.csv"],
        ["tls", "--traj-out", "{tmp}/./x.json"],
        ["tls", "--traj-out", "{tmp}/missing/t.csv"],
        ["verify", "--tol-overrides", "oscillator_thermal=inf"],
        ["verify", "--tol-overrides", "oscillator_thermal=nan"],
        ["verify", "--tol-overrides", "oscillator_thermal=0"],
        ["verify", "--tol-overrides", "oscillator_thermal=-1"],
        ["verify", "--out", "{tmp}/missing/r.json"],
        ["verify", "--out", "{tmp}"],
        ["oscillator", "--out", "{tmp}"],
        ["tls", "--out", "{tmp}"],
        ["tls", "--traj-out", "{tmp}"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv):
    def no_suite_may_run(**kwargs):
        raise AssertionError("verify ran its suites before rejecting the input")

    monkeypatch.setattr(verify, "run_all", no_suite_may_run)
    argv = [a.format(tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["oscillator", "tls"])
def test_sidecar_that_is_a_directory_writes_nothing(tmp_path, capsys, command):
    (tmp_path / "a.json").mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path / "a.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("is a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


class TestWriteCsv:
    # Exact ties at the 17th digit (round half to even); 1e17, and 1e-14 and
    # 1e98, doubles just below their power of ten whose 17 digits round up to
    # it; the edges of the %g fixed-point range; tiny and subnormal values.
    HARD = [
        999999999999999.125, 123456789012345.375, 3 * 2.0**-24,
        99999999999999999.0, 1e-14, 1e98,
        1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 1e100,
        1e-300, 2.2250738585072014e-308, 5e-324,
    ]
    SPECIAL = [-0.0, 5e-324, 1e300, 0.1, 0.0, 1.0, -3.0, 42.0, 2.0**53, 1e16] + HARD + [-x for x in HARD]

    @staticmethod
    def reference(header, columns):
        lines = [",".join(header)]
        for i in range(len(columns[0])):
            lines.append(",".join(f"{float(col[i]):.17g}" for col in columns))
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("ncols", [2, 41])
    @pytest.mark.parametrize("offset", ["one", -1, 0, 1])
    def test_byte_identical_to_per_row_writer(self, tmp_path, ncols, offset):
        chunk = cli.CSV_CHUNK_CELLS // ncols
        rows = 1 if offset == "one" else chunk + offset
        rng = np.random.default_rng(rows * ncols)
        values = rng.normal(scale=10.0, size=rows * ncols) ** 3
        values[: len(self.SPECIAL)] = self.SPECIAL[: rows * ncols]
        columns = list(values.reshape(ncols, rows))
        header = ["tau"] + [f"c{i}" for i in range(1, ncols)]
        out = tmp_path / "t.csv"
        cli._write_csv(out, header, columns)
        assert out.read_bytes() == self.reference(header, columns)

    def test_byte_identical_when_every_integer_part_is_below_1000(self, tmp_path):
        # the usual curve cells: one integer word per slot instead of five
        small = [x for x in self.SPECIAL if abs(x) < 1000] + [float("nan"), float("inf"), -float("inf")]
        rng = np.random.default_rng(5)
        values = rng.uniform(-999.9, 999.9, size=3 * 2801) * 10.0 ** rng.integers(-60, 1, size=3 * 2801)
        values[: len(small)] = small
        columns = list(values.reshape(3, -1))
        out = tmp_path / "t.csv"
        cli._write_csv(out, ["a", "b", "c"], columns)
        assert out.read_bytes() == self.reference(["a", "b", "c"], columns)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
        ncols=st.sampled_from([1, 2, 3, 7, 41]),
        offset=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raw_bit_patterns_match_the_reference(self, tmp_path_factory, bits, ncols, offset, seed):
        rows = cli.CSV_CHUNK_CELLS // ncols + offset
        cells = np.random.default_rng(seed).integers(0, 2**64, size=rows * ncols, dtype=np.uint64)
        cells[: len(bits)] = bits[: len(cells)]
        columns = list(cells.view(np.float64).reshape(ncols, rows))
        header = [f"c{i}" for i in range(ncols)]
        out = tmp_path_factory.mktemp("csv") / "t.csv"
        cli._write_csv(out, header, columns)
        assert out.read_bytes() == self.reference(header, columns)


def test_cli_cells_are_canonical_17g_text(tmp_path):
    """Every cell the CLI writes is the '%.17g' spelling of the double it parses to.

    The runs cover exponent tails near 1e-52, the 3.7e-33 ramp plateau,
    negative energies and Bloch components, and tau = 0.
    """
    osc, tls_out, traj = tmp_path / "osc.csv", tmp_path / "tls.csv", tmp_path / "traj.csv"
    common = ["--steps", "2001"]
    assert cli.main(["oscillator", "--metric", "hs", "--states", "number:20", "thermal:3",
                     "--tmax", "120", "--out", str(osc), *common]) == 0
    assert cli.main(["tls", "--model", "jcm", "--schedule", "ramp", "--out", str(tls_out),
                     "--traj-out", str(traj), *common]) == 0
    cells = [cell for path in (osc, tls_out, traj) for line in path.read_text().splitlines()[1:]
             for cell in line.split(",")]
    assert len(cells) == 2001 * (3 + 5 + 7)
    assert [cell for cell in cells if cell != "%.17g" % float(cell)] == []
    assert any(cell.endswith("e-52") for cell in cells)
    assert any(cell.startswith("3.7") and cell.endswith("e-33") for cell in cells)
    assert any(cell.startswith("-") for cell in cells)
    assert cells[0] == "0"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["oscillator", "--gamma", "1e10", "--tmax", "1e300"], ["--tmax", "--gamma"]),
        (["tls", "--schedule", "ramp", "--t0", "1e-300", "--tmax", "1e10"], ["--tmax", "--t0"]),
        (["tls", "--t0", "0.5", "--tmax", "1e10", "--traj-out", "{tmp}/T.csv", "--omega-t0", "1e300"],
         ["--omega-t0"]),
    ],
)
def test_overflowing_window_names_its_flags(tmp_path, capsys, argv, flags):
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--steps", "3", "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "error:" in last and all(flag in last for flag in flags)


@pytest.mark.parametrize("argv", [["--version"], ["tls", "--model", "pair", "--beta", "1", "--steps", "5"]])
def test_fresh_process_runs_cleanly(tmp_path, argv):
    # a fresh interpreter on src, as the benchmark starts the CLI: an import
    # of a deleted module, or a warning at import, shows up here
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    if argv[0] != "--version":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    run = subprocess.run([sys.executable, "-m", "mpemba_qsim.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
