"""End-to-end CLI runs with exit-code contract checks."""

import csv
import json

import pytest

from conftest import FIG2_TEXT
from pulsesched.cli import main
from pulsesched.gateset import GateSet


@pytest.fixture(scope="module")
def gateset_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("gs") / "gateset.json"
    GateSet.ideal("static", 3, min_duration=64).write_json(path)
    return str(path)


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "fig2.qc"
    path.write_text(FIG2_TEXT)
    return str(path)


class TestScheduleCommand:
    def test_schedule_optimized(self, fig2_file, gateset_json, tmp_path, capsys):
        out = tmp_path / "sched.json"
        dot = tmp_path / "graph.dot"
        code = main([
            "schedule", fig2_file, "--gateset", gateset_json,
            "--out", str(out), "--dot", str(dot),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["width"] == 2
        q1_durations = sorted(e["duration_dt"] for e in doc["qubits"][1] if e["duration_dt"] != 1320)
        assert q1_durations == [120, 120]  # both idle gates stretched 64 -> 120
        assert dot.read_text().startswith("digraph")
        assert "makespan" in capsys.readouterr().out

    def test_schedule_no_optimize(self, fig2_file, gateset_json, tmp_path):
        out = tmp_path / "sched.json"
        code = main([
            "schedule", fig2_file, "--gateset", gateset_json,
            "--no-optimize", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        q1_durations = [e["duration_dt"] for e in doc["qubits"][1] if e["duration_dt"] != 1320]
        assert q1_durations == [64, 64]

    def test_missing_circuit_is_config_error(self, gateset_json, tmp_path):
        code = main([
            "schedule", str(tmp_path / "nope.qc"), "--gateset", gateset_json,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("text", ["u3 q0 0.2,0,0\n", "rx q0 0.01\n"], ids=["u3", "rx"])
    def test_small_dynamic_rotation_gets_shortest_pulse(self, text, tmp_path):
        # |theta| <= pi/4 scales the dynamic window below sigma's 17.36 dt
        # domain; the menu is floored at 24 dt instead
        gs = tmp_path / "dynamic.json"
        GateSet.ideal("dynamic", 1).write_json(gs)
        circuit = tmp_path / "small.qc"
        circuit.write_text(text)
        out = tmp_path / "sched.json"
        code = main(["schedule", str(circuit), "--gateset", str(gs), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [e["duration_dt"] for e in doc["qubits"][0]] == [24]

    def test_bad_syntax_is_config_error(self, gateset_json, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("frobnicate q0\n")
        code = main([
            "schedule", str(bad), "--gateset", gateset_json,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2


class TestCalibrateCommand:
    def test_static_small(self, tmp_path):
        out = tmp_path / "gs.json"
        code = main([
            "calibrate", "--mode", "static", "--durations", "64,120",
            "--qubits", "1", "--out", str(out),
        ])
        assert code == 0
        gs = GateSet.load(out)
        assert gs.mode == "static"
        assert {i.duration for i in gs.impls.values()} == {64, 120}

    def test_dynamic(self, tmp_path):
        out = tmp_path / "gs.json"
        code = main([
            "calibrate", "--mode", "dynamic", "--min-dur", "32", "--max-dur", "64",
            "--qubits", "1", "--out", str(out),
        ])
        assert code == 0
        gs = GateSet.load(out)
        assert gs.mode == "dynamic" and 0 in gs.rabi

    def test_static_without_durations_is_config_error(self, tmp_path):
        code = main(["calibrate", "--mode", "static", "--out", str(tmp_path / "g.json")])
        assert code == 2

    def test_unphysical_noise_is_config_error(self, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t1_ns": 1000.0, "t2_ns": 5000.0}))
        code = main([
            "calibrate", "--mode", "dynamic", "--qubits", "1",
            "--noise", str(noise), "--out", str(tmp_path / "g.json"),
        ])
        assert code == 2

    @pytest.mark.filterwarnings("ignore::pulsesched.errors.ExtrapolationWarning")
    def test_infeasible_calibration_is_simulation_error(self, tmp_path):
        # a drive this weak cannot reach pi/2 in 64 dt: amplitude > 1
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"rabi_coefficient_hz": 1e6}))
        code = main([
            "calibrate", "--mode", "static", "--durations", "64",
            "--qubits", "1", "--noise", str(noise), "--out", str(tmp_path / "g.json"),
        ])
        assert code == 3


class TestRabiCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "rabi.csv"
        code = main(["rabi", "--amplitudes", "0.01,0.02", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["amplitude", "time_ns", "p0"]
        assert {r[0] for r in rows[1:]} == {"0.01", "0.02"}

    def test_empty_amplitudes_config_error(self, tmp_path):
        assert main(["rabi", "--amplitudes", "", "--out", str(tmp_path / "r.csv")]) == 2


class TestRBCommand:
    def test_small_run_outputs(self, gateset_json, tmp_path, capsys):
        out_dir = tmp_path / "rb"
        code = main([
            "rb", "--qubits", "2", "--lengths", "1,3", "--mode", "static",
            "--min-dur", "64", "--max-dur", "512", "--shots", "64", "--seed", "5",
            "--circuits-per-length", "2", "--gateset", gateset_json,
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        for name in ("rbresult.csv", "durations.csv", "timescale.csv"):
            assert (out_dir / name).exists()
        assert "paired latencies equal: True" in capsys.readouterr().out

    def test_uncovered_window_is_config_error(self, gateset_json, tmp_path):
        # the module gateset is calibrated from 64 dt up; requesting 32 fails
        code = main([
            "rb", "--qubits", "2", "--lengths", "1", "--min-dur", "32",
            "--gateset", gateset_json, "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 2

    def test_short_noise_list_is_config_error(self, tmp_path):
        gs_path = tmp_path / "gs.json"
        GateSet.ideal("dynamic", 2).write_json(gs_path)
        noise = tmp_path / "noise.json"
        noise.write_text(json.dumps({"t1_ns": [180e3]}))
        code = main([
            "rb", "--qubits", "2", "--lengths", "1", "--mode", "dynamic",
            "--min-dur", "32", "--max-dur", "128", "--shots", "8",
            "--circuits-per-length", "1", "--gateset", str(gs_path),
            "--noise", str(noise), "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 2

    def test_bad_qubit_count_config_error(self, tmp_path):
        code = main([
            "rb", "--qubits", "5", "--lengths", "1", "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 2
