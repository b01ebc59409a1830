"""End-to-end CLI runs with exit-code contract checks."""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG2_TEXT
from pulsesched import bench, gateset
from pulsesched.cli import main
from pulsesched.gateset import DEFAULT_STATIC_DURATIONS, GateSet
from pulsesched.sim import MAX_SIM_QUBITS


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

    @pytest.mark.parametrize(
        "text,pulses",
        [
            ("rx q0 0\n", []),
            ("rx q0 6.283185307179586\n", []),
            ("rx q0 6.0\n", [(24, "rx-0.283185307_q0_d24")]),
        ],
        ids=["zero", "full-turn", "beyond-pi"],
    )
    def test_dynamic_rx_plays_its_minimal_rotation(self, text, pulses, tmp_path):
        # rx theta lowers like u3 theta,-pi/2,pi/2: a multiple of 2*pi plays
        # no pulse, and 6.0 plays the 24 dt pulse of 6.0 - 2*pi
        gs = tmp_path / "dynamic.json"
        GateSet.ideal("dynamic", 1).write_json(gs)
        circuit = tmp_path / "rx.qc"
        circuit.write_text(text)
        out = tmp_path / "sched.json"
        code = main(["schedule", str(circuit), "--gateset", str(gs), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [(e["duration_dt"], e["waveform_id"]) for e in doc["qubits"][0]] == pulses

    @pytest.mark.parametrize("frame", ["pre_frame", "post_frame"])
    def test_huge_gateset_frame_is_config_error(self, frame, tmp_path):
        # such a frame was written as "phase_frame": -Infinity with exit 0
        doc = GateSet.ideal("static", 2).to_json()
        for row in doc["implementations"]:
            row[frame] = 1e308
        gs = tmp_path / "gs.json"
        gs.write_text(json.dumps(doc))
        circuit = tmp_path / "bell.qc"
        circuit.write_text("sx q0\necr q0 q1\nsx q1\nmeasure q0\nmeasure q1\n")
        out = tmp_path / "sched.json"
        assert main(["schedule", str(circuit), "--gateset", str(gs), "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_syntax_is_config_error(self, gateset_json, tmp_path):
        bad = tmp_path / "bad.qc"
        bad.write_text("frobnicate q0\n")
        code = main([
            "schedule", str(bad), "--gateset", gateset_json,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2


def _reject_constant(name):
    raise ValueError(f"schedule JSON holds the non-standard constant {name}")


@pytest.fixture(scope="module")
def ideal_gatesets(tmp_path_factory):
    folder = tmp_path_factory.mktemp("ideal")
    paths = {}
    for mode in ("static", "dynamic"):
        paths[mode] = str(folder / f"{mode}.json")
        GateSet.ideal(mode, 2).write_json(paths[mode])
    return paths


_ANGLES = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_LINES = st.one_of(
    st.sampled_from(["sx q0", "sxdg q1", "ecr q0 q1", "ecr q1 q0", "measure q1", "barrier q0 q1"]),
    st.builds("{} q{} {}".format, st.sampled_from(["rz", "rx"]), st.integers(0, 1), _ANGLES),
    st.builds("u3 q{} {},{},{}".format, st.integers(0, 1), _ANGLES, _ANGLES, _ANGLES),
)


class TestScheduleDocument:
    @settings(max_examples=40, deadline=None)
    @given(lines=st.lists(_LINES, min_size=1, max_size=10), mode=st.sampled_from(["static", "dynamic"]))
    def test_written_file_is_strict_json(self, ideal_gatesets, lines, mode):
        # a written schedule never holds NaN or Infinity, which strict JSON
        # parsers reject; a circuit with a non-finite angle is refused
        with tempfile.TemporaryDirectory() as folder:
            circuit, out = Path(folder) / "c.qc", Path(folder) / "sched.json"
            circuit.write_text("\n".join(lines) + "\n")
            code = main(["schedule", str(circuit), "--gateset", ideal_gatesets[mode], "--out", str(out)])
            assert code in (0, 2)
            if any(w in line for line in lines for w in ("nan", "inf")):
                assert code == 2
            if code == 0:
                doc = json.loads(out.read_text(), parse_constant=_reject_constant)
                assert set(doc) == {
                    "dt_ns", "width", "makespan_dt", "measured_qubits", "qubits", "frames", "waveforms",
                }
            else:
                assert not out.exists()


class TestCalibrateCommand:
    def test_static_small(self, tmp_path):
        out = tmp_path / "gs.json"
        code = main([
            "calibrate", "--mode", "static", "--durations", "64,120",
            "--qubits", "1", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["dt_ns"] == 0.5
        gs = GateSet.from_json(out.read_text())
        assert gs.mode == "static"
        assert {i.duration for i in gs.impls.values()} == {64, 120}

    def test_dynamic(self, tmp_path):
        out = tmp_path / "gs.json"
        code = main([
            "calibrate", "--mode", "dynamic", "--min-dur", "32", "--max-dur", "64",
            "--qubits", "1", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["dt_ns"] == 0.5
        gs = GateSet.from_json(out.read_text())
        assert gs.mode == "dynamic" and 0 in gs.rabi

    def test_dynamic_max_below_shortest_pulse_is_config_error(self, tmp_path):
        code = main([
            "calibrate", "--mode", "dynamic", "--min-dur", "8", "--max-dur", "16",
            "--qubits", "1", "--out", str(tmp_path / "gs.json"),
        ])
        assert code == 2
        assert not (tmp_path / "gs.json").exists()

    def test_static_without_durations_uses_default_menu(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["calibrate", "--mode", "static", "--out", str(out)]) == 0
        gs = GateSet.from_json(out.read_text())
        assert gs.static_durations == DEFAULT_STATIC_DURATIONS
        assert {i.duration for i in gs.impls.values()} == set(DEFAULT_STATIC_DURATIONS)

    @pytest.mark.parametrize("durations", ["", ","])
    def test_static_empty_menu_is_config_error(self, durations, tmp_path, capsys):
        out = tmp_path / "gs.json"
        code = main(["calibrate", "--mode", "static", f"--durations={durations}", "--out", str(out)])
        assert code == 2
        assert "need an entry" in capsys.readouterr().err
        assert not out.exists()

    def test_dynamic_with_durations_is_config_error(self, tmp_path, capsys):
        code = main([
            "calibrate", "--mode", "dynamic", "--durations", "8",
            "--qubits", "1", "--out", str(tmp_path / "gs.json"),
        ])
        assert code == 2
        assert "--durations" in capsys.readouterr().err
        assert not (tmp_path / "gs.json").exists()

    def test_static_bounds_keep_only_playable_rows(self, tmp_path):
        out = tmp_path / "gs.json"
        code = main([
            "calibrate", "--mode", "static", "--min-dur", "64", "--max-dur", "120",
            "--out", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())["implementations"]
        assert sorted(row["duration_dt"] for row in rows) == [64, 120]

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

    def test_times_are_numbers(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert main(["rabi", "--amplitudes", "0.01", "--out", str(out)]) == 0
        with open(out) as fh:
            times = [row["time_ns"] for row in csv.DictReader(fh)]
        assert len(times) > 1
        for cell in times:
            float(cell)


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

    @pytest.mark.parametrize(
        "flags,window",
        [((), (40, 128)), (("--max-dur", "256"), (40, 256)), (("--min-dur", "32", "--max-dur", "64"), (32, 64))],
        ids=["own", "max-flag", "both-flags"],
    )
    def test_loaded_set_keeps_its_bounds_unless_flagged(self, flags, window, tmp_path, monkeypatch):
        seen = []
        run_rb = bench.run_rb

        def recording(cfg, gs, nm):
            seen.append((gs.min_duration, gs.max_duration))
            return run_rb(cfg, gs, nm)

        monkeypatch.setattr(bench, "run_rb", recording)
        gs_path = tmp_path / "gs.json"
        GateSet.ideal("dynamic", 2, min_duration=40, max_duration=128).write_json(gs_path)
        code = main([
            "rb", "--qubits", "2", "--lengths", "1", "--mode", "dynamic", *flags,
            "--shots", "8", "--circuits-per-length", "1", "--gateset", str(gs_path),
            "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 0
        assert seen == [window]

    def test_loaded_static_set_window_needs_no_flags(self, gateset_json, tmp_path):
        # the module gateset is calibrated from 64 dt up, and its own window
        # starts there too
        code = main([
            "rb", "--qubits", "1", "--lengths", "1", "--shots", "8",
            "--circuits-per-length", "1", "--gateset", gateset_json,
            "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 0

    def test_dynamic_max_below_shortest_pulse_overrides_gateset(self, tmp_path):
        # --min-dur/--max-dur replace a loaded set's bounds; the new bounds
        # are checked like the set's own
        gs_path = tmp_path / "gs.json"
        GateSet.ideal("dynamic", 2).write_json(gs_path)
        code = main([
            "rb", "--qubits", "2", "--lengths", "1", "--mode", "dynamic",
            "--min-dur", "8", "--max-dur", "16", "--shots", "8",
            "--circuits-per-length", "1", "--gateset", str(gs_path),
            "--out-dir", str(tmp_path / "rb"),
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

    def test_calibrates_only_playable_durations(self, tmp_path, monkeypatch):
        calls = []
        fine_tune = gateset.fine_tune

        def counting(impl, nm):
            calls.append((impl.qubit, impl.duration))
            return fine_tune(impl, nm)

        monkeypatch.setattr(gateset, "fine_tune", counting)
        code = main([
            "rb", "--qubits", "2", "--lengths", "1", "--min-dur", "32", "--max-dur", "64",
            "--shots", "8", "--circuits-per-length", "1", "--out-dir", str(tmp_path / "rb"),
        ])
        assert code == 0
        assert sorted(calls) == [(q, d) for q in (0, 1) for d in (32, 48, 64)]

    @pytest.mark.parametrize(
        "flags, blamed",
        [
            (("--qubits", str(MAX_SIM_QUBITS + 1)), f"supports 1-{MAX_SIM_QUBITS} qubits"),
            (("--qubits", "1", "--min-dur", "600"), "min_duration exceeds max_duration"),
        ],
        ids=["qubit-count", "min-above-menu"],
    )
    def test_bad_input_without_gateset_config_error(self, flags, blamed, tmp_path, capsys):
        code = main(["rb", *flags, "--lengths", "1", "--out-dir", str(tmp_path / "rb")])
        assert code == 2
        assert blamed in capsys.readouterr().err


class TestBadInputs:
    """Every unreadable or malformed input file ends as exit 2, never as a traceback."""

    @staticmethod
    def rb(gateset, tmp_path, *extra):
        return main([
            "rb", "--qubits", "1", "--lengths", "1", "--min-dur", "64",
            "--shots", "8", "--circuits-per-length", "1", "--gateset", gateset,
            *extra, "--out-dir", str(tmp_path / "rb"),
        ])

    @pytest.mark.parametrize("name", ["nope.json", "."], ids=["missing", "directory"])
    def test_unreadable_gateset(self, name, tmp_path):
        assert self.rb(str(tmp_path / name), tmp_path) == 2

    def test_gateset_row_without_sigma(self, gateset_json, tmp_path):
        with open(gateset_json) as fh:
            doc = json.load(fh)
        del doc["implementations"][0]["sigma"]
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc))
        assert self.rb(str(path), tmp_path) == 2

    @pytest.mark.parametrize("command", ["schedule", "rb"])
    def test_gateset_not_an_object(self, command, fig2_file, tmp_path):
        path = tmp_path / "gs.json"
        path.write_text("[1, 2]")
        if command == "rb":
            code = self.rb(str(path), tmp_path)
        else:
            code = main([
                "schedule", fig2_file, "--gateset", str(path),
                "--out", str(tmp_path / "x.json"),
            ])
        assert code == 2

    @pytest.mark.parametrize(
        "noise", ["[1, 2]", '{"t1_ns": "abc"}', '{"t1": 5e4}', '{"t1_ns": true, "t2_ns": null}',
                  '{"ecr_fidelity": true}', '{"anharmonicity_hz": [true]}', '{"rabi_coefficient_hz": "1e8"}',
                  '{"anharmonicity_hz": 1e308}', '{"rabi_coefficient_hz": 1e308}'],
        ids=["not-an-object", "not-a-number", "unknown-key", "t1-bool", "fidelity-bool", "alpha-bool-list",
             "rabi-string", "alpha-overflows-h", "rabi-overflows-h"],
    )
    def test_bad_noise_file(self, noise, gateset_json, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(noise)
        assert self.rb(gateset_json, tmp_path, "--noise", str(path)) == 2
        assert not (tmp_path / "rb" / "rbresult.csv").exists()

    def test_idle_phase_overflow_is_a_simulation_error(self, gateset_json, tmp_path):
        # H_k holds 2*pi*alpha, but alpha times a long idle overflows the phase
        path = tmp_path / "noise.json"
        path.write_text('{"anharmonicity_hz": 1e307}')
        code = main(["rb", "--qubits", "2", "--lengths", "3", "--min-dur", "64", "--shots", "8",
                     "--circuits-per-length", "1", "--gateset", gateset_json, "--noise", str(path),
                     "--out-dir", str(tmp_path / "rb")])
        assert code == 3
        assert not (tmp_path / "rb" / "rbresult.csv").exists()

    def test_schedule_on_uncalibrated_qubit(self, tmp_path):
        # a circuit that names a qubit the gate set never calibrated is
        # refused before any per-qubit state is built, and nothing is written
        gs, circuit = tmp_path / "gs.json", tmp_path / "c.qc"
        GateSet.ideal("static", 2).write_json(gs)
        circuit.write_text("sx q0\nmeasure q7\n")
        code = main(["schedule", str(circuit), "--gateset", str(gs), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert not (tmp_path / "x.json").exists()

    def test_gate_set_mode_must_match(self, gateset_json, tmp_path):
        assert self.rb(gateset_json, tmp_path, "--mode", "dynamic", "--max-dur", "128") == 2

    @pytest.mark.parametrize("command", ["schedule", "rb"])
    def test_gateset_with_another_sample_time(self, command, gateset_json, fig2_file, tmp_path):
        # every duration counts samples of the one backend sample time; a
        # file written for another one would play wrong rotations
        with open(gateset_json) as fh:
            doc = json.load(fh)
        doc["dt_ns"] = 0.25
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc))
        if command == "rb":
            code = self.rb(str(path), tmp_path)
        else:
            code = main([
                "schedule", fig2_file, "--gateset", str(path),
                "--out", str(tmp_path / "x.json"),
            ])
        assert code == 2

    def test_negative_rb_seed(self, gateset_json, tmp_path):
        assert self.rb(gateset_json, tmp_path, "--seed=-1") == 2

    @pytest.mark.parametrize("durations", ["8", "0", "-32"])
    def test_static_duration_below_shortest_pulse(self, durations, tmp_path):
        code = main([
            "calibrate", "--mode", "static", f"--durations={durations}",
            "--out", str(tmp_path / "gs.json"),
        ])
        assert code == 2
        assert not (tmp_path / "gs.json").exists()

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_calibrate_min_duration_not_positive(self, mode, tmp_path):
        durations = ["--durations", "32,64"] if mode == "static" else []
        code = main([
            "calibrate", "--mode", mode, *durations, "--min-dur=-64", "--max-dur", "64",
            "--out", str(tmp_path / "gs.json"),
        ])
        assert code == 2
        assert not (tmp_path / "gs.json").exists()

    def test_rb_min_duration_not_positive(self, tmp_path):
        # a gate set covering the whole static menu, so only the bound is wrong
        path = tmp_path / "gs.json"
        GateSet.ideal("static", 1).write_json(path)
        assert self.rb(str(path), tmp_path, "--min-dur=-64") == 2

    @pytest.mark.parametrize("qubits", ["0", "-2"])
    def test_calibrate_without_qubits(self, qubits, tmp_path):
        code = main([
            "calibrate", "--mode", "dynamic", f"--qubits={qubits}",
            "--out", str(tmp_path / "gs.json"),
        ])
        assert code == 2
        assert not (tmp_path / "gs.json").exists()

    @pytest.mark.parametrize("window", ["0", "-50"])
    def test_rabi_window_not_positive(self, window, tmp_path):
        code = main([
            "rabi", "--amplitudes", "0.01", f"--window={window}",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("noise", [None, '{"t1_ns": [180e3, 90e3]}'], ids=["scalar", "per-qubit"])
    def test_rabi_negative_qubit(self, noise, tmp_path):
        extra = []
        if noise is not None:
            path = tmp_path / "noise.json"
            path.write_text(noise)
            extra = ["--noise", str(path)]
        code = main([
            "rabi", "--amplitudes", "0.01", "--qubit=-1", *extra,
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ecr_duration", -5),
            ("ecr_duration", 0),
            ("ecr_duration", 1.5),
            ("measure_duration", -3),
            ("static_durations", [32.5, 64]),
            ("min_duration", 40.5),
            ("ecr_duration", True),
            ("measure_duration", False),
            ("min_duration", True),
        ],
        ids=["ecr-negative", "ecr-zero", "ecr-fractional", "measure-negative", "static-fractional",
             "min-fractional", "ecr-bool", "measure-bool", "min-bool"],
    )
    def test_gateset_bad_durations(self, key, value, fig2_file, tmp_path, capsys):
        doc = GateSet.ideal("static", 2).to_json()
        doc[key] = value
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc))
        code = main(["schedule", fig2_file, "--gateset", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert key.split("_")[0] in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma", math.inf),
            ("sigma", math.nan),
            ("pre_frame", math.nan),
            ("pre_frame", math.inf),
            ("post_frame", math.nan),
            ("post_frame", math.inf),
            ("amplitude", 1.5),
            ("fidelity", math.nan),
            ("fidelity", True),
            ("sigma", 1e-200),
        ],
    )
    def test_gateset_bad_implementation_values(self, key, value, fig2_file, tmp_path, capsys):
        # schedule no longer samples the pulses, so loading the set checks them
        doc = GateSet.ideal("static", 2).to_json()
        for row in doc["implementations"]:
            row[key] = value
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc))
        code = main(["schedule", fig2_file, "--gateset", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_gateset_duplicate_row(self, fig2_file, tmp_path, capsys):
        doc = GateSet.ideal("static", 2).to_json()
        doc["implementations"].append(dict(doc["implementations"][0], amplitude=0.1))
        path = tmp_path / "gs.json"
        path.write_text(json.dumps(doc))
        code = main(["schedule", fig2_file, "--gateset", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "two sx rows" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("line", ["rz q0 nan", "u3 q1 inf,0,0"])
    def test_non_finite_angle(self, line, gateset_json, tmp_path, capsys):
        circuit = tmp_path / "c.qc"
        circuit.write_text(f"sx q0\necr q0 q1\n{line}\n")
        code = main(["schedule", str(circuit), "--gateset", gateset_json, "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "line 3: angle list" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "noise, blamed",
        [
            ('{"t2_ns": -1}', "T2=-1.0 ns"),
            ('{"t1_ns": 0}', "T1=0.0 ns"),
            ('{"t1_ns": [180e3, -1]}', "qubit 1: T1=-1.0 ns"),
            ('{"rabi_coefficient_hz": 0}', "Rabi coefficient"),
            ('{"rabi_coefficient_hz": -1e8}', "Rabi coefficient"),
            ('{"rabi_coefficient_hz": Infinity}', "Rabi coefficient"),
            ('{"anharmonicity_hz": null}', "anharmonicity"),
            ('{"anharmonicity_hz": NaN}', "anharmonicity"),
        ],
        ids=["t2-negative", "t1-zero", "t1-negative-on-q1", "rabi-zero", "rabi-negative",
             "rabi-infinite", "alpha-null", "alpha-nan"],
    )
    def test_rabi_bad_noise_values(self, noise, blamed, tmp_path, capsys):
        path = tmp_path / "noise.json"
        path.write_text(noise)
        code = main([
            "rabi", "--amplitudes", "0.01", "--noise", str(path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert blamed in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("amplitudes", ["nan", "inf", "2.0", "0.01,-1.5"])
    def test_rabi_amplitude_out_of_range(self, amplitudes, tmp_path):
        code = main([
            "rabi", f"--amplitudes={amplitudes}", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert not (tmp_path / "r.csv").exists()


class TestUnwritableOutputs:
    """An output path the command cannot write ends as exit 2, never as a traceback."""

    @staticmethod
    def blocked(tmp_path):
        """A directory path under a regular file: nothing can be created there."""
        (tmp_path / "file").write_text("")
        return tmp_path / "file" / "sub"

    def test_schedule_out(self, fig2_file, gateset_json, tmp_path, capsys):
        out = tmp_path / "missing" / "s.json"
        assert main(["schedule", fig2_file, "--gateset", gateset_json, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_schedule_dot(self, fig2_file, gateset_json, tmp_path, capsys):
        code = main([
            "schedule", fig2_file, "--gateset", gateset_json,
            "--out", str(tmp_path / "s.json"), "--dot", str(tmp_path / "missing" / "g.dot"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_calibrate_out(self, tmp_path, capsys):
        code = main([
            "calibrate", "--mode", "dynamic", "--min-dur", "32", "--max-dur", "64",
            "--out", str(tmp_path / "missing" / "x.json"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_rabi_out(self, tmp_path, capsys):
        code = main(["rabi", "--amplitudes", "0.01", "--out", str(tmp_path / "missing" / "r.csv")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_rb_out_dir_fails_before_simulating(self, gateset_json, tmp_path, monkeypatch, capsys):
        from pulsesched import bench

        def never(*args, **kwargs):
            raise AssertionError("run_rb ran although its output directory cannot be made")

        monkeypatch.setattr(bench, "run_rb", never)
        code = main([
            "rb", "--qubits", "1", "--lengths", "1", "--min-dur", "64",
            "--gateset", gateset_json, "--out-dir", str(self.blocked(tmp_path)),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err
