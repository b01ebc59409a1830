"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from tracer import Patches, TraceError, Tracer  # noqa: E402


# -- tail percentile --------------------------------------------------------


@pytest.mark.parametrize("n, pct, rank", [(11, 100 / 11, 0), (20, 50.0, 9), (100, 90.0, 89), (36, 100 * 26 / 36, 25)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, rank):
    samples = [float(i) for i in range(n)][::-1]
    got_pct, value = harness.tail_percentile(samples)
    assert got_pct == pytest.approx(pct)
    assert value == sorted(samples)[rank]
    assert sum(1 for s in samples if s > value) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(range(10))


# -- failure counting -------------------------------------------------------


def test_tally_counts_failed_operations():
    t = harness.Tally()
    assert t.record("a", [])
    assert not t.record("b", ["bad", "worse"])
    assert t.record("c", [])
    assert (t.attempted, t.failed) == (3, 1)
    assert t.failed_frac == pytest.approx(1 / 3)
    assert t.problems == ["b: bad", "b: worse"]


class _FakeCli:
    def __init__(self, outcome):
        self.outcome = outcome

    def main(self, argv):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome", [0, 2, 3, SystemExit(2), RuntimeError("boom")])
def test_program_counts_nonzero_exit_and_exceptions(outcome):
    tally = harness.Tally()
    prog = run.Program(_FakeCli(outcome), tally)
    code, _, _, seconds, _ = prog.call(["schedule"])
    assert seconds >= 0
    prog.record("op", code, "stderr text", [])
    assert tally.failed == (0 if outcome == 0 else 1)
    assert tally.attempted == 1


# -- RB output checks -------------------------------------------------------


def _rb_rows(lengths=(1, 41), circuits=2, shots=1024):
    rows = []
    for length in lengths:
        for c in range(circuits):
            for policy, p0 in (("fixed", 0.9), ("optimized", 0.91)):
                rows.append({"length": str(length), "policy": policy, "circuit": str(c), "p0": repr(p0),
                             "latency_dt": str(1000 + length), "latency_ns": "0", "shots": str(shots)})
    return rows


def _roundtrip(rows):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]))
    w.writeheader()
    w.writerows(rows)
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def test_rbresult_check_accepts_valid_csv():
    assert harness.check_rbresult(_roundtrip(_rb_rows()), (1, 41), 2, 1024) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[1].update(latency_dt="999"),  # unequal paired latency
        lambda rows: rows[0].update(p0="1.5"),  # P(0) outside [0, 1]
        lambda rows: rows[2].update(shots="1000"),  # wrong shots
        lambda rows: rows.pop(3),  # missing optimized row
        lambda rows: rows[0].update(p0="nan-ish"),  # unreadable
    ],
)
def test_rbresult_check_rejects_corrupted_csv(corrupt):
    rows = _rb_rows()
    corrupt(rows)
    assert harness.check_rbresult(_roundtrip(rows), (1, 41), 2, 1024)


def test_counts_check():
    assert harness.check_counts([1024, 1024], 1024) == []
    assert harness.check_counts([1024, 1023], 1024) == ["counts sum to 1023, expected 1024"]


def test_p0_means_per_length_and_policy():
    means = harness.p0_means(_roundtrip(_rb_rows()))
    assert means[41] == {"fixed": pytest.approx(0.9), "optimized": pytest.approx(0.91)}


# -- schedule output checks -------------------------------------------------


def _schedule(placements_q0, makespan=100):
    return {
        "makespan_dt": makespan,
        "qubits": [
            [{"start_dt": s, "duration_dt": d, "waveform_id": f"w{i}"} for i, (s, d) in enumerate(placements_q0)],
            [],
        ],
    }


def test_schedule_check_accepts_valid_schedule():
    assert harness.check_schedule_doc(_schedule([(0, 32), (32, 48), (90, 10)])) == []


@pytest.mark.parametrize(
    "placements, makespan",
    [([(0, 32), (31, 48)], 100), ([(0, 32), (80, 32)], 100), ([(10, 64), (0, 5), (20, 1)], 100)],
)
def test_schedule_check_rejects_overlap_or_overrun(placements, makespan):
    assert harness.check_schedule_doc(_schedule(placements, makespan))


def test_schedule_check_rejects_missing_fields():
    assert harness.check_schedule_doc({"qubits": []})


def test_makespan_check():
    assert harness.check_same_makespan({"makespan_dt": 5}, {"makespan_dt": 5}) == []
    assert harness.check_same_makespan({"makespan_dt": 5}, {"makespan_dt": 6})


# -- inputs -----------------------------------------------------------------


def test_compile_circuits_are_seeded_and_parse():
    from pulsesched.circuit import parse_circuit

    a = harness.compile_circuit_text(7, 0, 500)
    assert a == harness.compile_circuit_text(7, 0, 500)
    assert a != harness.compile_circuit_text(7, 1, 500)
    assert a != harness.compile_circuit_text(8, 0, 500)
    c = parse_circuit(a)
    assert len(c.gates) == 500 + harness.COMPILE_QUBITS
    assert c.width == harness.COMPILE_QUBITS
    assert {g.kind for g in c.gates} == {"u3", "rz", "ecr", "measure"}


def test_compile_sizes_cover_the_range_alike_for_every_seed():
    lo, hi = harness.COMPILE_GATES
    for seed in range(5):
        sizes = harness.compile_sizes(seed)
        assert sizes == harness.compile_sizes(seed)
        assert len(sizes) == harness.COMPILE_FILES and lo <= min(sizes) and max(sizes) < hi
        assert abs(sum(sizes) / len(sizes) - (lo + hi) / 2) <= (hi - lo) / harness.COMPILE_FILES
    assert harness.compile_sizes(0) != harness.compile_sizes(1)


def test_derived_seeds_are_stable_and_distinct():
    assert harness.derive_seed(1, 0, 2) == harness.derive_seed(1, 0, 2)
    assert len({harness.derive_seed(1, k, 2) for k in range(50)}) == 50


# -- tracer -----------------------------------------------------------------


def test_patches_restore_and_fail_loudly_on_missing_function():
    from pulsesched import cli, scheduler

    original = scheduler.build_graph
    patches = Patches()
    patches.wrap("scheduler", "build_graph", lambda fn: lambda *a, **k: fn(*a, **k))
    assert scheduler.build_graph is not original
    assert cli.build_graph is scheduler.build_graph
    patches.undo()
    assert scheduler.build_graph is original and cli.build_graph is original
    with pytest.raises(TraceError):
        Patches().wrap("scheduler", "no_such_function", lambda fn: fn)
    with pytest.raises(TraceError):
        Patches().wrap("sim", "DensityState.no_such_method", lambda fn: fn)


def test_self_time_excludes_child_spans():
    import time

    tracer = Tracer()
    inner = tracer._wrapper("inner", lambda: time.sleep(0.02), None, None)
    outer = tracer._wrapper("outer", lambda: (time.sleep(0.01), inner(), inner()), None, None)
    outer()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert 0.005 < tracer.self_s["outer"] < 0.03
    (i1, p1, *_), (i2, p2, *_), (o, po, *_) = tracer.spans
    assert p1 == p2 == o and po == -1


def test_tracer_installs_every_target_and_uninstalls():
    from pulsesched import sim

    before = sim.DensityState.apply_local_superop
    tracer = Tracer().install()
    try:
        assert sim.DensityState.apply_local_superop is not before
        assert len(tracer.names) == len(__import__("tracer").TARGETS)
    finally:
        tracer.uninstall()
    assert sim.DensityState.apply_local_superop is before


# -- BENCHMARK.json agrees with the harness ---------------------------------


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# -- repeats, scaling and measuring -----------------------------------------


def test_repeats_flag_changed_output(tmp_path):
    r = run.Repeats()
    assert r.check("k", {"fixed": 0.5}, "P(0)") == r.check("k", {"fixed": 0.5}, "P(0)") == []
    assert r.check("k", {"fixed": 0.6}, "P(0)") == ["a repeat changed P(0)"]
    f = tmp_path / "s.json"
    f.write_text("a")
    assert r.check_file("f", f) == []
    f.write_text("b")
    assert r.check_file("f", f) == ["a repeat changed s.json"]
    assert r.check_file("g", tmp_path / "missing.json")


def _call(seconds, latencies):
    return run.Call(seconds=seconds, circuits=len(latencies), gates=10 * len(latencies), latencies=latencies)


def test_speed_probe_measures_a_few_milliseconds():
    assert 1e-4 < run.harness.speed_probe() < 0.1


def test_timed_calls_scale_by_the_speed_probe(monkeypatch):
    probes = iter([0.004, 0.002])
    monkeypatch.setattr(run.harness, "speed_probe", lambda: next(probes))
    prog = run.Program(_FakeCli(0), harness.Tally())
    *_, scale = prog.call(["rb"], timed=True)
    assert scale == pytest.approx(2 * harness.PROBE_NOMINAL_S / 0.006)
    assert prog.call(["rb"])[-1] == 1.0


class _FakeWorkload:
    def __init__(self):
        self.setups = 0

    def setup(self):
        self.setups += 1
        return 0.3

    def run_unit(self, k):
        slow = 2.0 if k == 1 else 1.0
        return [_call(0.1 * slow, [0.01 * (i + 1) * slow] * 2) for i in range(12)]


def test_measure_repeats_units_and_spreads_set_ups(monkeypatch):
    monkeypatch.setattr(run.harness, "speed_probe", lambda: run.harness.PROBE_NOMINAL_S)
    w = _FakeWorkload()
    metrics, extra = run.measure(w, seconds=3.7)
    assert extra["repeats"] == 3
    assert w.setups == 2 * (extra["repeats"] + 1)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert metrics["circuits_per_s"] == pytest.approx(72 / 4.8)
    assert metrics["gates_per_s"] == pytest.approx(720 / 4.8)
    # latencies from the first two units only
    samples = sorted(0.01 * (i + 1) * slow for slow in (1, 2) for i in range(12) for _ in range(2))
    assert extra["latency_samples"] == len(samples) == 48
    assert metrics["latency_p50_ms"] == pytest.approx(1e3 * (samples[23] + samples[24]) / 2)
    assert metrics["latency_tail_ms"] == pytest.approx(1e3 * samples[48 - 11])
