#!/usr/bin/env python3
"""The pulsesched benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload rb-static --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (one client, one request at a time):

* rb-static     calibrate a static 3-qubit gate set, then the paper's paired
                fixed/optimized RB suite, one `rb` call per (qubits,
                min-dur, length);
* rb-dynamic    the same suite on a dynamic gate set;
* compile-large `schedule` on 30 seeded 5-qubit circuit files.

The program is built from `src/` next to this directory and driven in
process through `pulsesched.cli.main`.  Units of work repeat until
--seconds of requests have run.  Every timed request runs between two
speed probes, and its wall time is scaled to the probe's nominal speed, so
co-tenants on a shared machine do not move the figures.  Each output is
checked outside its request's timer.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of one set-up plus unit 0, traced twice,
whose counts must repeat exactly.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import os

# one BLAS thread: the program multiplies 9x9 to 729x729 matrices, where
# extra threads only add run-to-run spread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import harness
from harness import Tally
from tracer import Patches, TraceError, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("rb-static", "rb-dynamic", "compile-large")

RB_QUBITS = 3
RB_LENGTHS = {2: (1, 41, 81, 121, 161), 3: (1, 3, 5, 7)}
RB_CIRCUITS = 10
RB_SHOTS = 1024
#: every unit of work runs at least this often
MIN_REPEATS = 2
#: set-up repeats before every unit and after the last, for at least this long
#: each time, so it runs at least MIN_REPEATS + 1 times
SETUP_BURST_S = 0.5

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("circuits_per_s", "1/s", "higher"),
    ("gates_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = (
    "circuit.parse_circuit", "circuit.decompose_static", "circuit.decompose_dynamic",
    "circuit.merge_virtual_z", "bench.random_clifford_circuit", "clifford.synthesize_identity",
    "scheduler.build_graph", "scheduler.cpm", "scheduler.optimize_durations",
    "scheduler.update_cpm", "scheduler.create_schedule", "gateset.calibrate_rabi_table",
    "gateset.fine_tune", "gateset.dynamic_amplitude", "pulses.synthesize",
    "sim.ScheduleSimulator.run", "sim.propagate_waveform", "sim.expm", "sim.simulate_rabi",
    "schedule.Schedule.validate", "schedule.Schedule.events", "schedule.Schedule.to_json",
)
#: per-layer metric -> the span whose calls it counts
_CALL_COUNTS = {
    "gateset.GateSet.allowed_durations.calls": "gateset.GateSet.allowed_durations",
    "gateset.GateSet.impl_for.calls": "gateset.GateSet.impl_for",
    "sim.contractions": "sim.apply_local_superop",
    "sim.frame_contractions": "sim.apply_local_unitary",
    "sim.pulse_cache_misses": "sim.gate_channel",
    "sim.idle_cache_misses": "sim.idle_channel",
    "sim.ecr_cache_misses": "sim.ecr_channel",
}
_HOOK_COUNTS = (
    ("circuit.gates_in", "count", "lower"),
    ("circuit.gates_out", "count", "lower"),
    ("scheduler.build_graph.nodes", "count", "lower"),
    ("scheduler.build_graph.edges", "count", "lower"),
    ("scheduler.create_schedule.placements", "count", "lower"),
    ("scheduler.create_schedule.frames", "count", "lower"),
    ("scheduler.create_schedule.waveforms", "count", "lower"),
    ("scheduler.stretched_nodes", "count", "higher"),
    ("scheduler.slack_absorbed_dt", "dt", "higher"),
    ("scheduler.slack_left_dt", "dt", "lower"),
    ("sim.events", "count", "lower"),
)
PER_LAYER = (
    tuple((f"{t}.{kind}", unit, "lower") for t in _TIMED
          for kind, unit in (("s", "s"), ("self_s", "s"), ("calls", "count")))
    + tuple((name, "count", "lower") for name in _CALL_COUNTS)
    + (("sim.contraction.s", "s", "lower"),)
    + _HOOK_COUNTS
    + (
        ("rb.p0_optimized_mean", "prob", "higher"),
        ("rb.p0_lengths_below_fixed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    )
)


# ---------------------------------------------------------------------------
# the program under test


def import_cli():
    """pulsesched.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "pulsesched" / "cli.py").is_file():
        print(f"error: no pulsesched sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from pulsesched import cli

    if Path(cli.__file__).resolve().parent != SRC / "pulsesched":
        print(f"error: imported pulsesched from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pulsesched").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Call:
    """One timed request and what its checked output held."""

    seconds: float  # scaled wall time, as are the latencies
    circuits: int
    gates: int
    latencies: list[float]  # per circuit
    scale: float = 1.0
    p0: dict = field(default_factory=dict)  # RB: policy -> mean P(0)


class Program:
    """Calls `pulsesched.cli.main` in process and records each outcome."""

    def __init__(self, cli, tally: Tally):
        self.cli = cli
        self.tally = tally
        self.tracer: Tracer | None = None
        self.requests = 0
        #: off while tracing, where probes would land inside spans
        self.probing = True

    def probe(self) -> float:
        """The speed probe's seconds now, or its nominal time when not probing."""
        return harness.speed_probe() if self.probing else harness.PROBE_NOMINAL_S

    def call(self, argv: list[str], timed: bool = False) -> tuple[object, str, str, float, float]:
        """(exit code, stdout, stderr, wall seconds, scale); an uncaught
        exception is a failure.  A timed call runs between two speed probes
        and its scale brings its times to the probe's nominal speed."""
        before = self.probe() if timed else None
        if self.tracer:
            self.tracer.request = self.requests
        self.requests += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "uncaught exception"
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        scale = 2 * harness.PROBE_NOMINAL_S / (before + self.probe()) if timed else 1.0
        return code, out.getvalue(), err.getvalue(), seconds, scale

    def record(self, op: str, code, stderr: str, problems: list[str]) -> bool:
        if code != 0:
            problems = harness.check_exit(code) + [stderr.strip()[-400:]] + problems
        return self.tally.record(op, problems)


class RBWatch:
    """Observes `run_rb` from outside.  A circuit runs from its
    `random_clifford_circuit` call to the next one, the last ending when
    `run_rb` returns; that covers generating, scheduling and simulating it
    under both policies.  A speed probe runs at each boundary, outside the
    circuits' times, and scales each circuit by the probes around it.  The
    watch also keeps each simulated circuit's sampled-count total, which
    rbresult.csv does not carry."""

    def __init__(self, prog: Program, patches: Patches):
        self.prog = prog
        self.reset()
        self._open: tuple[float, float] | None = None  # (start, probe) of the running circuit
        patches.wrap("bench", "run_rb", self._wrap_run_rb)
        patches.wrap("bench", "random_clifford_circuit", self._wrap_generate)

    def reset(self):
        self.circuit_s: list[float] = []  # scaled
        self.scales: list[float] = []
        self.count_totals: list[int] = []

    def _boundary(self, last: bool):
        end = perf_counter()
        probe = self.prog.probe()
        if self._open:
            start, before = self._open
            self.scales.append(2 * harness.PROBE_NOMINAL_S / (before + probe))
            self.circuit_s.append((end - start) * self.scales[-1])
        self._open = None if last else (perf_counter(), probe)

    def _wrap_generate(self, generate):
        def watched(*args, **kwargs):
            self._boundary(last=False)
            return generate(*args, **kwargs)

        return watched

    def _wrap_run_rb(self, run_rb):
        def watched(*args, **kwargs):
            self._open = None
            result = run_rb(*args, **kwargs)
            self._boundary(last=True)
            self.count_totals += [sum(r.counts.values()) for r in result.rows]
            return result

        return watched


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class RBSuite:
    mode: str
    calibrate: tuple[str, ...]
    min_durations: tuple[int, ...]
    max_duration: int


RB_SUITES = {
    "rb-static": RBSuite(
        "static", ("--mode", "static", "--durations", "32,48,64,120,256,512"), (32, 64), 512
    ),
    "rb-dynamic": RBSuite(
        "dynamic", ("--mode", "dynamic", "--min-dur", "32", "--max-dur", "128"), (32,), 128
    ),
}


class Repeats:
    """The program is deterministic: a repeated request must reproduce the
    output of its first run."""

    def __init__(self):
        self._first: dict = {}

    def check(self, key, output, what: str) -> list[str]:
        first = self._first.setdefault(key, output)
        return [] if first == output else [f"a repeat changed {what}"]

    def check_file(self, key, path: Path) -> list[str]:
        try:
            return self.check(key, hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
        except OSError as exc:
            return [f"no output: {exc}"]


class RBWorkload:
    """Set-up: `calibrate`.  Unit k: one pass over the suite, one `rb` call
    per (qubits, min-dur, length).  Program seeds come from (seed, qubits,
    min-dur, length), so every pass repeats the same requests."""

    def __init__(self, suite: RBSuite, prog: Program, workdir: Path, seed: int, watch: RBWatch):
        self.suite, self.prog, self.workdir, self.seed = suite, prog, workdir, seed
        self.watch = watch
        self.gateset = workdir / "gateset.json"
        self.repeats = Repeats()

    def setup(self) -> float:
        argv = ["calibrate", *self.suite.calibrate, "--qubits", str(RB_QUBITS), "--out", str(self.gateset)]
        code, _, err, seconds, _ = self.prog.call(argv)
        self.prog.record("calibrate", code, err, self.repeats.check_file("set-up", self.gateset) if code == 0 else [])
        return seconds

    def run_unit(self, k: int) -> list[Call]:
        return [
            self._rb(k, n, min_dur, length)
            for n, lengths in RB_LENGTHS.items()
            for min_dur in self.suite.min_durations
            for length in lengths
        ]

    def _rb(self, k, n, min_dur, length) -> Call:
        key = (n, min_dur, length)
        out = self.workdir / f"rb-u{k}-q{n}-m{min_dur}-L{length}"
        argv = [
            "rb", "--gateset", str(self.gateset), "--mode", self.suite.mode,
            "--qubits", str(n), "--lengths", str(length),
            "--min-dur", str(min_dur), "--max-dur", str(self.suite.max_duration),
            "--circuits-per-length", str(RB_CIRCUITS), "--shots", str(RB_SHOTS),
            "--seed", str(harness.derive_seed(self.seed, *key)),
            "--out-dir", str(out),
        ]
        self.watch.reset()
        code, _, err, _, _ = self.prog.call(argv)
        call = Call(seconds=sum(self.watch.circuit_s), circuits=RB_CIRCUITS, gates=0,
                    latencies=self.watch.circuit_s, scale=statistics.fmean(self.watch.scales or [1.0]))
        problems = []
        if code == 0:
            try:
                rows = harness.read_rbresult(out / "rbresult.csv")
                call.gates = harness.count_pulses(out / "durations.csv")
            except (OSError, KeyError, ValueError) as exc:
                rows, problems = [], [f"unreadable output: {exc}"]
            problems += harness.check_rbresult(rows, (length,), RB_CIRCUITS, RB_SHOTS)
            problems += harness.check_counts(self.watch.count_totals, RB_SHOTS)
            if len(self.watch.count_totals) != 2 * RB_CIRCUITS:
                problems.append(f"{len(self.watch.count_totals)} simulated circuits, expected {2 * RB_CIRCUITS}")
            call.p0 = harness.p0_means(rows).get(length, {})
            problems += self.repeats.check(key, call.p0, "mean P(0)")
        self.prog.record(f"rb q{n} min{min_dur} L{length} unit {k}", code, err, problems)
        shutil.rmtree(out, ignore_errors=True)
        return call


class CompileWorkload:
    """Set-up: write GateSet.ideal("static", 5).  Unit k: one round of
    `schedule` over the seed's COMPILE_FILES circuit files.  The first
    round checks each output against a --no-optimize run; later rounds
    must reproduce the first round's output byte for byte."""

    def __init__(self, prog: Program, workdir: Path, seed: int):
        self.prog, self.workdir, self.seed = prog, workdir, seed
        self.gateset = workdir / "gateset.json"
        self.circuits = []
        for j, size in enumerate(harness.compile_sizes(seed)):
            path = workdir / f"circuit-{j}.txt"
            path.write_text(harness.compile_circuit_text(seed, j, size))
            self.circuits.append(path)
        self.repeats = Repeats()

    def setup(self) -> float:
        from pulsesched.gateset import GateSet

        problems = []
        t0 = perf_counter()
        try:
            GateSet.ideal("static", harness.COMPILE_QUBITS).write_json(self.gateset)
        except Exception:
            problems.append(traceback.format_exc(limit=2))
        seconds = perf_counter() - t0
        self.prog.record("write gate set", 0, "", problems or self.repeats.check_file("set-up", self.gateset))
        return seconds

    def run_unit(self, k: int) -> list[Call]:
        return [self._schedule(k, j) for j in range(len(self.circuits))]

    def _schedule(self, k: int, j: int) -> Call:
        optimized, fixed = self.workdir / "optimized.json", self.workdir / "fixed.json"
        base = ["schedule", str(self.circuits[j]), "--gateset", str(self.gateset), "--out"]
        code, stdout, err, seconds, scale = self.prog.call(base + [str(optimized)], timed=True)
        call = Call(seconds=seconds * scale, circuits=1, gates=0, latencies=[seconds * scale], scale=scale)
        problems = []
        if code == 0:
            match = re.search(r"scheduled (\d+) gates", stdout)
            if match:
                call.gates = int(match.group(1))
            else:
                problems.append(f"unexpected output {stdout!r}")
            problems += self.repeats.check_file(j, optimized)
            if k == 0:
                problems += self._check_against_fixed(optimized, base + [str(fixed), "--no-optimize"], fixed)
        self.prog.record(f"schedule file {j} round {k}", code, err, problems)
        optimized.unlink(missing_ok=True)
        fixed.unlink(missing_ok=True)
        return call

    def _check_against_fixed(self, optimized: Path, fixed_argv: list[str], fixed: Path) -> list[str]:
        code, _, err, _, _ = self.prog.call(fixed_argv)
        if code != 0:
            return harness.check_exit(code) + [f"--no-optimize: {err.strip()[-400:]}"]
        try:
            doc_opt, doc_fixed = json.loads(optimized.read_text()), json.loads(fixed.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable schedule: {exc}"]
        return harness.check_schedule_doc(doc_opt) + harness.check_same_makespan(doc_opt, doc_fixed)


def make_workload(name: str, prog: Program, workdir: Path, seed: int, patches: Patches):
    if name in RB_SUITES:
        return RBWorkload(RB_SUITES[name], prog, workdir, seed, RBWatch(prog, patches))
    return CompileWorkload(prog, workdir, seed)


# ---------------------------------------------------------------------------
# measuring


def p0_summary(calls: list[Call]) -> tuple[float, int]:
    """(mean optimized P(0), rows where optimized < fixed) over (config, length)."""
    rows = [c.p0 for c in calls if c.p0]
    if not rows:
        return 0.0, 0
    mean = sum(by["optimized"] for by in rows) / len(rows)
    below = sum(1 for by in rows if by["optimized"] < by["fixed"])
    return mean, below


def measure(w, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced set-ups and repeated units of work."""
    setups: list[float] = []

    def set_up():
        # set-ups are spread over the run, before every unit and after the
        # last, and each burst is scaled by the speed probes around it
        before, burst = harness.speed_probe(), []
        while sum(burst) < SETUP_BURST_S:
            burst.append(w.setup())
        scale = 2 * harness.PROBE_NOMINAL_S / (before + harness.speed_probe())
        setups.extend(t * scale for t in burst)

    units: list[list[Call]] = []
    busy = 0.0
    while busy < seconds or len(units) < MIN_REPEATS:
        set_up()
        units.append(w.run_unit(len(units)))
        busy += sum(c.seconds / c.scale for c in units[-1])
    set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = [c for unit in units for c in unit]
    scaled_s = sum(c.seconds for c in calls)
    # latency samples come from the first MIN_REPEATS units only, so their
    # count and the tail's percentile do not depend on the machine's speed
    times = [t for unit in units[:MIN_REPEATS] for c in unit for t in c.latencies]
    tail_pct, tail = harness.tail_percentile(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "circuits_per_s": sum(c.circuits for c in calls) / scaled_s,
        "gates_per_s": sum(c.gates for c in calls) / scaled_s,
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    p0_mean, p0_below = p0_summary(units[0])
    extra = {
        "setup_samples_s": setups,
        "repeats": len(units),
        "requests_per_repeat": len(units[0]),
        "measured_wall_s": busy,
        "scales": sorted(c.scale for unit in units for c in unit),
        "latency_samples": len(times),
        "latency_tail_percentile": tail_pct,
        "latency_samples_ms": [t * 1e3 for t in times],
        "p0_optimized_mean": p0_mean,
        "p0_lengths_below_fixed": p0_below,
    }
    return metrics, extra


def traced_unit(w, prog: Program, tracer: Tracer | None) -> tuple[float, list[Call]]:
    """One set-up plus unit 0; returns wall seconds and unit 0's calls."""
    prog.tracer = tracer
    if tracer:
        tracer.install()
    t0 = perf_counter()
    try:
        w.setup()
        calls = w.run_unit(0)
    finally:
        elapsed = perf_counter() - t0
        if tracer:
            tracer.uninstall()
        prog.tracer = None
    return elapsed, calls


def layer_metrics(w, prog: Program, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: after a warm-up set-up the unit runs untraced
    once, then traced twice."""
    prog.probing = False
    w.setup()
    plain_s, _ = traced_unit(w, prog, None)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        elapsed, calls = traced_unit(w, prog, tracer)
        runs.append((tracer, elapsed, calls))
    (a, a_s, a_calls), (b, b_s, _) = runs
    counts_a, counts_b = a.deterministic(), b.deterministic()
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k))
                for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k)}
        raise TraceError(f"per-layer counts did not repeat between two traced runs: {diff}")
    a.write_spans(spans_path)
    m = {}
    for name in _TIMED:
        m[f"{name}.s"] = (a.total_s[name] + b.total_s[name]) / 2
        m[f"{name}.self_s"] = (a.self_s[name] + b.self_s[name]) / 2
        m[f"{name}.calls"] = a.calls[name]
    for metric, span in _CALL_COUNTS.items():
        m[metric] = a.calls[span]
    m["sim.contraction.s"] = sum(
        (t.total_s["sim.apply_local_superop"] + t.total_s["sim.apply_local_unitary"]) / 2 for t in (a, b)
    )
    for name, _, _ in _HOOK_COUNTS:
        m[name] = a.counts[name]
    m["rb.p0_optimized_mean"], m["rb.p0_lengths_below_fixed"] = p0_summary(a_calls)
    traced_s = (a_s + b_s) / 2
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return m, {"untraced_unit_s": plain_s, "traced_unit_s": [a_s, b_s], "spans": len(a.spans),
               "spans_file": str(spans_path.relative_to(ROOT))}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    prog = Program(cli, tally)
    patches = Patches()
    try:
        w = make_workload(name, prog, workdir, seed, patches)
        if trace:
            values, extra = layer_metrics(w, prog, OUT / f"spans_{name}_seed{seed}.json.gz")
            table = PER_LAYER
        else:
            values, extra = measure(w, seconds)
            table = END_TO_END
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        patches.undo()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in table}
    extra["failed_frac"] = tally.failed_frac
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": {**harness.environment(ROOT), "src_sha256": source_digest()},
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:50], "metrics": metrics, "extra": extra,
    }
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(f"# {name} seed {seed} trace {int(trace)}: {tally.attempted} operations, {tally.failed} failed")
    for problem in tally.problems[:20]:
        print(f"#   FAILED {problem}")
    for n, m in metrics.items():
        print(f"{n:42s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted})")
    for key in ("latency_tail_percentile", "latency_samples", "repeats", "p0_optimized_mean", "p0_lengths_below_fixed",
                "untraced_unit_s", "traced_unit_s"):
        if key in extra:
            print(f"{key:42s} {extra[key]}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
