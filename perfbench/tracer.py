"""In-memory spans and counts around pulsesched's public functions.

The tracer wraps functions from the outside by rebinding module and class
attributes, so the program's source stays untouched.  Each wrapped call
records a span (id, parent span, request, name, start, end); a span's self
time is its duration minus the time its child spans cover.  Hooks add
counts at the same boundaries (graph sizes, schedule sizes, stretching).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from collections import Counter
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped function no longer exists, or counts did not repeat."""


class Patches:
    """Rebinds attributes and restores them on undo()."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, path: str, make_wrapper):
        """Replace `module.path` (a function or Class.method) by
        make_wrapper(original), here and wherever another pulsesched module
        imported the same function by name."""
        module = importlib.import_module(f"pulsesched.{module_name}")
        owner, attr = module, path
        if "." in path:
            cls_name, attr = path.split(".", 1)
            owner = getattr(module, cls_name, None)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            raise TraceError(f"pulsesched.{module_name}.{path} no longer exists")
        wrapper = make_wrapper(original)
        self._set(owner, attr, wrapper)
        if owner is module:
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if other is module or not (name == "pulsesched" or name.startswith("pulsesched.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, key, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# count hooks: hook(args, result, pre) -> {count name: increment}


def _gates_in(args, result, pre):
    return {"circuit.gates_in": len(args[0].gates)}


def _gates_out(args, result, pre):
    return {"circuit.gates_out": len(result.gates)}


def _graph_size(args, result, pre):
    return {
        "scheduler.build_graph.nodes": len(result.nodes),
        "scheduler.build_graph.edges": sum(len(s) for s in result.succs),
    }


def _durations(args):
    return [n.duration for n in args[0].nodes]


def _stretching(args, result, pre):
    g = args[0]
    grown = [n.duration - before for n, before in zip(g.nodes, pre) if n.duration > before]
    busy = Counter()
    for n in g.nodes:
        for q in n.gate.qubits:
            busy[q] += n.duration
    makespan = g.makespan
    return {
        "scheduler.stretched_nodes": len(grown),
        "scheduler.slack_absorbed_dt": sum(grown),
        "scheduler.slack_left_dt": sum(makespan - busy[q] for q in range(g.circuit.width)),
    }


def _schedule_size(args, result, pre):
    return {
        "scheduler.create_schedule.placements": len(result.placements),
        "scheduler.create_schedule.frames": len(result.frames),
        "scheduler.create_schedule.waveforms": len(result.waveforms),
    }


def _events(args, result, pre):
    sch = args[1]
    return {"sim.events": len(sch.placements) + len(sch.frames)}


#: (span name, module, function or Class.method, pre-hook, count hook)
TARGETS = (
    ("circuit.parse_circuit", "circuit", "parse_circuit", None, None),
    ("circuit.decompose_static", "circuit", "decompose_static", None, _gates_in),
    ("circuit.decompose_dynamic", "circuit", "decompose_dynamic", None, _gates_in),
    ("circuit.merge_virtual_z", "circuit", "merge_virtual_z", None, _gates_out),
    ("bench.random_clifford_circuit", "bench", "random_clifford_circuit", None, None),
    ("clifford.synthesize_identity", "clifford", "synthesize_identity", None, None),
    ("scheduler.build_graph", "scheduler", "build_graph", None, _graph_size),
    ("scheduler.cpm", "scheduler", "cpm", None, None),
    ("scheduler.optimize_durations", "scheduler", "optimize_durations", _durations, _stretching),
    ("scheduler.update_cpm", "scheduler", "update_cpm", None, None),
    ("scheduler.create_schedule", "scheduler", "create_schedule", None, _schedule_size),
    ("gateset.calibrate_rabi_table", "gateset", "calibrate_rabi_table", None, None),
    ("gateset.fine_tune", "gateset", "fine_tune", None, None),
    ("gateset.GateSet.allowed_durations", "gateset", "GateSet.allowed_durations", None, None),
    ("gateset.GateSet.impl_for", "gateset", "GateSet.impl_for", None, None),
    ("gateset.dynamic_amplitude", "gateset", "dynamic_amplitude", None, None),
    ("pulses.synthesize", "pulses", "synthesize", None, None),
    ("sim.ScheduleSimulator.run", "sim", "ScheduleSimulator.run", None, _events),
    ("sim.apply_local_superop", "sim", "DensityState.apply_local_superop", None, None),
    ("sim.apply_local_unitary", "sim", "DensityState.apply_local_unitary", None, None),
    ("sim.gate_channel", "sim", "gate_channel", None, None),
    ("sim.idle_channel", "sim", "idle_channel", None, None),
    ("sim.ecr_channel", "sim", "ecr_channel", None, None),
    ("sim.propagate_waveform", "sim", "propagate_waveform", None, None),
    ("sim.expm", "sim", "expm", None, None),
    ("sim.simulate_rabi", "sim", "simulate_rabi", None, None),
    ("schedule.Schedule.validate", "schedule", "Schedule.validate", None, None),
    ("schedule.Schedule.events", "schedule", "Schedule.events", None, None),
    ("schedule.Schedule.to_json", "schedule", "Schedule.to_json", None, None),
)


class Tracer:
    """Collects spans and counts while installed; uninstall() restores the program."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches = Patches()

    def install(self):
        try:
            for name, module, path, pre, hook in TARGETS:
                self._patches.wrap(module, path, lambda fn, n=name, p=pre, h=hook: self._wrapper(n, fn, p, h))
        except TraceError:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        self._patches.undo()

    def _wrapper(self, name, fn, pre_hook, hook):
        name_id = len(self.names)
        self.names.append(name)
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            pre = pre_hook(args) if pre_hook else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                spans.append((span_id, parent, self.request, name_id, t0, t1))
            if hook:
                self.counts.update(hook(args, result, pre))
            return result

        traced.__wrapped__ = fn
        return traced

    def deterministic(self) -> dict:
        """Everything but times: call counts and hook counts."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def write_spans(self, path):
        t_ref = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "parent", "request", "name", "start_us", "end_us"],
            "names": self.names,
            "spans": [
                [i, p, r, n, round((t0 - t_ref) * 1e6, 3), round((t1 - t_ref) * 1e6, 3)]
                for i, p, r, n, t0, t1 in sorted(self.spans)
            ],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
