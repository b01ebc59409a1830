"""Dependency-graph construction, the Critical Path Method, and latency-neutral
duration optimization.

``lower`` and ``run_framework`` are the one compile-to-schedule pipeline:
lower a circuit into the gate set's basis, build its dependency graph at
minimum durations, run CPM, stretch off-critical-path gates, and place the
pulses.  Every caller (the CLI, the RB harness) goes through them.

The dependency graph's node order is program order, and every edge points
from an earlier node to a later one, so node order is its topological order:
CPM sweeps nodes forward by index and back in reverse, with no sort.

All times are integer dt counts; comparisons are exact.  The optimizer
stretches off-critical-path gates into idle slack without moving the overall
makespan.  ``run_framework``'s ``float`` picks the policy: ``None`` keeps
every gate at its minimum duration (the fixed baseline), otherwise one of
two CPM float policies applies:

- ``"total"`` float (the default, the paper's fixed point): repeatedly take the
  non-critical gate with the highest rotation-to-duration ratio and step its
  duration to the next allowed value whenever the stretched gate still
  finishes by its late-finish time LF.  A stretch may push successors later.
- ``"free"`` float: each gate grows, independently, to the longest allowed
  duration that still finishes by the earliest start of its successors (the
  makespan at a sink), so no start time moves.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field

from . import circuit as circ
from .errors import ConfigError, MalformedGraphError
from .gateset import STATIC, GateSet
from .schedule import FrameShift, PulsePlacement, Schedule

#: float policies of optimize_durations
TOTAL_FLOAT = "total"
FREE_FLOAT = "free"


@dataclass
class DepNode:
    """One scheduled physical operation with its CPM times (dt units)."""

    index: int
    gate: circ.Gate
    duration: int
    rotation: float
    es: int = 0
    ef: int = 0
    ls: int = 0
    lf: int = 0

    @property
    def slack(self) -> int:
        return self.lf - self.ef


@dataclass
class DepGraph:
    """Activity-on-node DAG: one node per physical gate, edges follow qubit order.

    Invariant: nodes are in program order and every edge (u, v) has u < v, so
    index order is a topological order.  ``cpm`` rejects a back edge.
    """

    circuit: circ.Circuit
    nodes: list[DepNode] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)
    node_of_gate: dict[int, int] = field(default_factory=dict)

    def edges(self):
        for u, outs in enumerate(self.succs):
            for v in outs:
                yield (u, v)

    @property
    def makespan(self) -> int:
        return max((n.ef for n in self.nodes), default=0)


def build_graph(c: circ.Circuit, initial_durations) -> DepGraph:
    """Wire each physical gate to the previous gate on every operand qubit.

    ``initial_durations`` maps gate id to dt.  Virtual Rz gates stay out of
    the graph (they are zero-duration frame shifts); barriers become
    zero-duration nodes so they still order their qubits.
    """
    g = DepGraph(circuit=c)
    last: dict[int, int] = {}
    for gate in c.gates:
        if gate.kind == circ.RZ:
            continue
        if gate.kind == circ.U3:
            raise MalformedGraphError("decompose u3 gates before scheduling")
        idx = len(g.nodes)
        duration = int(initial_durations[gate.id])
        g.nodes.append(
            DepNode(
                index=idx,
                gate=gate,
                duration=duration,
                rotation=circ.pulse_rotation(gate),
            )
        )
        g.succs.append([])
        g.preds.append([])
        g.node_of_gate[gate.id] = idx
        for q in gate.qubits:
            if q in last:
                u = last[q]
                if idx not in g.succs[u]:
                    g.succs[u].append(idx)
                    g.preds[idx].append(u)
            last[q] = idx
    return g


def initial_durations(c: circ.Circuit, s: GateSet) -> dict[int, int]:
    """Minimum allowed duration for every physical gate in the circuit."""
    return {
        gate.id: s.durations_for(gate)[0]
        for gate in c.gates
        if gate.kind != circ.RZ
    }


def cpm(g: DepGraph) -> int:
    """Forward pass in node order, backward pass in reverse; returns the makespan.

    ES is the largest predecessor EF (0 at sources); LF is the smallest
    successor LS (makespan at sinks).  A back edge, the only way a cycle can
    enter a graph in node order, raises ``MalformedGraphError``.
    """
    for i, n in enumerate(g.nodes):
        if any(p >= i for p in g.preds[i]):
            raise MalformedGraphError(f"dependency graph has a back edge into node {i}")
        n.es = max((g.nodes[p].ef for p in g.preds[i]), default=0)
        n.ef = n.es + n.duration
    makespan = g.makespan
    for i in range(len(g.nodes) - 1, -1, -1):
        n = g.nodes[i]
        n.lf = min((g.nodes[s].ls for s in g.succs[i]), default=makespan)
        n.ls = n.lf - n.duration
    return makespan


def critical_path(g: DepGraph) -> set[int]:
    """Node indices with zero slack (ES = LS, equivalently EF = LF)."""
    return {n.index for n in g.nodes if n.es == n.ls}


def update_cpm(g: DepGraph, changed: DepNode):
    """Re-propagate times after one node's duration grew.

    Sweeps node order forward from the changed node raising successor ES/EF,
    then backward lowering predecessor LF/LS.  Because durations only ever
    grow, these monotone relaxations reproduce a full forward/backward
    recomputation exactly.
    """
    nodes, succs, preds = g.nodes, g.succs, g.preds
    for u in range(changed.index, len(nodes)):
        nu = nodes[u]
        for s in succs[u]:
            ns = nodes[s]
            if nu.ef > ns.es:
                ns.es = nu.ef
                ns.ef = ns.es + ns.duration
    for u in range(changed.index, -1, -1):
        nu = nodes[u]
        for p in preds[u]:
            np_ = nodes[p]
            if nu.ls < np_.lf:
                np_.lf = nu.ls
                np_.ls = np_.lf - np_.duration
    return None


def optimize_durations(g: DepGraph, s: GateSet, float: str = TOTAL_FLOAT):
    """Stretch off-critical-path gates into their float; the makespan is unchanged.

    ``float="total"`` (default): every node with slack and a longer allowed
    duration is enqueued at priority rotation/duration.  A dequeued node steps
    to the next duration on its menu when it still finishes by LF; it
    re-enters the queue until it reaches the end of its menu.  Stretches
    propagate, so successors may start later than their ES at minimum
    durations.

    ``float="free"``: every node takes the longest allowed duration that
    finishes by its free-float limit, min(successor ES) or the makespan at a
    sink.  No ES moves, so every gate starts when it would at minimum
    durations; one final CPM pass refreshes LS/LF.

    Critical-path nodes keep their minimum durations under both policies.
    """
    if float == FREE_FLOAT:
        _stretch_into_free_float(g, s)
        return
    if float != TOTAL_FLOAT:
        raise ConfigError(f"unknown float policy {float!r}")
    menus: dict[int, tuple[int, ...]] = {}
    queue: list[tuple[float, int]] = []
    for n in g.nodes:
        if n.slack > 0:
            menu = s.durations_for(n.gate)
            if menu[-1] > n.duration:
                menus[n.index] = menu
                heapq.heappush(queue, (-n.rotation / n.duration if n.duration else 0.0, n.index))
    while queue:
        _, idx = heapq.heappop(queue)
        n, menu = g.nodes[idx], menus[idx]
        d = menu[bisect_right(menu, n.duration)]
        if n.es + d <= n.lf:
            n.duration = d
            n.ef = n.es + d
            n.ls = n.lf - d
            update_cpm(g, n)
            if d < menu[-1]:
                heapq.heappush(queue, (-n.rotation / d, idx))


def _stretch_into_free_float(g: DepGraph, s: GateSet):
    makespan = g.makespan
    for n in g.nodes:
        limit = min((g.nodes[v].es for v in g.succs[n.index]), default=makespan)
        window = limit - n.es
        if window <= n.duration:
            continue
        fits = [d for d in s.durations_for(n.gate) if n.duration < d <= window]
        if fits:
            n.duration = fits[-1]
            n.ef = n.es + n.duration
    cpm(g)


def create_schedule(g: DepGraph, s: GateSet) -> Schedule:
    """Place every node's waveform at its early-start time.

    Virtual Rz gates become frame shifts pinned to the start of the next
    physical gate on their qubit (or the end of the previous one when they
    trail the program); the recorded per-pulse phase_frame is the cumulative
    phase a hardware backend would add to that pulse, i.e. minus the summed
    Rz angles so far.
    """
    placements: list[PulsePlacement] = []
    frames: list[FrameShift] = []
    waveforms = {}
    frame_sum = {q: 0.0 for q in range(g.circuit.width)}
    pending_rz: dict[int, list[tuple[int, float]]] = {q: [] for q in range(g.circuit.width)}
    last_end = {q: 0 for q in range(g.circuit.width)}
    measured = []

    for gate in g.circuit.gates:
        if gate.kind == circ.RZ:
            pending_rz[gate.qubits[0]].append((gate.id, gate.angles[0]))
            continue
        node = g.nodes[g.node_of_gate[gate.id]]
        for q in gate.qubits:
            for gid, angle in pending_rz[q]:
                frames.append(FrameShift(qubit=q, time=node.es, angle=angle, seq=gid))
                frame_sum[q] -= angle
            pending_rz[q] = []
        if gate.kind == circ.MEASURE:
            measured.append(gate.qubits[0])
        if gate.kind in (circ.MEASURE, circ.BARRIER):
            for q in gate.qubits:
                last_end[q] = max(last_end[q], node.ef)
            continue
        impl = s.impl_for_gate(gate, node.duration)
        wid = impl.waveform_id()
        if wid not in waveforms:
            waveforms[wid] = impl.waveform(s.dt_ns)
        if impl.pre_frame:
            q = gate.qubits[0]
            frames.append(FrameShift(qubit=q, time=node.es, angle=impl.pre_frame, seq=gate.id))
            frame_sum[q] -= impl.pre_frame
        placements.append(
            PulsePlacement(
                qubits=gate.qubits,
                start=node.es,
                duration=node.duration,
                kind=gate.kind,
                angle=impl.angle,
                waveform_id=wid,
                phase_frames=tuple(frame_sum[q] for q in gate.qubits),
                seq=gate.id,
            )
        )
        if impl.post_frame:
            q = gate.qubits[0]
            frames.append(FrameShift(qubit=q, time=node.ef, angle=impl.post_frame, seq=gate.id))
            frame_sum[q] -= impl.post_frame
        for q in gate.qubits:
            last_end[q] = node.ef

    for q, entries in pending_rz.items():
        for gid, angle in entries:
            frames.append(FrameShift(qubit=q, time=last_end[q], angle=angle, seq=gid))
            frame_sum[q] -= angle

    return Schedule(
        width=g.circuit.width,
        makespan=g.makespan,
        placements=placements,
        frames=frames,
        waveforms=waveforms,
        dt_ns=s.dt_ns,
        measured_qubits=tuple(sorted(set(measured))) or tuple(range(g.circuit.width)),
    )


def lower(c: circ.Circuit, s: GateSet) -> circ.Circuit:
    """Decompose U3 gates for the gate set's mode and fuse adjacent virtual Rz."""
    lowered = circ.decompose_static(c) if s.mode == STATIC else circ.decompose_dynamic(c)
    return circ.merge_virtual_z(lowered)


def run_framework(
    c: circ.Circuit, s: GateSet, float: str | None = TOTAL_FLOAT
) -> tuple[DepGraph, Schedule]:
    """Build the dependency graph of a lowered circuit at minimum durations,
    run CPM, stretch off-critical-path gates under the ``float`` policy, and
    emit the pulse schedule; returns (graph, schedule).

    The schedule's makespan always equals the minimum-duration makespan;
    ``float=None`` skips stretching and gives the fixed-duration baseline.
    """
    g = build_graph(c, initial_durations(c, s))
    before = cpm(g)
    if float is not None:
        optimize_durations(g, s, float)
        assert g.makespan == before, "latency invariance violated"
    return g, create_schedule(g, s)


def graph_to_dot(g: DepGraph) -> str:
    """Graphviz view; node label is "id:ES/EF/LS/LF", critical path in red."""
    lines = ["digraph depgraph {"]
    crit = critical_path(g)
    for n in g.nodes:
        color = ' color="red"' if n.index in crit else ""
        lines.append(
            f'  n{n.index} [label="{n.index}:{n.es}/{n.ef}/{n.ls}/{n.lf} '
            f'{n.gate.kind}"{color}];'
        )
    for u, v in g.edges():
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
