"""Dependency-graph construction, the Critical Path Method, and latency-neutral
duration optimization.

``lower`` and ``run_framework`` are the one compile-to-schedule pipeline:
lower a circuit into the gate set's basis, then run three stages on it.
``minimum_duration_graph`` builds the dependency graph at minimum durations
and runs CPM, ``optimize_durations`` stretches off-critical-path gates
without moving the makespan, and ``create_schedule`` places the pulses.
The CLI calls ``run_framework``; the RB harness calls the stages itself, so
that both of its arms come from one graph: it places the FIXED schedule
before stretching, and after free-float stretching ``stretched_schedule``
derives the OPTIMIZED one from it, placing again only the nodes that grew.

The dependency graph's node order is program order, and every edge points
from an earlier node to a later one, so node order is its topological order:
CPM sweeps nodes forward by index and back in reverse, with no sort.  Total
float stretches the queued gates that share the top priority as one tier:
one forward relaxation decides them in index order and one backward
relaxation, seeded by the gates that grew, refreshes LF/LS.  Both pop from
an index heap only the nodes whose times may move, so a tier costs about one
visit per moved node instead of one per moved node per stretch.

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

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from heapq import heapify, heappop, heappush

from . import circuit as circ
from .errors import ConfigError, MalformedGraphError
from .gateset import STATIC, GateSet
from .schedule import FrameShift, PulsePlacement, Schedule

#: float policies of optimize_durations
TOTAL_FLOAT = "total"
FREE_FLOAT = "free"


@dataclass(slots=True)
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

    Invariant: one node per non-Rz gate of ``circuit``, in program order, and
    every edge (u, v) has u < v, so index order is a topological order.
    ``cpm`` rejects a back edge; ``create_schedule`` relies on the order.
    """

    circuit: circ.Circuit
    nodes: list[DepNode] = field(default_factory=list)
    succs: list[list[int]] = field(default_factory=list)
    preds: list[list[int]] = field(default_factory=list)

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
    _forward_sweep(g)
    return _backward_sweep(g)


def _forward_sweep(g: DepGraph):
    nodes = g.nodes
    for i, (n, ps) in enumerate(zip(nodes, g.preds)):
        es = 0
        for p in ps:
            if p >= i:
                raise MalformedGraphError(f"dependency graph has a back edge into node {i}")
            ef = nodes[p].ef
            if ef > es:
                es = ef
        n.es = es
        n.ef = es + n.duration


def _backward_sweep(g: DepGraph) -> int:
    nodes, succs = g.nodes, g.succs
    makespan = g.makespan
    for i in range(len(nodes) - 1, -1, -1):
        n = nodes[i]
        lf = makespan
        for v in succs[i]:
            ls = nodes[v].ls
            if ls < lf:
                lf = ls
        n.lf = lf
        n.ls = lf - n.duration
    return makespan


def critical_path(g: DepGraph) -> set[int]:
    """Node indices with zero slack (ES = LS, equivalently EF = LF)."""
    return {n.index for n in g.nodes if n.es == n.ls}


def update_cpm(g: DepGraph, changed: DepNode):
    """Re-propagate times after one node's duration grew.

    The caller has already set the changed node's own EF and LS; the node
    must still finish by its LF, so the makespan holds.  A node that
    finishes past its LF, or whose EF is not ES plus its duration or LS not
    LF minus it, raises ``MalformedGraphError``.  The times are relaxed from
    that one node as ``_relax`` does for a tier of stretches, so the result
    equals a full CPM pass.
    """
    n = changed
    if n.ef > n.lf or n.ef != n.es + n.duration or n.ls != n.lf - n.duration:
        raise MalformedGraphError(
            f"node {n.index} at {n.duration} dt (ES {n.es}, EF {n.ef}, LS {n.ls}) must finish "
            f"by its LF {n.lf}, at ES plus its duration, and start at LF minus it"
        )
    _relax(g, {changed.index: changed.duration})


def _relax(g: DepGraph, steps: dict[int, int | None]) -> list[int]:
    """Try each node of ``steps``, keyed in index order, at its new duration,
    and relax the CPM times that moves; returns the nodes that grew, in order.

    Forward, a min-heap of node indices starts at the step nodes.  Each
    popped node raises its successors' ES/EF, and a successor whose ES rose
    joins the heap once (and ``steps`` at None, which marks it queued).
    Edges point to higher indices, so a node's ES is final when it is
    popped: a step node then takes its new duration when that still
    finishes by its LF.  A node's LF depends only on its descendants, none
    of which has moved yet, so each step is judged as if the lower-indexed
    ones had been taken and propagated one at a time.  Backward, a max-heap
    seeded by the nodes that grew lowers its predecessors' LF/LS the same
    way.  Durations only grow, so the result equals a full CPM pass.
    """
    nodes, succs, preds = g.nodes, g.succs, g.preds
    heap = list(steps)
    grown, back = [], []
    while heap:
        u = heappop(heap)
        n = nodes[u]
        d = steps[u]
        if d is not None and n.es + d <= n.lf:
            n.duration = d
            n.ef = n.es + d
            n.ls = n.lf - d
            grown.append(u)
            back.append(-u)
        ef = n.ef
        for v in succs[u]:
            nv = nodes[v]
            if ef > nv.es:
                nv.es = ef
                nv.ef = ef + nv.duration
                if v not in steps:
                    steps[v] = None
                    heappush(heap, v)
    back.reverse()  # negated indices, ascending: a heap that pops the highest index first
    heap, queued = back, set(grown)
    while heap:
        u = -heappop(heap)
        ls = nodes[u].ls
        for p in preds[u]:
            np_ = nodes[p]
            if ls < np_.lf:
                np_.lf = ls
                np_.ls = ls - np_.duration
                if p not in queued:
                    queued.add(p)
                    heappush(heap, -p)
    return grown


def optimize_durations(g: DepGraph, s: GateSet, float: str = TOTAL_FLOAT):
    """Stretch off-critical-path gates into their float; the makespan is unchanged.

    ``float="total"`` (default): every node with slack and a longer allowed
    duration is enqueued at priority rotation/duration.  The queue drains a
    tier at a time, every entry at the top priority together: in index
    order, each node steps to the next duration on its menu when it still
    finishes by LF, and one relaxation propagates the whole tier.  A node
    that stepped re-enters the queue, at a lower priority, until it reaches
    the end of its menu.  The outcome is that of taking the entries one at
    a time in (priority, index) order.  Stretches propagate, so successors
    may start later than their ES at minimum durations.

    ``float="free"``: every node takes the longest allowed duration that
    finishes by its free-float limit, min(successor ES) or the makespan at a
    sink.  No ES moves, so every gate starts when it would at minimum
    durations; one final backward sweep refreshes LS/LF.

    Critical-path nodes keep their minimum durations under both policies.
    The graph must hold CPM times on entry; its makespan is asserted
    unchanged on exit.
    """
    before = g.makespan
    if float == FREE_FLOAT:
        _stretch_into_free_float(g, s)
    elif float == TOTAL_FLOAT:
        _stretch_into_total_float(g, s)
    else:
        raise ConfigError(f"unknown float policy {float!r}")
    assert g.makespan == before, "latency invariance violated"


def _stretch_into_total_float(g: DepGraph, s: GateSet):
    nodes = g.nodes
    menus: dict[int, tuple[int, ...]] = {}
    queue: list[tuple[float, int]] = []
    for n in nodes:
        if n.slack > 0:
            menu = s.durations_for(n.gate)
            if menu[-1] > n.duration:
                menus[n.index] = menu
                queue.append((-n.rotation / n.duration if n.duration else 0.0, n.index))
    heapify(queue)
    while queue:
        # every entry at the top priority is one tier; a re-queued node's
        # priority is strictly lower (its rotation is positive), so it
        # joins a later tier
        top, idx = heappop(queue)
        steps = {}
        while True:
            n, menu = nodes[idx], menus[idx]
            d = menu[bisect_right(menu, n.duration)]
            if n.es + d <= n.lf:  # ES only rises in a tier: a step too long now stays too long
                steps[idx] = d
            if not queue or queue[0][0] != top:
                break
            idx = heappop(queue)[1]
        if steps:
            for idx in _relax(g, steps):
                n = nodes[idx]
                if n.duration < menus[idx][-1]:
                    heappush(queue, (-n.rotation / n.duration, idx))


def _stretch_into_free_float(g: DepGraph, s: GateSet):
    nodes, succs = g.nodes, g.succs
    makespan = g.makespan
    for n, outs in zip(nodes, succs):
        limit = makespan
        for v in outs:
            es = nodes[v].es
            if es < limit:
                limit = es
        window = limit - n.es
        if window <= n.duration:
            continue
        menu = s.durations_for(n.gate)
        i = bisect_right(menu, window)
        if i and menu[i - 1] > n.duration:
            n.duration = menu[i - 1]
            n.ef = n.es + n.duration
    _backward_sweep(g)


def create_schedule(g: DepGraph, s: GateSet) -> Schedule:
    """Place every node's pulse at its early-start time.

    The n-th node is the circuit's n-th non-Rz gate (the graph's invariant).
    Each placement carries its implementation's ``ShapeSpec`` as its shape
    (nothing is sampled here) and its calibration pre/post frames, and
    virtual Rz gates become frame shifts pinned to the start of the next
    physical gate on their qubit (or the end of the previous one when they
    trail the program).
    """
    placements: list[PulsePlacement] = []
    frames: list[FrameShift] = []
    pending_rz: dict[int, list[circ.Gate]] = {q: [] for q in range(g.circuit.width)}
    last_end = {q: 0 for q in range(g.circuit.width)}
    measured = []
    nodes = iter(g.nodes)

    for gate in g.circuit.gates:
        if gate.kind == circ.RZ:
            pending_rz[gate.qubits[0]].append(gate)
            continue
        node = next(nodes)
        for q in gate.qubits:
            frames += [FrameShift(q, node.es, rz.angles[0], rz.id) for rz in pending_rz[q]]
            pending_rz[q] = []
        if gate.kind == circ.MEASURE:
            measured.append(gate.qubits[0])
        if gate.kind in (circ.MEASURE, circ.BARRIER):
            for q in gate.qubits:
                last_end[q] = max(last_end[q], node.ef)
            continue
        placements.append(_place(node, s))
        for q in gate.qubits:
            last_end[q] = node.ef

    for q, rzs in pending_rz.items():
        frames += [FrameShift(q, last_end[q], rz.angles[0], rz.id) for rz in rzs]

    return Schedule(
        width=g.circuit.width,
        makespan=g.makespan,
        placements=placements,
        frames=frames,
        measured_qubits=tuple(sorted(set(measured))) or tuple(range(g.circuit.width)),
    )


def _place(node: DepNode, s: GateSet) -> PulsePlacement:
    """A pulse node's placement at its early start, playing its implementation's shape."""
    gate = node.gate
    impl = s.impl_for_gate(gate, node.duration)
    return PulsePlacement(
        qubits=gate.qubits,
        start=node.es,
        kind=gate.kind,
        angle=impl.angle,
        waveform_id=impl.waveform_id(),
        shape=impl.shape,
        seq=gate.id,
        pre_frame=impl.pre_frame,
        post_frame=impl.post_frame,
    )


def stretched_schedule(fixed: Schedule, g: DepGraph, s: GateSet) -> Schedule:
    """``create_schedule`` of a graph stretched into free float, built from
    ``fixed``, the schedule ``create_schedule`` placed from it before.

    Free float moves no early start, so the two schedules share every frame
    shift, every ECR and every placement whose node kept its duration; only
    stretched nodes are placed again, each with its new duration's shape.
    A stretched pulse that ends its qubits' programs may grow up to the
    makespan, and the trailing virtual Rz pinned to its end move with it.
    That no early start moved is checked: a node whose ES differs from its
    fixed placement's start (or, for a measure or barrier, from its
    predecessors' fixed finishes), or whose gate is not that placement's,
    raises ``MalformedGraphError``.  The result is a ``Schedule``, validated
    in full.
    """
    if g.makespan != fixed.makespan or g.circuit.width != fixed.width:
        raise MalformedGraphError("the stretched graph's makespan or width differs from the fixed schedule's")
    placements: list[PulsePlacement] = []
    fixed_ef = [0] * len(g.nodes)
    trailing: dict[int, PulsePlacement] = {}  # qubit -> its last pulse, when that stretched
    old = iter(fixed.placements)
    for node in g.nodes:
        i = node.index
        if node.gate.kind in (circ.MEASURE, circ.BARRIER):  # never stretched: one duration each
            if node.es != max((fixed_ef[p] for p in g.preds[i]), default=0):
                raise MalformedGraphError(f"node {i} starts at {node.es}, not where it did before stretching")
            fixed_ef[i] = node.ef
            continue
        p = next(old, None)
        if p is None or p.start != node.es or p.seq != node.gate.id:
            raise MalformedGraphError(f"node {i} at {node.es} is not the fixed schedule's placement {p}")
        fixed_ef[i] = p.end
        if p.duration != node.duration:
            p = _place(node, s)
            if not g.succs[i]:
                trailing.update((q, p) for q in p.qubits)
        placements.append(p)
    if next(old, None) is not None:
        raise MalformedGraphError("the fixed schedule has more placements than the graph has pulses")
    frames = [
        replace(f, time=trailing[f.qubit].end)
        if f.qubit in trailing and f.seq > trailing[f.qubit].seq else f
        for f in fixed.frames
    ]
    return Schedule(
        width=fixed.width,
        makespan=fixed.makespan,
        placements=placements,
        frames=frames,
        measured_qubits=fixed.measured_qubits,
    )


def lower(c: circ.Circuit, s: GateSet) -> circ.Circuit:
    """Lower a circuit into the physical basis of the gate set's mode.

    One streaming pass decomposes U3, Rx, Sx and Sx^-1 gates into
    (kind, qubits, angles) specs, a second pass over those specs fuses each
    run of same-qubit virtual Rz and drops the identity ones, and each output
    gate is then built and validated once (`circuit.lower_circuit`).  The
    result equals ``merge_virtual_z(decompose_static(c))`` on a static gate
    set and ``merge_virtual_z(decompose_dynamic(c))`` on a dynamic one.
    """
    return circ.lower_circuit(c, dynamic=s.mode != STATIC)


def minimum_duration_graph(c: circ.Circuit, s: GateSet) -> DepGraph:
    """The dependency graph of a lowered circuit at minimum durations, with
    its CPM times: the first stage of ``run_framework``."""
    g = build_graph(c, initial_durations(c, s))
    cpm(g)
    return g


def run_framework(
    c: circ.Circuit, s: GateSet, float: str | None = TOTAL_FLOAT
) -> tuple[DepGraph, Schedule]:
    """Compile a lowered circuit in three stages: ``minimum_duration_graph``,
    ``optimize_durations`` under the ``float`` policy, then
    ``create_schedule``; returns (graph, schedule).

    The schedule's makespan always equals the minimum-duration makespan;
    ``float=None`` skips stretching and gives the fixed-duration baseline.
    """
    g = minimum_duration_graph(c, s)
    if float is not None:
        optimize_durations(g, s, float)
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
