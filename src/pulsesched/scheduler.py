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

The dependency graph is one chain per qubit: each node, in program order,
waits only for the node before it on each of its operands.  So a full pass
needs no edge list: CPM's forward sweep keeps each qubit's finish time as
it walks the nodes in order, and its backward sweep keeps each qubit's
latest start as it walks them in reverse.  Total float stretches the queued
gates that share the top priority as one tier: one forward relaxation
decides them in index order and one backward relaxation, seeded by the
gates that grew, refreshes LF.  Both follow the nodes' chain links and pop
from an index heap only the nodes whose times may move, so a tier costs
about one visit per moved node instead of one per moved node per stretch.

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
    """One scheduled physical operation, its chain links and its CPM times (dt).

    ``prev`` and ``next`` align with ``gate.qubits``: the index of the node
    before and after this one on each operand, -1 where there is none.  CPM
    stores ES and LF; EF, LS and the slack follow from them and the duration,
    so a stretch writes only ``duration``.
    """

    index: int
    gate: circ.Gate
    duration: int
    es: int = 0
    lf: int = 0
    prev: tuple[int, ...] = ()
    next: tuple[int, ...] = ()

    @property
    def ef(self) -> int:
        return self.es + self.duration

    @property
    def ls(self) -> int:
        return self.lf - self.duration

    @property
    def slack(self) -> int:
        return self.lf - self.es - self.duration


@dataclass
class DepGraph:
    """A circuit's dependency graph: one node per physical gate, one chain per qubit.

    Invariant: one node per non-Rz gate of ``circuit``, in program order, each
    linked to the node before and after it on each operand.  Every link runs
    forward along a chain, so index order is a topological order, and
    ``create_schedule`` relies on it.
    """

    circuit: circ.Circuit
    nodes: list[DepNode] = field(default_factory=list)

    @property
    def succs(self) -> list[list[int]]:
        """Each node's distinct successors, ascending (perfbench's tracer counts them)."""
        return [sorted({v for v in n.next if v >= 0}) for n in self.nodes]

    def edges(self):
        """(node, successor) pairs, read off ``next``: each node's distinct
        successors, ascending (a repeated ECR pair names one node twice)."""
        for u, n in enumerate(self.nodes):
            nx = n.next
            lo, hi = (nx[0], -1) if len(nx) == 1 else (min(nx), max(nx))
            if lo >= 0:
                yield u, lo
            if hi > lo:
                yield u, hi

    @property
    def makespan(self) -> int:
        return max((n.es + n.duration for n in self.nodes), default=0)


def build_graph(c: circ.Circuit, initial_durations) -> DepGraph:
    """Link each physical gate to the previous gate on every operand qubit.

    ``initial_durations`` maps gate id to dt.  Virtual Rz gates stay out of
    the graph (they are zero-duration frame shifts); barriers become
    zero-duration nodes so they still order their qubits.  One forward pass
    sets each node's ``prev`` and fills its predecessors' ``next`` slots.
    """
    nodes: list[DepNode] = []
    last = [-1] * c.width
    for gate in c.gates:
        if gate.kind == circ.RZ:
            continue
        if gate.kind == circ.U3:
            raise MalformedGraphError("decompose u3 gates before scheduling")
        idx = len(nodes)
        qs = gate.qubits
        prev = (last[qs[0]],) if len(qs) == 1 else tuple([last[q] for q in qs])
        for q, u in zip(qs, prev):
            last[q] = idx
            if u >= 0:
                pn = nodes[u]
                nx = pn.next
                if len(nx) == 1:
                    pn.next = (idx,)
                elif pn.gate.qubits[0] == q:
                    pn.next = (idx, nx[1])
                else:
                    pn.next = (nx[0], idx)
        nodes.append(DepNode(idx, gate, int(initial_durations[gate.id]), 0, 0, prev, (-1,) * len(qs)))
    return DepGraph(circuit=c, nodes=nodes)


def initial_durations(c: circ.Circuit, s: GateSet) -> dict[int, int]:
    """Minimum allowed duration for every physical gate in the circuit."""
    return {
        gate.id: s.durations_for(gate)[0]
        for gate in c.gates
        if gate.kind != circ.RZ
    }


def cpm(g: DepGraph) -> int:
    """Forward pass in node order, backward pass in reverse; returns the makespan.

    A node's ES is the latest finish so far on any of its qubits (0 at a
    source); its LF is the earliest latest start of the next node on any of
    its qubits (the makespan at a sink).  Each pass keeps one running time
    per qubit and reads no links.
    """
    ready = [0] * g.circuit.width
    for n in g.nodes:
        qs = n.gate.qubits
        es = 0
        for q in qs:
            t = ready[q]
            if t > es:
                es = t
        n.es = es
        ef = es + n.duration
        for q in qs:
            ready[q] = ef
    return _backward_sweep(g, max(ready, default=0))


def _backward_sweep(g: DepGraph, makespan: int) -> int:
    due = [makespan] * g.circuit.width
    for n in reversed(g.nodes):
        qs = n.gate.qubits
        lf = makespan
        for q in qs:
            t = due[q]
            if t < lf:
                lf = t
        n.lf = lf
        ls = lf - n.duration
        for q in qs:
            due[q] = ls
    return makespan


def critical_path(g: DepGraph) -> set[int]:
    """Node indices with zero slack (ES = LS, equivalently EF = LF)."""
    return {n.index for n in g.nodes if n.es == n.ls}


def update_cpm(g: DepGraph, changed: DepNode):
    """Re-propagate ES and LF after one node's duration grew.

    The caller has already set the changed node's new duration; the node
    must still finish by its LF, so the makespan holds, or
    ``MalformedGraphError`` is raised.  The times are relaxed from that one
    node along its chains, as ``_relax`` does for a tier of stretches, so
    the result equals a full CPM pass.
    """
    n = changed
    if n.es + n.duration > n.lf:
        raise MalformedGraphError(
            f"node {n.index} at {n.duration} dt from ES {n.es} must finish by its LF {n.lf}"
        )
    _relax(g, {changed.index: changed.duration})


def _relax(g: DepGraph, steps: dict[int, int | None]) -> list[int]:
    """Try each node of ``steps``, keyed in index order, at its new duration,
    and relax the CPM times that moves; returns the nodes that grew, in order.

    Forward, a min-heap of node indices starts at the step nodes.  Each
    popped node raises the ES of the next node on each of its qubits, and a
    node whose ES rose joins the heap once (and ``steps`` at None, which
    marks it queued).  Links point to higher indices, so a node's ES is
    final when it is popped: a step node then takes its new duration when
    that still finishes by its LF.  A node's LF depends only on its
    descendants, none of which has moved yet, so each step is judged as if
    the lower-indexed ones had been taken and propagated one at a time.
    Backward, a max-heap seeded by the nodes that grew lowers the LF of the
    node before on each qubit the same way.  Durations only grow, so the
    result equals a full CPM pass.
    """
    nodes = g.nodes
    heap = list(steps)
    grown, back = [], []
    while heap:
        u = heappop(heap)
        n = nodes[u]
        d = steps[u]
        if d is not None and n.es + d <= n.lf:
            n.duration = d
            grown.append(u)
            back.append(-u)
        ef = n.es + n.duration
        for v in n.next:
            if v >= 0 and ef > nodes[v].es:
                nodes[v].es = ef
                if v not in steps:
                    steps[v] = None
                    heappush(heap, v)
    back.reverse()  # negated indices, ascending: a heap that pops the highest index first
    heap, queued = back, set(grown)
    while heap:
        n = nodes[-heappop(heap)]
        ls = n.lf - n.duration
        for p in n.prev:
            if p >= 0 and ls < nodes[p].lf:
                nodes[p].lf = ls
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
    durations; one final backward sweep refreshes LF.

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
    menus: dict[int, tuple[tuple[int, ...], float]] = {}  # queued node -> (menu, rotation)
    queue: list[tuple[float, int]] = []
    for n in nodes:
        if n.slack > 0:
            menu = s.durations_for(n.gate)
            if menu[-1] > n.duration:
                rotation = circ.pulse_rotation(n.gate)
                menus[n.index] = menu, rotation
                queue.append((-rotation / n.duration if n.duration else 0.0, n.index))
    heapify(queue)
    while queue:
        # every entry at the top priority is one tier; a re-queued node's
        # priority is strictly lower (its rotation is positive), so it
        # joins a later tier
        top, idx = heappop(queue)
        steps = {}
        while True:
            n, menu = nodes[idx], menus[idx][0]
            d = menu[bisect_right(menu, n.duration)]
            if n.es + d <= n.lf:  # ES only rises in a tier: a step too long now stays too long
                steps[idx] = d
            if not queue or queue[0][0] != top:
                break
            idx = heappop(queue)[1]
        if steps:
            for idx in _relax(g, steps):
                n = nodes[idx]
                menu, rotation = menus[idx]
                if n.duration < menu[-1]:
                    heappush(queue, (-rotation / n.duration, idx))


def _stretch_into_free_float(g: DepGraph, s: GateSet):
    makespan = g.makespan
    next_es = [makespan] * g.circuit.width  # per qubit, the ES of the next node
    for n in reversed(g.nodes):
        qs = n.gate.qubits
        es = n.es
        limit = makespan
        for q in qs:
            t = next_es[q]
            if t < limit:
                limit = t
            next_es[q] = es
        window = limit - es
        if window <= n.duration:
            continue
        menu = s.durations_for(n.gate)
        i = bisect_right(menu, window)
        if i and menu[i - 1] > n.duration:
            n.duration = menu[i - 1]
    _backward_sweep(g, makespan)


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
        end = node.es + node.duration
        if gate.kind in (circ.MEASURE, circ.BARRIER):
            for q in gate.qubits:
                last_end[q] = max(last_end[q], end)
            continue
        placements.append(_place(node, s))
        for q in gate.qubits:
            last_end[q] = end

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
    fixed placement's start (or, for a measure or barrier, from its qubits'
    fixed finishes so far), or whose gate is not that placement's, raises
    ``MalformedGraphError``.  The result is a ``Schedule``, validated in
    full.
    """
    if g.makespan != fixed.makespan or g.circuit.width != fixed.width:
        raise MalformedGraphError("the stretched graph's makespan or width differs from the fixed schedule's")
    placements: list[PulsePlacement] = []
    fixed_end = [0] * fixed.width  # per qubit, where its last node so far ends in the fixed schedule
    last: list[PulsePlacement | None] = [None] * fixed.width  # per qubit, its last node if a stretched pulse
    old = iter(fixed.placements)
    for node in g.nodes:
        qs = node.gate.qubits
        grown = None
        if node.gate.kind in (circ.MEASURE, circ.BARRIER):  # never stretched: one duration each
            if node.es != max(fixed_end[q] for q in qs):
                raise MalformedGraphError(f"node {node.index} starts at {node.es}, not where it did before stretching")
            end = node.es + node.duration
        else:
            p = next(old, None)
            if p is None or p.start != node.es or p.seq != node.gate.id:
                raise MalformedGraphError(f"node {node.index} at {node.es} is not the fixed schedule's placement {p}")
            end = p.end
            if p.duration != node.duration:
                p = grown = _place(node, s)
            placements.append(p)
        for q in qs:
            fixed_end[q] = end
            last[q] = grown
    if next(old, None) is not None:
        raise MalformedGraphError("the fixed schedule has more placements than the graph has pulses")
    trailing = {q: p for q, p in enumerate(last) if p is not None}
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
