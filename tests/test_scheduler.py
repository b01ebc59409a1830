"""Dependency graph, CPM, and time-optimization tests.

The CPM oracle enumerates every source-to-node path by brute force (no
memoization), so the forward/backward pass and the incremental update are
checked against an independent computation.  The worklist ``update_cpm`` is
also checked against a full-sweep oracle over the whole node order.
"""

import hashlib
import json
import math
import time
from bisect import bisect_right
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit, schedule_fields_of
from pulsesched import scheduler
from pulsesched.bench import random_clifford_circuit
from pulsesched.circuit import (
    PULSE_KINDS,
    Circuit,
    Gate,
    decompose_static,
    merge_virtual_z,
    parse_circuit,
)
from pulsesched.errors import ConfigError, MalformedGraphError, ScheduleOverlapError
from pulsesched.gateset import GateSet
from pulsesched.pulses import ShapeSpec, synthesize
from pulsesched.schedule import FrameShift, PulsePlacement, Schedule
from pulsesched.scheduler import (
    FREE_FLOAT,
    TOTAL_FLOAT,
    DepGraph,
    DepNode,
    build_graph,
    cpm,
    create_schedule,
    critical_path,
    graph_to_dot,
    initial_durations,
    lower,
    minimum_duration_graph,
    optimize_durations,
    run_framework,
    stretched_schedule,
    update_cpm,
)
from pulsesched.sim import NoiseModel, ScheduleSimulator

HALF_PI = math.pi / 2


# ---------------------------------------------------------------------------
# brute-force oracle


def _all_path_heads(g, idx):
    """Max total duration over all paths ending just before node idx (= ES)."""
    best = 0
    for p in g.preds[idx]:
        best = max(best, _all_path_heads(g, p) + g.nodes[p].duration)
    return best


def _all_path_tails(g, idx):
    """Max total duration over all paths from idx to a sink, including idx."""
    best = g.nodes[idx].duration
    for s in g.succs[idx]:
        best = max(best, g.nodes[idx].duration + _all_path_tails(g, s))
    return best


def brute_force_cpm(g):
    """(es, ef, ls, lf) per node from exhaustive path enumeration."""
    es = [_all_path_heads(g, i) for i in range(len(g.nodes))]
    ef = [es[i] + g.nodes[i].duration for i in range(len(g.nodes))]
    makespan = max(ef, default=0)
    ls = [makespan - _all_path_tails(g, i) for i in range(len(g.nodes))]
    lf = [ls[i] + g.nodes[i].duration for i in range(len(g.nodes))]
    return es, ef, ls, lf


def sweep_update_cpm(g, changed):
    """Full-sweep oracle for update_cpm: relax every node after the changed
    one forward, then every node before it backward, in node order."""
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


def node_times(g):
    return [(n.duration, n.es, n.ef, n.ls, n.lf) for n in g.nodes]


def recomputed(g):
    """A copy of g with the same durations and edges, after a fresh cpm."""
    g2 = DepGraph(
        circuit=g.circuit,
        nodes=[DepNode(n.index, n.gate, n.duration, n.rotation) for n in g.nodes],
        succs=[list(s) for s in g.succs],
        preds=[list(p) for p in g.preds],
    )
    cpm(g2)
    return g2


def dag_graph(durations, edges):
    """A DAG dressed as a DepGraph: one sx node per duration, the given edges."""
    n_nodes = len(durations)
    c = Circuit(
        width=n_nodes,
        gates=tuple(Gate(id=i, kind="sx", qubits=(i,)) for i in range(n_nodes)),
    )
    g = build_graph(c, dict(enumerate(durations)))
    g.succs = [[] for _ in range(n_nodes)]
    g.preds = [[] for _ in range(n_nodes)]
    for u, v in edges:
        g.succs[u].append(v)
        g.preds[v].append(u)
    return g


def random_dag_graph(rng, n_nodes, max_duration=40):
    """Random DAG dressed as a DepGraph (edges always point forward)."""
    durations = [int(rng.integers(1, max_duration)) for _ in range(n_nodes)]
    edges = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes) if rng.random() < 0.25]
    return dag_graph(durations, edges)


def next_on_menu(gs, gate, current):
    """Smallest allowed duration strictly above current; current if none."""
    menu = gs.durations_for(gate)
    i = bisect_right(menu, current)
    return menu[i] if i < len(menu) else current


#: GateSet.ideal's static Sx amplitude per default duration, as numpy 2.4
#: computes it on an x86-64 CPU with AVX-512
IDEAL_SX_AMPLITUDES = {
    32: 0.10568564310808735,
    48: 0.07170441375513115,
    64: 0.05451917183288162,
    120: 0.03674763382931049,
    256: 0.019659541851304016,
    512: 0.009842280373676222,
}


def timeline(sch, q):
    """Qubit q's placements in (start, seq) order."""
    return sorted((p for p in sch.placements if q in p.qubits), key=lambda p: (p.start, p.seq))


def fixed_gateset(durations=(64, 128, 192, 256, 320), **kw):
    return GateSet.ideal("static", 8, static_durations=tuple(durations), **kw)


def fig2_graph(fig2_circuit, gateset=None):
    gs = gateset or fixed_gateset()
    durations = {g.id: (64 if g.kind == "sx" else gs.ecr_duration) for g in fig2_circuit.gates}
    return build_graph(fig2_circuit, durations), gs


# ---------------------------------------------------------------------------
# graph construction


class TestBuildGraph:
    def test_empty_circuit(self):
        g = build_graph(Circuit(width=0), {})
        assert g.nodes == [] and g.makespan == 0

    def test_fig2_edge_structure(self, fig2_circuit):
        g, _ = fig2_graph(fig2_circuit)
        # nodes in program order: 3 sx(q0), sx(q1), ecr, 2 sx(q0), sx(q1), ecr, sx(q0)
        edges = set(g.edges())
        assert edges == {
            (0, 1), (1, 2), (2, 4),       # q0 chain into first ecr
            (3, 4),                        # q1 gate into first ecr
            (4, 5), (5, 6), (6, 8),       # q0 chain into second ecr
            (4, 7), (7, 8),               # q1 gate into second ecr
            (8, 9),                        # final q0 gate
        }

    def test_random_circuits_match_last_writer_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            c = random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(1, 40)))
            lowered = merge_virtual_z(decompose_static(c))
            g = build_graph(lowered, {gt.id: 10 for gt in lowered.gates if gt.kind != "rz"})
            # independent last-writer scan over the physical gates
            expected = set()
            last = {}
            node_ids = [gt.id for gt in lowered.gates if gt.kind != "rz"]
            index_of = {gid: i for i, gid in enumerate(node_ids)}
            for gt in lowered.gates:
                if gt.kind == "rz":
                    continue
                for q in gt.qubits:
                    if q in last:
                        expected.add((index_of[last[q]], index_of[gt.id]))
                    last[q] = gt.id
            assert set(g.edges()) == expected
            assert all(u < v for u, v in g.edges())

    def test_rz_excluded_from_nodes(self):
        c = merge_virtual_z(decompose_static(parse_circuit("u3 q0 1.0,0.2,0.3\nsx q0")))
        g = build_graph(c, {gt.id: 32 for gt in c.gates if gt.kind != "rz"})
        assert all(n.gate.kind != "rz" for n in g.nodes)

    def test_undec_u3_rejected(self):
        c = parse_circuit("u3 q0 1,2,3")
        with pytest.raises(MalformedGraphError):
            build_graph(c, {0: 64})


class TestTopologicalOrder:
    """Node order is the topological order; a back edge breaks it."""

    def test_cycle_detected(self):
        g = build_graph(parse_circuit("sx q0\nsx q0"), {0: 1, 1: 1})
        g.succs[1].append(0)
        g.preds[0].append(1)
        with pytest.raises(MalformedGraphError):
            cpm(g)


class TestCPM:
    def test_single_gate(self):
        g = build_graph(parse_circuit("sx q0"), {0: 64})
        assert cpm(g) == 64
        n = g.nodes[0]
        assert (n.es, n.ef, n.ls, n.lf) == (0, 64, 0, 64)

    def test_fig2_slacks(self, fig2_circuit):
        g, _ = fig2_graph(fig2_circuit)
        cpm(g)
        # the first qubit-1 gate (node 3) rides against a 3x64 chain
        assert g.nodes[3].slack == 128
        # the second qubit-1 gate (node 7) rides against a 2x64 chain
        assert g.nodes[7].slack == 64
        assert all(g.nodes[i].slack == 0 for i in (0, 1, 2, 4, 5, 6, 8, 9))

    def test_zero_duration_nodes(self):
        g = build_graph(parse_circuit("sx q0\nbarrier q0 q1\nsx q1"), {0: 64, 1: 0, 2: 32})
        assert cpm(g) == 96
        assert g.nodes[1].es == 64 and g.nodes[1].ef == 64

    def test_random_dags_match_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(120):
            g = random_dag_graph(rng, int(rng.integers(1, 13)))
            cpm(g)
            es, ef, ls, lf = brute_force_cpm(g)
            for i, n in enumerate(g.nodes):
                assert (n.es, n.ef, n.ls, n.lf) == (es[i], ef[i], ls[i], lf[i])

    def test_invariants_hold(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            g = random_dag_graph(rng, 12)
            cpm(g)
            for n in g.nodes:
                assert n.ef == n.es + n.duration
                assert n.lf == n.ls + n.duration
                assert n.es <= n.ls and n.ef <= n.lf


class TestCriticalPath:
    def test_chain_fully_critical(self):
        g = build_graph(parse_circuit("sx q0\nsx q0"), {0: 5, 1: 7})
        cpm(g)
        assert critical_path(g) == {0, 1}

    def test_fig2_excludes_stretchable_gates(self, fig2_circuit):
        g, _ = fig2_graph(fig2_circuit)
        cpm(g)
        assert critical_path(g) == {0, 1, 2, 4, 5, 6, 8, 9}

    def test_matches_brute_force_membership(self):
        rng = np.random.default_rng(46)
        for _ in range(60):
            g = random_dag_graph(rng, int(rng.integers(1, 13)))
            cpm(g)
            es, _, ls, _ = brute_force_cpm(g)
            expected = {i for i in range(len(g.nodes)) if es[i] == ls[i]}
            assert critical_path(g) == expected

    def test_contains_source_to_sink_path(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            g = random_dag_graph(rng, int(rng.integers(2, 13)))
            cpm(g)
            crit = critical_path(g)
            assert crit
            makespan = g.makespan
            # walk a zero-slack chain from a critical source to the makespan
            head = next(i for i in sorted(crit) if not g.preds[i])
            node = head
            while g.nodes[node].ef != makespan:
                node = next(s for s in g.succs[node] if s in crit and g.nodes[s].es == g.nodes[node].ef)
            assert g.nodes[node].ef == makespan


class TestUpdateCPM:
    def test_sink_extension_local(self):
        g = build_graph(parse_circuit("sx q0\nsx q1"), {0: 64, 1: 32})
        cpm(g)
        n = g.nodes[1]
        n.duration = 64
        n.ef = n.es + 64
        n.ls = n.lf - 64
        before = [(m.es, m.ef, m.ls, m.lf) for m in g.nodes]
        update_cpm(g, n)
        assert [(m.es, m.ef, m.ls, m.lf) for m in g.nodes] == before

    def test_fig2_extension_equals_full_recompute(self, fig2_circuit):
        g, _ = fig2_graph(fig2_circuit)
        cpm(g)
        n = g.nodes[3]
        n.duration = 128
        n.ef = n.es + 128
        n.ls = n.lf - 128
        update_cpm(g, n)
        g2, _ = fig2_graph(fig2_circuit)
        g2.nodes[3].duration = 128
        cpm(g2)
        for a, b in zip(g.nodes, g2.nodes):
            assert (a.es, a.ef, a.ls, a.lf) == (b.es, b.ef, b.ls, b.lf)

    def test_node_raised_twice_is_final_when_popped(self):
        # 0 reaches 3 directly and through 1 -> 2; the stretch raises 3 once
        # from 0 and again from 2, and 4 must see the second raise (a FIFO
        # worklist pops 3 between the two); node 5 is the critical path
        g = dag_graph([10, 5, 5, 5, 5, 100], [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        cpm(g)
        n = g.nodes[0]
        n.duration += 20
        n.ef = n.es + n.duration
        n.ls = n.lf - n.duration
        update_cpm(g, n)
        assert (g.nodes[3].es, g.nodes[4].es) == (40, 45)
        assert node_times(g) == node_times(recomputed(g))

    def test_thousand_random_extensions_equal_full_recompute(self):
        rng = np.random.default_rng(48)
        done = 0
        while done < 1000:
            g = random_dag_graph(rng, int(rng.integers(2, 13)))
            cpm(g)
            candidates = [n for n in g.nodes if n.slack > 0]
            if not candidates:
                continue
            n = candidates[int(rng.integers(len(candidates)))]
            extra = int(rng.integers(1, n.slack + 1))
            n.duration += extra
            n.ef = n.es + n.duration
            n.ls = n.lf - n.duration
            update_cpm(g, n)
            assert node_times(g) == node_times(recomputed(g))
            done += 1

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.integers(2, 8),
        n_gates=st.integers(50, 2000),
        mode=st.sampled_from(["static", "dynamic"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_total_float_matches_sweep_oracle(self, seed, n_qubits, n_gates, mode):
        # lowered circuits of about 50-2000 nodes: total float driven by the
        # worklist and by the full sweep reach the same durations and times
        gs = GateSet.ideal(mode, n_qubits)
        c = lower(random_circuit(np.random.default_rng(seed), n_qubits, n_gates), gs)
        runs = []
        for propagate in (update_cpm, sweep_update_cpm):
            g = build_graph(c, initial_durations(c, gs))
            cpm(g)
            with mock.patch.object(scheduler, "update_cpm", propagate):
                optimize_durations(g, gs)
            runs.append(node_times(g))
        assert runs[0] == runs[1]
        assert runs[0] == node_times(recomputed(g))


class TestOptimizeDurations:
    def test_all_critical_unchanged(self):
        gs = fixed_gateset()
        g = build_graph(parse_circuit("sx q0\nsx q0\nsx q0"), {0: 64, 1: 64, 2: 64})
        cpm(g)
        optimize_durations(g, gs)
        assert [n.duration for n in g.nodes] == [64, 64, 64]

    def test_fig2_hand_trace(self, fig2_circuit):
        # with allowed durations 64,128,192,... the first stretchable gate
        # grows into its full 192 dt window and the second into 128 dt
        g, gs = fig2_graph(fig2_circuit)
        cpm(g)
        before = g.makespan
        optimize_durations(g, gs)
        assert g.makespan == before
        assert g.nodes[3].duration == 192
        assert g.nodes[7].duration == 128
        assert all(g.nodes[i].duration == 64 for i in (0, 1, 2, 5, 6, 9))

    def test_fig2_paper_static_set(self, fig2_circuit):
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        g, _ = fig2_graph(fig2_circuit, gs)
        cpm(g)
        optimize_durations(g, gs)
        # both stretchable gates step 64 -> 120; 256 no longer fits
        assert g.nodes[3].duration == 120
        assert g.nodes[7].duration == 120

    def test_latency_invariance_and_monotonicity(self):
        rng = np.random.default_rng(49)
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        for _ in range(60):
            c = merge_virtual_z(
                decompose_static(random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(2, 40))))
            )
            durations = initial_durations(c, gs)
            g = build_graph(c, durations)
            before = cpm(g)
            initial = [n.duration for n in g.nodes]
            crit_before = critical_path(g)
            optimize_durations(g, gs)
            assert g.makespan == before
            for n, d0 in zip(g.nodes, initial):
                assert n.duration >= d0
            for i in crit_before:
                assert g.nodes[i].duration == initial[i]

    def test_fixed_point_no_further_step_possible(self):
        rng = np.random.default_rng(50)
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        for _ in range(40):
            c = merge_virtual_z(
                decompose_static(random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(2, 30))))
            )
            g = build_graph(c, initial_durations(c, gs))
            cpm(g)
            optimize_durations(g, gs)
            for n in g.nodes:
                nxt = next_on_menu(gs, n.gate, n.duration)
                if nxt > n.duration:
                    assert n.es + nxt > n.lf

    def test_deterministic(self):
        rng = np.random.default_rng(51)
        c = merge_virtual_z(decompose_static(random_circuit(rng, 4, 30)))
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        results = []
        for _ in range(2):
            g = build_graph(c, initial_durations(c, gs))
            cpm(g)
            optimize_durations(g, gs)
            results.append([n.duration for n in g.nodes])
        assert results[0] == results[1]

    def test_thousand_gate_circuit_under_a_second(self):
        rng = np.random.default_rng(52)
        c = merge_virtual_z(decompose_static(random_circuit(rng, 20, 1000)))
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        g = build_graph(c, initial_durations(c, gs))
        start = time.perf_counter()
        cpm(g)
        optimize_durations(g, gs)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"optimization took {elapsed:.2f} s"

    def test_eight_thousand_gate_circuit_under_a_second(self):
        # stretches relax only the nodes whose times move; a sweep over the
        # whole order per step took about 42 s here
        rng = np.random.default_rng(53)
        c = merge_virtual_z(decompose_static(random_circuit(rng, 20, 8000)))
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        g = build_graph(c, initial_durations(c, gs))
        assert len(g.nodes) > 7500
        start = time.perf_counter()
        cpm(g)
        optimize_durations(g, gs)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"optimization took {elapsed:.2f} s"


class TestFreeFloat:
    def test_fig2_matches_total_float(self, fig2_circuit):
        # each stretchable gate of the worked example is its qubit's only
        # gate before an ECR, so its free float equals its total float
        g, gs = fig2_graph(fig2_circuit)
        cpm(g)
        optimize_durations(g, gs, float=FREE_FLOAT)
        assert g.nodes[3].duration == 192
        assert g.nodes[7].duration == 128
        assert all(g.nodes[i].duration == 64 for i in (0, 1, 2, 5, 6, 9))

    def test_chain_stretches_only_its_last_gate(self):
        # two off-path gates in a row on q1: under total float the first
        # grows and pushes the second later; under free float the first has
        # no room before its successor, and the second takes the window
        c = parse_circuit("sx q0\nsx q0\nsx q0\nsx q0\nsx q1\nsx q1\necr q0 q1")
        gs = fixed_gateset((64, 128, 192))
        g = build_graph(c, initial_durations(c, gs))
        cpm(g)
        optimize_durations(g, gs, float=FREE_FLOAT)
        assert [n.duration for n in g.nodes[4:6]] == [64, 192]
        assert [n.es for n in g.nodes[4:7]] == [0, 64, 256]
        g = build_graph(c, initial_durations(c, gs))
        cpm(g)
        optimize_durations(g, gs)
        assert g.nodes[5].es > 64

    def test_random_circuits_keep_starts_and_fill_windows(self):
        rng = np.random.default_rng(54)
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        for _ in range(60):
            c = merge_virtual_z(
                decompose_static(random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(2, 40))))
            )
            g = build_graph(c, initial_durations(c, gs))
            before = cpm(g)
            starts = [n.es for n in g.nodes]
            initial = [n.duration for n in g.nodes]
            crit_before = critical_path(g)
            optimize_durations(g, gs, float=FREE_FLOAT)
            assert g.makespan == before
            assert [n.es for n in g.nodes] == starts
            for i in crit_before:
                assert g.nodes[i].duration == initial[i]
            for n in g.nodes:
                assert n.duration >= initial[n.index]
                limit = min((g.nodes[v].es for v in g.succs[n.index]), default=before)
                assert n.ef <= limit
                nxt = next_on_menu(gs, n.gate, n.duration)
                if nxt > n.duration:
                    assert n.es + nxt > limit
            # LS/LF are refreshed: they equal a full CPM pass at the new durations
            times = [(n.es, n.ef, n.ls, n.lf) for n in g.nodes]
            cpm(g)
            assert [(n.es, n.ef, n.ls, n.lf) for n in g.nodes] == times

    def test_unknown_policy_rejected(self, fig2_circuit):
        g, gs = fig2_graph(fig2_circuit)
        cpm(g)
        with pytest.raises(ConfigError):
            optimize_durations(g, gs, float="latest")


class TestCreateSchedule:
    def test_chain_placement(self):
        gs = fixed_gateset()
        c = parse_circuit("sx q0\nsx q0")
        g = build_graph(c, {0: 64, 1: 64})
        cpm(g)
        sch = create_schedule(g, gs)
        starts = [p.start for p in timeline(sch, 0)]
        assert starts == [0, 64]
        assert sch.makespan == 128

    def test_fig2_stretched_placement(self, fig2_circuit):
        g, gs = fig2_graph(fig2_circuit)
        cpm(g)
        optimize_durations(g, gs)
        sch = create_schedule(g, gs)
        q1 = timeline(sch, 1)
        assert q1[0].duration == 192 and q1[0].start == g.nodes[3].es
        assert all(p.start == n.es for p, n in zip(timeline(sch, 0), [g.nodes[i] for i in (0, 1, 2, 4, 5, 6, 8, 9)]))

    def test_random_non_overlap_and_start_at_es(self):
        rng = np.random.default_rng(53)
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        for _ in range(30):
            c = merge_virtual_z(
                decompose_static(random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 30))))
            )
            g = build_graph(c, initial_durations(c, gs))
            cpm(g)
            optimize_durations(g, gs)
            sch = create_schedule(g, gs)  # validates non-overlap on construction
            placed = {p.seq: p for p in sch.placements}
            for n in g.nodes:
                if n.gate.kind in ("sx", "rx", "ecr"):
                    assert placed[n.gate.id].start == n.es

    def test_frame_shifts_recorded(self):
        gs = fixed_gateset()
        c = merge_virtual_z(decompose_static(parse_circuit("u3 q0 1.0,0.5,0.25\nmeasure q0")))
        _, sch = run_framework(c, gs)
        assert len(sch.frames) > 0
        assert sch.measured_qubits == (0,)
        # cumulative frame on the second pulse reflects the rz between pulses
        second = sch.to_json()["qubits"][0][1]
        assert second["phase_frame"] != 0.0


def fixed_then_stretched(c, gs, float=FREE_FLOAT):
    """The FIXED schedule placed from a circuit's minimum-duration graph, then
    ``stretched_schedule`` of that graph stretched under ``float``."""
    g = minimum_duration_graph(c, gs)
    fixed = create_schedule(g, gs)
    optimize_durations(g, gs, float)
    return fixed, stretched_schedule(fixed, g, gs)


class TestStretchedSchedule:
    """The OPTIMIZED schedule built as a delta of the FIXED one equals
    ``create_schedule`` of the stretched graph, field for field."""

    def test_random_circuits_equal_run_framework(self):
        rng = np.random.default_rng(61)
        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        stretched = 0
        for _ in range(80):
            c = lower(random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 40))), gs)
            fixed, sch = fixed_then_stretched(c, gs)
            assert schedule_fields_of(sch) == schedule_fields_of(run_framework(c, gs, FREE_FLOAT)[1])
            stretched += sch.placements != fixed.placements
        assert stretched > 20

    def test_trailing_rz_follows_its_stretched_pulse(self):
        # q0's only pulse ends its program and grows to the makespan; the Rz
        # after it is pinned to its end, so that frame moves with it
        c = parse_circuit("sx q1\nsx q1\nsx q1\nsx q0\nrz q0 0.5\nrz q1 0.25")
        gs = fixed_gateset((64, 128, 192))
        fixed, sch = fixed_then_stretched(c, gs)
        assert [(f.qubit, f.time) for f in fixed.frames] == [(0, 64), (1, 192)]
        assert [(f.qubit, f.time) for f in sch.frames] == [(0, 192), (1, 192)]
        assert schedule_fields_of(sch) == schedule_fields_of(run_framework(c, gs, FREE_FLOAT)[1])

    def test_unstretched_placements_are_shared(self):
        gs = GateSet.ideal("static", 3)
        c = lower(random_clifford_circuit(3, 7, 5), gs)
        fixed, sch = fixed_then_stretched(c, gs)
        kept = [p for p in sch.placements if any(p is q for q in fixed.placements)]
        assert 0 < len(kept) < len(sch.placements)
        assert sch.frames == fixed.frames and sch.frames is not fixed.frames

    def test_total_float_moves_a_start(self):
        # total float grows q1's first Sx and pushes its second one later
        c = parse_circuit("sx q0\nsx q0\nsx q0\nsx q0\nsx q1\nsx q1\necr q0 q1")
        with pytest.raises(MalformedGraphError, match="node 5"):
            fixed_then_stretched(c, fixed_gateset((64, 128, 192)), TOTAL_FLOAT)

    def test_total_float_moves_only_a_measure(self):
        # every pulse keeps its start, but q1's Sx grows into the measure's
        # total float and pushes it, and the Rz pinned to the measure with it
        c = parse_circuit("sx q1\nrz q1 0.5\nmeasure q1\nsx q0\nsx q0\nsx q0")
        with pytest.raises(MalformedGraphError, match="node 1"):
            fixed_then_stretched(c, fixed_gateset((64, 128, 192)), TOTAL_FLOAT)

    def test_schedule_of_another_graph(self):
        gs = fixed_gateset()
        g = minimum_duration_graph(parse_circuit("sx q0\nsx q0"), gs)
        for other in ("sx q0", "sx q0\nsx q0\nsx q0", "sx q0\necr q0 q1"):
            fixed = create_schedule(minimum_duration_graph(parse_circuit(other), gs), gs)
            with pytest.raises(MalformedGraphError):
                stretched_schedule(fixed, g, gs)


_SX64 = ShapeSpec("gaussian", 0.1, 64, sigma=16.0)


def _pulse(qubits=(0,), start=0, duration=None, kind=None, shape=_SX64, **frames):
    """A pulse whose waveform id is its kind, playing ``shape`` (the simulator ignores an ECR's),
    or that shape at another ``duration``."""
    kind = kind or ("ecr" if len(qubits) == 2 else "sx")
    shape = shape if duration is None else replace(shape, duration=duration)
    return PulsePlacement(qubits=qubits, start=start, kind=kind, angle=HALF_PI, waveform_id=kind, shape=shape,
                          seq=start, **frames)


def _schedule(width, makespan, placements=(), frames=(), **fields):
    return Schedule(width=width, makespan=makespan, placements=list(placements), frames=list(frames), **fields)


class TestScheduleValidate:
    """A schedule rejects, on construction, every event it cannot play."""

    def test_accepts_events_at_the_bounds(self):
        _schedule(2, 128, [_pulse(pre_frame=0.1, post_frame=-0.2), _pulse((0, 1), 64)],
                  [FrameShift(qubit=1, time=0, angle=0.3, seq=9), FrameShift(qubit=1, time=128, angle=-4.0, seq=10)])

    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_frame_qubit_outside_width(self, qubit):
        with pytest.raises(ScheduleOverlapError):
            _schedule(2, 64, frames=[FrameShift(qubit=qubit, time=0, angle=0.5, seq=1)])

    @pytest.mark.parametrize("time", [-1, 65])
    def test_frame_time_outside_makespan(self, time):
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[FrameShift(qubit=0, time=time, angle=0.5, seq=1)])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, "0.1", pytest.param(10**400, id="huge")])
    def test_non_finite_frame_angle(self, angle):
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[FrameShift(qubit=0, time=0, angle=angle, seq=1)])

    @pytest.mark.parametrize("field", ["pre_frame", "post_frame"])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, "0.1", None, pytest.param(10**400, id="huge")])
    def test_non_finite_calibration_frame(self, field, angle):
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [_pulse(**{field: angle})])

    @pytest.mark.parametrize("qubits", [(1,), (-1,), (0, 1), (1, 0)])
    def test_placement_operand_outside_width(self, qubits):
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [_pulse(qubits)])

    @pytest.mark.parametrize("second", [_pulse(start=63), _pulse((1, 0), 32)], ids=["sx", "ecr"])
    def test_overlapping_pulses(self, second):
        with pytest.raises(ScheduleOverlapError, match="overlaps"):
            _schedule(2, 128, [_pulse(), second])

    def test_pulse_past_makespan(self):
        with pytest.raises(ScheduleOverlapError, match="out of range"):
            _schedule(1, 63, [_pulse()])

    def test_two_qubit_pulse_carries_no_calibration_frames(self):
        with pytest.raises(ScheduleOverlapError):
            _schedule(2, 64, [_pulse((0, 1), pre_frame=0.1)])

    def test_one_waveform_id_names_one_shape(self):
        # the document lists each waveform id's shape once
        other = _pulse(start=64, shape=replace(_SX64, amplitude=0.2))
        with pytest.raises(ScheduleOverlapError, match="cannot name shape"):
            _schedule(1, 128, [_pulse(), other])
        assert _schedule(1, 128, [_pulse(), _pulse(start=64, shape=replace(_SX64))]).waveforms == {"sx": _SX64}

    @pytest.mark.parametrize("changes", [{"shape": None}, {"shape": dict(vars(_SX64))}, {"shape": "sx"},
                                         {"waveform_id": None}, {"waveform_id": 1}, {"waveform_id": ("sx",)}],
                             ids=["shape-none", "shape-fields", "shape-name", "id-none", "id-int", "id-tuple"])
    def test_pulse_plays_a_shape_spec_under_a_string_id(self, changes):
        # the document lists each shape under its id as a JSON key, where 1 and "1" collide
        with pytest.raises(ScheduleOverlapError, match="cannot name shape"):
            _schedule(1, 64, [replace(_pulse(), **changes)])

    @pytest.mark.parametrize("qubits, duration", [((0,), 64), ((0, 1, 2), 64), ((1, 1), 32)])
    def test_ecr_needs_two_distinct_operands(self, qubits, duration):
        with pytest.raises(ScheduleOverlapError, match="cannot be played"):
            _schedule(3, 64, [_pulse(qubits, duration=duration, kind="ecr")])

    def test_one_qubit_kind_needs_one_operand(self):
        with pytest.raises(ScheduleOverlapError, match="cannot be played"):
            _schedule(2, 64, [_pulse((0, 1), kind="sx")])

    def test_negative_duration(self):
        # a pulse lasts its shape's duration, which the shape judges
        with pytest.raises(ValueError, match="duration"):
            _pulse(start=16, duration=-8)

    @pytest.mark.parametrize("start, duration, error", [
        pytest.param(0, 63.5, ValueError, id="0-63.5"),
        pytest.param(0, 64.0, ValueError, id="0-64.0"),
        pytest.param(0, True, ValueError, id="0-True"),
        pytest.param(0, "64", ValueError, id="0-64"),
        pytest.param(0.5, 32, ScheduleOverlapError, id="0.5-32"),
    ])
    def test_non_integer_start_or_duration(self, start, duration, error):
        # the shape refuses a duration, the schedule a start
        with pytest.raises(error, match="lasts" if error is ScheduleOverlapError else "duration"):
            _schedule(1, 64, [_pulse(start=start, duration=duration)])

    @pytest.mark.parametrize("field, value", [("amplitude", math.nan), ("amplitude", 5.0), ("sigma", math.inf),
                                              ("duration", True)])
    def test_placement_shape_judges_its_values(self, field, value):
        # each of these built in a schedule, whose to_json wrote NaN,
        # Infinity or "duration": true into its waveforms
        with pytest.raises(ValueError, match=field):
            _schedule(1, 64, [_pulse(shape=replace(_SX64, **{field: value}))])

    @pytest.mark.parametrize("start, seq", [("0", 0), (0, None)])
    def test_unorderable_placements(self, start, seq):
        first = replace(_pulse(duration=32), start=start, seq=seq)
        with pytest.raises(ScheduleOverlapError, match="time order"):
            _schedule(1, 64, [first, _pulse(start=0, duration=32)])

    @pytest.mark.parametrize("qubit", [0.5, True, "0"], ids=["half", "bool", "str"])
    def test_frame_qubit_not_an_integer(self, qubit):
        # 0.5 passed and then failed as a list index in the simulator; True
        # passed and shifted qubit 1
        with pytest.raises(ScheduleOverlapError):
            _schedule(2, 64, frames=[FrameShift(qubit=qubit, time=0, angle=0.5, seq=1)])

    @pytest.mark.parametrize("time", [1.5, None], ids=["half", "none"])
    def test_frame_time_not_an_integer(self, time):
        # 1.5 passed, and the document would have said "time_dt": 1.5
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[FrameShift(qubit=0, time=time, angle=0.5, seq=1)])

    @pytest.mark.parametrize("qubits", [(True,), (0.5,), (0, True)], ids=["bool", "half", "ecr-bool"])
    def test_placement_operand_not_an_integer(self, qubits):
        # (True,) passed and played on qubit 1; (0.5,) raised a raw TypeError
        with pytest.raises(ScheduleOverlapError):
            _schedule(2, 64, [_pulse(qubits)])

    @pytest.mark.parametrize("width, makespan", [(1.5, 0), ("2", 0), (-1, 0), (1, math.nan), (1, -1), (True, 0),
                                                 (1, 64.0), (np.int64(1), 0), (1, np.int64(64))])
    def test_width_and_makespan_are_non_negative_ints(self, width, makespan):
        # 1.5 and "2" raised a raw TypeError, -1 reached the simulator, and a
        # NaN makespan failed strict JSON
        with pytest.raises(ScheduleOverlapError, match="width"):
            Schedule(width, makespan)

    @pytest.mark.parametrize("measured", [(5, True, "x"), (2,), (-1,), (True,), (0.0,), (np.int64(0),), [0],
                                          (1, 0), (0, 0), None],
                             ids=["mixed", "outside", "negative", "bool", "float", "numpy", "list",
                                  "descending", "repeated", "none"])
    def test_measured_qubits_are_ascending_schedule_qubits(self, measured):
        # (5, True, "x") built, and to_json wrote [5, true, "x"]
        with pytest.raises(ScheduleOverlapError, match="measured qubits"):
            _schedule(2, 0, measured_qubits=measured)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, True, "0.1", None, pytest.param(10**400, id="huge")])
    def test_placement_angle_is_a_finite_number(self, angle):
        # an ideal pulse plays its angle: NaN ended in numpy's raw ValueError
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [replace(_pulse(), angle=angle)])

    def test_bool_frame_angles(self):
        # a bool passed math.isfinite and was written as "angle": true
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[FrameShift(qubit=0, time=0, angle=True, seq=1)])
        for field in ("pre_frame", "post_frame"):
            with pytest.raises(ScheduleOverlapError):
                _schedule(1, 64, [_pulse(**{field: True})])

    @pytest.mark.parametrize("field", ["qubit", "time"])
    def test_numpy_integer_frame_fields(self, field):
        # to_json cannot write a numpy integer
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[replace(FrameShift(qubit=0, time=0, angle=0.5, seq=1),
                                             **{field: np.int64(0)})])

    @pytest.mark.parametrize("changes, error", [({"start": np.int64(0)}, ScheduleOverlapError),
                                                ({"duration": np.int64(64)}, ValueError),
                                                ({"qubits": (np.int64(0),)}, ScheduleOverlapError)],
                             ids=["start", "duration", "qubits"])
    def test_numpy_integer_placement_fields(self, changes, error):
        # to_json cannot write a numpy integer; a shape refuses one as its duration
        with pytest.raises(error):
            _schedule(1, 64, [_pulse(**changes)])

    def test_huge_calibration_frame(self):
        # a frame this large passed validate, and the simulator's frame phase
        # overflowed to NaN, which the shot sampler raised as a raw ValueError
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [_pulse(pre_frame=8.98846567431158e+307)])

    def test_huge_frames_summing_past_float(self):
        # each of these is finite, their sum on one qubit is not; to_json
        # wrote -Infinity
        frames = [FrameShift(qubit=0, time=0, angle=1e308, seq=s) for s in (1, 2)]
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [_pulse()], frames)

    @pytest.mark.parametrize("bound", [4 * math.pi, -4 * math.pi])
    def test_frames_at_four_pi_play(self, bound):
        frames = [FrameShift(qubit=0, time=0, angle=bound, seq=s) for s in (1, 2)]
        sch = _schedule(1, 64, [_pulse(pre_frame=bound, post_frame=bound)], frames)
        res = ScheduleSimulator(NoiseModel()).run(sch, shots=4, seed=0, validate_states=True)
        assert sum(res.counts.values()) == 4
        json.dumps(sch.to_json(), allow_nan=False)
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, [_pulse(pre_frame=math.nextafter(bound, 2 * bound))])



# numeric values a document or an API caller can hand a schedule field
_ODD_VALUES = st.one_of(
    st.integers(-2, 140),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 1e300, -1e300, 10**400, -(10**400), "0", "0.1", None]),
)
_ECR_DT = 96
_SHAPES = {"sx32": ShapeSpec("gaussian", 0.1, 32, sigma=8.0), "sx64": _SX64,
           "ecr": ShapeSpec("gaussian_square", 0.12, _ECR_DT, sigma=16.0)}
#: the shape's own fields, drawn into a placement's shape
_SHAPE_FIELDS = ["amplitude", "duration", "sigma", "width", "beta", "phase"]
_FIELDS = {
    FrameShift: ["qubit", "time", "angle", "seq"],
    PulsePlacement: ["qubits", "start", "angle", "seq", "pre_frame", "post_frame", *_SHAPE_FIELDS],
}


@st.composite
def schedule_fields(draw):
    """A playable schedule on 1-3 qubits, its events packed back to back,
    with up to two of its fields (a pulse's shape's included) then replaced
    by drawn values, and its measured qubits: all of them, or drawn values.
    A shape that refuses its drawn value raises ``ValueError``."""
    width = draw(st.integers(1, 3))
    clock = [0] * width
    events = []
    for seq in range(draw(st.integers(0, 5))):
        op = draw(st.sampled_from(["frame", "sx32", "sx64", "ecr"][: 4 if width > 1 else 3]))
        if op == "frame":
            q = draw(st.integers(0, width - 1))
            events.append(FrameShift(q, clock[q], draw(st.floats(-4, 4)), seq))
            continue
        if op == "ecr":
            kind, qubits, pre_post = "ecr", tuple(draw(st.permutations(range(width)))[:2]), ()
        else:
            kind, qubits = "sx", (draw(st.integers(0, width - 1)),)
            pre_post = (draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        start = max(clock[q] for q in qubits)
        events.append(PulsePlacement(qubits, start, kind, HALF_PI, op, _SHAPES[op], seq, *pre_post))
        for q in qubits:
            clock[q] = start + _SHAPES[op].duration
    for _ in range(draw(st.integers(0, 2)) if events else 0):
        i = draw(st.integers(0, len(events) - 1))
        name, value = draw(st.sampled_from(_FIELDS[type(events[i])])), draw(_ODD_VALUES)
        if name == "qubits" and type(events[i].qubits) is tuple and draw(st.booleans()):
            value = (value,) + events[i].qubits[1:]
        if name in _SHAPE_FIELDS:
            name, value = "shape", replace(events[i].shape, **{name: value})
        events[i] = replace(events[i], **{name: value})
    makespan = max(clock) + draw(st.integers(0, 8))
    placements = [ev for ev in events if isinstance(ev, PulsePlacement)]
    measured = draw(st.just(tuple(range(width))) | st.lists(_ODD_VALUES, max_size=3).map(tuple))
    return width, makespan, placements, [ev for ev in events if isinstance(ev, FrameShift)], measured


class TestScheduleProperty:
    """Whatever values its fields hold, a schedule is either rejected on
    construction, its shapes' by ``ShapeSpec``, or simulated and written as
    strict JSON."""

    SIM = ScheduleSimulator(NoiseModel())  # channels cached per pulse spec and qubit across examples

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rejected_or_playable(self, data):
        try:
            width, makespan, placements, frames, measured = data.draw(schedule_fields())
        except ValueError:
            return
        try:
            sch = Schedule(width, makespan, placements, frames, measured)
        except ScheduleOverlapError:
            return
        res = self.SIM.run(sch, shots=4, seed=0, validate_states=True)
        assert sum(res.counts.values()) == 4
        json.dumps(sch.to_json(), allow_nan=False)


@pytest.fixture(scope="module")
def calibrated_static():
    return GateSet.calibrated("static", NoiseModel(), n_qubits=3)


def calibrated_rb_schedules(gs, policy):
    for n, length, seed in ((2, 11, 0), (3, 5, 1), (3, 7, 2)):
        yield run_framework(lower(random_clifford_circuit(n, length, seed), gs), gs, policy)[1]


class TestScheduleJsonFrames:
    @pytest.mark.parametrize("policy", [None, FREE_FLOAT, TOTAL_FLOAT])
    def test_frames_are_only_virtual_rz(self, calibrated_static, policy):
        # calibration frames ride on their placements, never as frame shifts
        for sch in calibrated_rb_schedules(calibrated_static, policy):
            seqs = {p.seq for p in sch.placements}
            assert sch.frames and not any(f.seq in seqs for f in sch.frames)
            assert any(p.pre_frame for p in sch.placements)

    @pytest.mark.parametrize("policy", [None, FREE_FLOAT, TOTAL_FLOAT])
    def test_phase_frame_is_minus_running_angle_sum(self, calibrated_static, policy):
        # per qubit, walking frames and pulses in time order (frames first),
        # each pulse's phase_frame is minus the angles so far, and each Sx
        # sits between its calibrated pre frame at its start and post frame
        # at its end
        gs = calibrated_static
        sx = {impl.waveform_id(): impl for impl in gs.impls.values()}
        assert all(impl.pre_frame and impl.post_frame for impl in sx.values())
        pulses = 0
        for sch in calibrated_rb_schedules(gs, policy):
            doc = json.loads(json.dumps(sch.to_json()))
            for frames, line in zip(doc["frames"], doc["qubits"]):
                times = [f["time_dt"] for f in frames]
                assert times == sorted(times) and 0 <= times[0] and times[-1] <= doc["makespan_dt"]
                i, phase = 0, 0.0
                for p in line:
                    while i < len(frames) and frames[i]["time_dt"] <= p["start_dt"]:
                        phase -= frames[i]["angle"]
                        i += 1
                    assert p["phase_frame"].hex() == phase.hex()
                    if p["waveform_id"] in sx:
                        impl, end = sx[p["waveform_id"]], p["start_dt"] + p["duration_dt"]
                        assert frames[i - 1] == {"time_dt": p["start_dt"], "angle": impl.pre_frame}
                        assert frames[i] == {"time_dt": end, "angle": impl.post_frame}
                        pulses += 1
        assert pulses > 100


class TestRunFramework:
    def test_single_gate(self):
        gs = fixed_gateset()
        _, sch = run_framework(parse_circuit("sx q0"), gs)
        assert len(sch.placements) == 1
        assert sch.placements[0].start == 0
        assert sch.makespan == 64

    def test_fig2_zero_added_latency(self, fig2_circuit):
        gs = fixed_gateset()
        _, base = run_framework(fig2_circuit, gs, None)
        _, opt = run_framework(fig2_circuit, gs, TOTAL_FLOAT)
        assert base.makespan == opt.makespan
        durs_opt = sorted(p.duration for p in timeline(opt, 1) if p.kind == "sx")
        assert durs_opt == [128, 192]

    def test_rb_circuits_latency_equality(self):
        from pulsesched.bench import random_clifford_circuit

        gs = fixed_gateset((32, 48, 64, 120, 256, 512))
        for seed, (n, length) in enumerate([(2, 11), (2, 21), (3, 3), (3, 5)]):
            raw = random_clifford_circuit(n, length, seed)
            c = lower(raw, gs)
            _, base = run_framework(c, gs, None)
            _, opt = run_framework(c, gs, TOTAL_FLOAT)
            assert base.makespan == opt.makespan

    def test_golden_schedule_json(self):
        # pins the schedule JSON of a seeded 974-node circuit byte for byte.
        # Waveform samples are left out: they pass through numpy's vectorized
        # exp, whose last bit may differ between CPUs.
        c = random_circuit(np.random.default_rng(56), 5, 1000)
        gs = GateSet.ideal("static", 5)
        _, sch = run_framework(lower(c, gs), gs)
        doc = sch.to_json()
        del doc["waveforms"]
        doc = json.dumps(doc, indent=1)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "ff2b272a7f2187a4aecb80b32afa32a78eaee3cbec1c56f9ecd1d0681d8c4a2b"
        )

    def test_golden_schedule_json_with_waveforms(self):
        # the same circuit's whole document, waveform shapes included.  The
        # gate set's amplitudes are written out: GateSet.ideal derives them
        # from envelope sums through numpy's exp, whose last bit may differ
        # between CPUs.  Everything else in a shape is integer or libm math.
        doc = GateSet.ideal("static", 5).to_json()
        for row in doc["implementations"]:
            row["amplitude"] = IDEAL_SX_AMPLITUDES[row["duration_dt"]]
        gs = GateSet.from_json(doc)
        c = random_circuit(np.random.default_rng(56), 5, 1000)
        _, sch = run_framework(lower(c, gs), gs)
        text = json.dumps(sch.to_json(), indent=1)
        assert len(sch.waveforms) == 30
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "69442e9c644b213ba8ce507d641cd17bf00ba11977b217b501e018b98461a819"
        )


class TestExports:
    def test_dot_output(self, fig2_circuit):
        g, _ = fig2_graph(fig2_circuit)
        cpm(g)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph")
        assert '"3:0/64/128/192' in dot
        assert "n3 -> n4;" in dot

    def test_schedule_json_schema(self, fig2_circuit, tmp_path):
        gs = fixed_gateset()
        _, sch = run_framework(fig2_circuit, gs)
        out = tmp_path / "sched.json"
        sch.write_json(out)
        doc = json.loads(out.read_text())
        assert doc["width"] == 2 and doc["makespan_dt"] == sch.makespan
        entry = doc["qubits"][0][0]
        assert set(entry) == {"start_dt", "duration_dt", "waveform_id", "phase_frame"}
        assert entry["waveform_id"] in doc["waveforms"]

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_schedule_json_uses_c_encoder(self, fig2_circuit, tmp_path, monkeypatch, mode):
        # json.encoder._make_iterencode is the pure-Python encoder: the writer
        # must not reach it, and must lose nothing, waveform shapes included,
        # without it
        def python_encoder(*args, **kwargs):
            raise AssertionError("schedule JSON went through the pure-Python encoder")

        gs = fixed_gateset() if mode == "static" else GateSet.ideal("dynamic", 2)
        _, sch = run_framework(lower(fig2_circuit, gs), gs)
        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        out = tmp_path / "sched.json"
        sch.write_json(out)
        doc = json.loads(out.read_text())
        assert doc["waveforms"] and doc == sch.to_json()

    def test_waveforms_follow_program_order(self):
        # sx q2 starts at 0 beside the ECR and sx q0 only after it, yet each
        # id is listed where its first pulse stands in the program
        gs = GateSet.ideal("static", 3)
        _, sch = run_framework(lower(parse_circuit("ecr q0 q1\nsx q0\nsx q2"), gs), gs)
        assert [(p.waveform_id, p.start) for p in sch.events() if isinstance(p, PulsePlacement)] == [
            ("ecr_d1320", 0), ("sx_q2_d512", 0), ("sx_q0_d32", 1320)]
        assert list(sch.waveforms) == list(sch.to_json()["waveforms"]) == ["ecr_d1320", "sx_q0_d32", "sx_q2_d512"]

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_waveform_entries_resynthesize_bit_for_bit(self, mode):
        # every written entry rebuilds its ShapeSpec, and that spec samples
        # to exactly the pulse the gate set would play
        gs = GateSet.ideal(mode, 3)
        c = random_circuit(np.random.default_rng(8), 3, 120)
        g, sch = run_framework(lower(c, gs), gs)
        impls = {}
        for n in g.nodes:
            if n.gate.kind in PULSE_KINDS:
                impl = gs.impl_for_gate(n.gate, n.duration)
                impls[impl.waveform_id()] = impl
        doc = json.loads(json.dumps(sch.to_json()))
        assert set(doc["waveforms"]) == set(impls) and len(impls) > 10
        for wid, entry in doc["waveforms"].items():
            assert ShapeSpec(**entry) == impls[wid].shape
            got = synthesize(ShapeSpec(**entry)).samples
            assert got.tobytes() == synthesize(impls[wid].shape).samples.tobytes()
