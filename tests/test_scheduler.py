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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit
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
    optimize_durations,
    run_framework,
    update_cpm,
)
from pulsesched.sim import NoiseModel

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


def _pulse(qubits=(0,), start=0, duration=64, kind=None, **frames):
    kind = kind or ("ecr" if len(qubits) == 2 else "sx")
    return PulsePlacement(qubits=qubits, start=start, duration=duration, kind=kind, angle=HALF_PI,
                          waveform_id=kind, seq=start, **frames)


def _schedule(width, makespan, placements=(), frames=(), waveforms=("sx",)):
    """A schedule whose named waveforms all exist, unless left out of ``waveforms``."""
    shapes = {wid: ShapeSpec("gaussian", 0.1, 64, sigma=16.0) for wid in waveforms}
    return Schedule(width=width, makespan=makespan, placements=list(placements), frames=list(frames),
                    waveforms=shapes)


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

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_angle(self, angle):
        with pytest.raises(ScheduleOverlapError):
            _schedule(1, 64, frames=[FrameShift(qubit=0, time=0, angle=angle, seq=1)])

    @pytest.mark.parametrize("field", ["pre_frame", "post_frame"])
    @pytest.mark.parametrize("angle", [math.nan, math.inf])
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

    def test_missing_waveform(self):
        # the simulator looks a 1q pulse's envelope up by its waveform id
        with pytest.raises(ScheduleOverlapError, match="cannot be played"):
            _schedule(1, 64, [_pulse()], waveforms=())

    @pytest.mark.parametrize("qubits, duration", [((0,), 64), ((0, 1, 2), 64), ((1, 1), 0)])
    def test_ecr_needs_two_distinct_operands(self, qubits, duration):
        with pytest.raises(ScheduleOverlapError, match="cannot be played"):
            _schedule(3, 64, [_pulse(qubits, duration=duration, kind="ecr")])

    def test_one_qubit_kind_needs_one_operand(self):
        with pytest.raises(ScheduleOverlapError, match="cannot be played"):
            _schedule(2, 64, [_pulse((0, 1), kind="sx")])

    def test_negative_duration(self):
        with pytest.raises(ScheduleOverlapError, match="lasts"):
            _schedule(1, 64, [_pulse(start=16, duration=-8)])

    @pytest.mark.parametrize("start, duration", [(0, 63.5), (0, 64.0), (0, True), (0, "64"), (0.5, 32)])
    def test_non_integer_start_or_duration(self, start, duration):
        with pytest.raises(ScheduleOverlapError, match="lasts"):
            _schedule(1, 64, [_pulse(start=start, duration=duration)])

    @pytest.mark.parametrize("start, seq", [("0", 0), (0, None)])
    def test_unorderable_placements(self, start, seq):
        first = PulsePlacement(qubits=(0,), start=start, duration=32, kind="sx", angle=HALF_PI, waveform_id="sx", seq=seq)
        with pytest.raises(ScheduleOverlapError, match="time order"):
            _schedule(1, 64, [first, _pulse(start=0, duration=32)])


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
            assert got.tobytes() == impls[wid].waveform().samples.tobytes()
