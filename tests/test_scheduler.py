"""Dependency graph, CPM, and time-optimization tests.

The CPM oracle enumerates every source-to-node path by brute force (no
memoization), so the forward/backward pass and the incremental update are
checked against an independent computation.
"""

import hashlib
import json
import math
import time
from bisect import bisect_right

import numpy as np
import pytest

from conftest import random_circuit
from pulsesched.circuit import (
    Circuit,
    Gate,
    decompose_static,
    merge_virtual_z,
    parse_circuit,
)
from pulsesched.errors import ConfigError, MalformedGraphError
from pulsesched.gateset import GateSet
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


def random_dag_graph(rng, n_nodes, max_duration=40):
    """Random DAG dressed as a DepGraph (edges always point forward)."""
    c = Circuit(
        width=n_nodes,
        gates=tuple(Gate(id=i, kind="sx", qubits=(i,)) for i in range(n_nodes)),
    )
    g = build_graph(c, {i: int(rng.integers(1, max_duration)) for i in range(n_nodes)})
    g.succs = [[] for _ in range(n_nodes)]
    g.preds = [[] for _ in range(n_nodes)]
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if rng.random() < 0.25:
                g.succs[u].append(v)
                g.preds[v].append(u)
    return g


def next_on_menu(gs, gate, current):
    """Smallest allowed duration strictly above current; current if none."""
    menu = gs.durations_for(gate)
    i = bisect_right(menu, current)
    return menu[i] if i < len(menu) else current


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
            durations = {m.gate.id: m.duration for m in g.nodes}
            g2 = DepGraph(circuit=g.circuit, nodes=[DepNode(m.index, m.gate, durations[m.gate.id], m.rotation) for m in g.nodes], succs=[list(s) for s in g.succs], preds=[list(p) for p in g.preds])
            cpm(g2)
            for a, b in zip(g.nodes, g2.nodes):
                assert (a.es, a.ef, a.ls, a.lf) == (b.es, b.ef, b.ls, b.lf)
            done += 1


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
        starts = [p.start for p in sch.timeline(0)]
        assert starts == [0, 64]
        assert sch.makespan == 128

    def test_fig2_stretched_placement(self, fig2_circuit):
        g, gs = fig2_graph(fig2_circuit)
        cpm(g)
        optimize_durations(g, gs)
        sch = create_schedule(g, gs)
        q1 = sch.timeline(1)
        assert q1[0].duration == 192 and q1[0].start == g.nodes[3].es
        assert all(p.start == n.es for p, n in zip(sch.timeline(0), [g.nodes[i] for i in (0, 1, 2, 4, 5, 6, 8, 9)]))

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
                if n.gate.kind in ("sx", "sxdg", "rx", "ecr"):
                    assert placed[n.gate.id].start == n.es

    def test_frame_shifts_recorded(self):
        gs = fixed_gateset()
        c = merge_virtual_z(decompose_static(parse_circuit("u3 q0 1.0,0.5,0.25\nmeasure q0")))
        _, sch = run_framework(c, gs)
        assert len(sch.frames) > 0
        assert sch.measured_qubits == (0,)
        # cumulative frame on the second pulse reflects the rz between pulses
        second = sch.timeline(0)[1]
        assert second.phase_frames[0] != 0.0


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
        durs_opt = sorted(p.duration for p in opt.timeline(1) if p.kind == "sx")
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
        doc = json.dumps(sch.to_json(include_waveforms=False), indent=1)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "9128b18e412b3698c66458fb6d2fda66a20821ad5dbe7370972a1c84730b001d"
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
