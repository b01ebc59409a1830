"""Randomized-benchmarking harness: random Clifford sequences with exact
inversion, paired fixed-duration vs time-optimized execution, and CSV exports.

Sequences are sampled as generator layers (one uniform single-qubit Clifford
per qubit plus one ECR coupling per layer), tracked in a stabilizer tableau,
and closed with an inversion block synthesized from the tableau, so every
circuit composes to the identity up to global phase.  This trades strict
uniform-Clifford RB for a comparative benchmark with an exact inversion,
which is what the paired scheduling-policy comparison needs.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import circuit as circ
from .circuit import Circuit
from .clifford import CLIFFORD_1Q, CX_DRESSING, Tableau, synthesize_identity
from .errors import ConfigError, check_count
from .gateset import GateSet
from .pulses import DT_NS
from .scheduler import (
    FREE_FLOAT,
    create_schedule,
    lower,
    minimum_duration_graph,
    optimize_durations,
    stretched_schedule,
)
from .sim import MAX_SIM_QUBITS, NoiseModel, ScheduleSimulator

HALF_PI = math.pi / 2.0
PI = math.pi

FIXED = "fixed"
OPTIMIZED = "optimized"

#: paper-shaped RB suite: (n_qubits, clifford lengths)
PAPER_LENGTHS = {2: (1, 41, 81, 121, 161), 3: (1, 3, 5, 7)}


def _check_width(n_qubits: int):
    if not 1 <= n_qubits <= MAX_SIM_QUBITS:
        raise ConfigError(f"randomized benchmarking supports 1-{MAX_SIM_QUBITS} qubits")


@dataclass(frozen=True)
class RBConfig:
    """The RB suite's shape; the gate set owns the mode and duration bounds."""

    n_qubits: int
    clifford_lengths: tuple[int, ...]
    circuits_per_length: int = 10
    seed: int = 0
    shots: int = 1024

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits, 1)
        _check_width(self.n_qubits)
        lens = tuple(self.clifford_lengths)
        for length in lens:
            check_count("clifford length", length, 1)
        if not lens or list(lens) != sorted(lens):
            raise ConfigError("clifford lengths must be positive and ascending")
        object.__setattr__(self, "clifford_lengths", lens)
        check_count("circuits_per_length", self.circuits_per_length, 1)
        check_count("shots", self.shots, 1)
        check_count("seed", self.seed, 0)


_WORD_GATES = {
    "h": (circ.U3, (HALF_PI, 0.0, PI)),
    "s": (circ.RZ, (HALF_PI,)),
    "sdg": (circ.RZ, (-HALF_PI,)),
    "z": (circ.RZ, (PI,)),
    "x": (circ.U3, (PI, 0.0, PI)),
}


def _emit_word(specs, word, qubit):
    for g in word:
        kind, angles = _WORD_GATES[g]
        specs.append((kind, (qubit,), angles))


def _emit_cx(specs, c, t):
    """CX as its ECR dressing, in circuit order."""
    _emit_word(specs, CX_DRESSING["pre_c"], c)
    _emit_word(specs, CX_DRESSING["pre_t"], t)
    specs.append((circ.ECR, (c, t), ()))
    _emit_word(specs, CX_DRESSING["post_c"], c)
    _emit_word(specs, CX_DRESSING["post_t"], t)


def random_clifford_circuit(n_qubits: int, length: int, seed) -> Circuit:
    """`length` random generator layers plus a tableau-synthesized inversion.

    Each layer applies one uniform single-qubit Clifford per qubit (as a U3
    with quarter-pi angles) and, from two qubits up, one ECR on a random
    ordered pair.  Every qubit is measured at the end.
    """
    _check_width(n_qubits)
    rng = np.random.default_rng(seed)
    tab = Tableau(n_qubits)
    specs: list[tuple] = []
    pairs = [(a, b) for a in range(n_qubits) for b in range(n_qubits) if a != b]
    for _ in range(length):
        for q in range(n_qubits):
            word, angles = CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))]
            specs.append((circ.U3, (q,), angles))
            tab.apply_word(word, q)
        if pairs:
            c, t = pairs[int(rng.integers(len(pairs)))]
            specs.append((circ.ECR, (c, t), ()))
            tab.ecr(c, t)
    for name, qubits in synthesize_identity(tab):
        if name == "cx":
            _emit_cx(specs, *qubits)
        else:
            _emit_word(specs, (name,), qubits[0])
    for q in range(n_qubits):
        specs.append((circ.MEASURE, (q,), ()))
    return circ._make_circuit(specs, n_qubits)


@dataclass(frozen=True)
class RBRow:
    length: int
    policy: str
    circuit_index: int
    p0: float
    latency_dt: int
    shots: int
    counts: dict


@dataclass
class RBResult:
    config: RBConfig
    rows: list[RBRow] = field(default_factory=list)
    durations: dict[str, Counter] = field(default_factory=dict)

    def lengths(self) -> tuple[int, ...]:
        return self.config.clifford_lengths

    def select(self, length: int, policy: str) -> list[RBRow]:
        return [r for r in self.rows if r.length == length and r.policy == policy]

    def mean_p0(self, length: int, policy: str) -> float:
        rows = self.select(length, policy)
        return sum(r.p0 for r in rows) / len(rows)

    def mean_latency_ns(self, length: int, policy: str) -> float:
        rows = self.select(length, policy)
        return sum(r.latency_dt for r in rows) / len(rows) * DT_NS

    def paired_latencies_equal(self) -> bool:
        for length in self.lengths():
            fixed = self.select(length, FIXED)
            opt = self.select(length, OPTIMIZED)
            for f, o in zip(fixed, opt):
                if f.latency_dt != o.latency_dt:
                    return False
        return True


def _pulse_durations(graph) -> list[int]:
    return [n.duration for n in graph.nodes if n.gate.kind in circ.X_PULSE_KINDS]


def run_rb(cfg: RBConfig, gs: GateSet, nm: NoiseModel, ideal_pulses: bool = False) -> RBResult:
    """Schedule and simulate every circuit under both policies.

    Each circuit is lowered once and its dependency graph built once, at
    minimum durations with CPM run on it (``minimum_duration_graph``).  The
    FIXED schedule is placed from that graph as it stands; then the same
    graph is stretched, only into free float, and ``stretched_schedule``
    builds the OPTIMIZED schedule from the FIXED one, placing again only the
    pulses that grew.  So each arm equals ``run_framework`` under its policy
    (None, then ``"free"``), from one graph and one full placement instead
    of two.  Paired schedules therefore have equal makespans and identical
    pulse start times, and differ only in pulse durations: a stretch fills
    idle time before the next gate and never keeps a qubit busy where the
    fixed arm would have finished its sequence.  ``ScheduleSimulator.run_arms``
    runs the two arms' programs over one state with an arm axis.  The arms
    share their placements and frames outside the stretched pulses, and the
    Rz a stretch retimes trails its qubit's last pulse, which no program
    keeps.  So a segment of idles, frames and pulses between two ECRs that
    no stretch touched is folded once for both arms, and only the stretched
    segments are folded per arm.

    RNG streams are spawned per circuit from the master seed, so results are
    reproducible and independent of execution order.  Mean P(0) uses the
    simulator's exact ground-state probability; sampled counts are kept for
    histogram output.  ideal_pulses replaces integrated pulse unitaries by
    their nominal rotations (the noiseless-identity baseline).
    """
    result = RBResult(config=cfg)
    result.durations = {FIXED: Counter(), OPTIMIZED: Counter()}
    sim = ScheduleSimulator(nm, ideal_pulses=ideal_pulses)
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(len(cfg.clifford_lengths) * cfg.circuits_per_length)
    k = 0
    for length in cfg.clifford_lengths:
        for idx in range(cfg.circuits_per_length):
            gen_ss, fixed_ss, opt_ss = children[k].spawn(3)
            k += 1
            lowered = lower(random_clifford_circuit(cfg.n_qubits, length, gen_ss), gs)
            graph = minimum_duration_graph(lowered, gs)
            fixed = create_schedule(graph, gs)
            result.durations[FIXED].update(_pulse_durations(graph))
            optimize_durations(graph, gs, FREE_FLOAT)
            optimized = stretched_schedule(fixed, graph, gs)
            result.durations[OPTIMIZED].update(_pulse_durations(graph))
            runs = sim.run_arms((fixed, optimized), cfg.shots, (fixed_ss, opt_ss))
            for policy, sch, run in zip((FIXED, OPTIMIZED), (fixed, optimized), runs):
                result.rows.append(
                    RBRow(
                        length=length,
                        policy=policy,
                        circuit_index=idx,
                        p0=run.p0,
                        latency_dt=sch.makespan,
                        shots=cfg.shots,
                        counts=dict(sorted(run.counts.items())),
                    )
                )
    return result


def duration_histogram(result: RBResult, policy: str = OPTIMIZED) -> dict[int, tuple[int, float]]:
    """Chosen-duration distribution: duration -> (count, fraction)."""
    counter = result.durations[policy]
    total = sum(counter.values())
    if total == 0:
        return {}
    return {d: (c, c / total) for d, c in sorted(counter.items())}


def mean_decoherence_times(nm: NoiseModel, n_qubits: int) -> tuple[float, float]:
    t1 = sum(nm.t1(q) for q in range(n_qubits)) / n_qubits
    t2 = sum(nm.t2(q) for q in range(n_qubits)) / n_qubits
    return t1, t2


def decay_reference(t_ns: float, time_constant_ns: float) -> float:
    """e^(-t/T) reference curve value."""
    if math.isinf(time_constant_ns):
        return 1.0
    return math.exp(-t_ns / time_constant_ns)


def export_timescale(result: RBResult, nm: NoiseModel) -> list[dict]:
    """Rows of (policy, length, completion time, mean P(0)) with e^(-t/T1) and
    e^(-t/T2) reference columns, averaged over the involved qubits."""
    t1, t2 = mean_decoherence_times(nm, result.config.n_qubits)
    rows = []
    for length in result.lengths():
        for policy in (FIXED, OPTIMIZED):
            t_ns = result.mean_latency_ns(length, policy)
            rows.append(
                {
                    "policy": policy,
                    "length": length,
                    "time_ns": t_ns,
                    "mean_p0": result.mean_p0(length, policy),
                    "decay_t1": decay_reference(t_ns, t1),
                    "decay_t2": decay_reference(t_ns, t2),
                }
            )
    return rows


def write_rbresult_csv(result: RBResult, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["length", "policy", "circuit", "p0", "latency_dt", "latency_ns", "shots"])
        for r in result.rows:
            out.writerow(
                [r.length, r.policy, r.circuit_index, repr(r.p0), r.latency_dt,
                 repr(r.latency_dt * DT_NS), r.shots]
            )


def write_durations_csv(result: RBResult, path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["policy", "duration_dt", "count", "fraction"])
        for policy in (FIXED, OPTIMIZED):
            for d, (count, fraction) in duration_histogram(result, policy).items():
                out.writerow([policy, d, count, repr(fraction)])


def write_timescale_csv(result: RBResult, nm: NoiseModel, path):
    rows = export_timescale(result, nm)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["policy", "length", "time_ns", "mean_p0", "decay_t1", "decay_t2"])
        for r in rows:
            out.writerow(
                [r["policy"], r["length"], repr(r["time_ns"]), repr(r["mean_p0"]),
                 repr(r["decay_t1"]), repr(r["decay_t2"])]
            )
