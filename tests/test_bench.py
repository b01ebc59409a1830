"""Randomized-benchmarking harness and CSV exports."""

import csv
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import assert_arms_equal_runs, circuit_unitary, equal_up_to_phase, schedule_fields_of, stretched_pair
from pulsesched import bench
from pulsesched.bench import (
    FIXED,
    OPTIMIZED,
    RBConfig,
    RBResult,
    decay_reference,
    duration_histogram,
    export_timescale,
    random_clifford_circuit,
    run_rb,
    write_durations_csv,
    write_rbresult_csv,
    write_timescale_csv,
)
from pulsesched.circuit import X_PULSE_KINDS
from pulsesched.errors import ConfigError
from pulsesched.gateset import GateSet
from pulsesched.scheduler import FREE_FLOAT, lower, run_framework
from pulsesched.sim import MAX_SIM_QUBITS, NoiseModel, ScheduleSimulator


def ideal_static(n):
    return GateSet.ideal("static", n, min_duration=32)


class TestRandomCliffordCircuit:
    def test_deterministic_under_seed(self):
        a = random_clifford_circuit(2, 5, 123)
        b = random_clifford_circuit(2, 5, 123)
        assert a == b
        c = random_clifford_circuit(2, 5, 124)
        assert a != c

    def test_net_unitary_is_identity(self):
        for n, length, seed in [(1, 4, 0), (2, 3, 1), (2, 7, 2), (3, 2, 3)]:
            c = random_clifford_circuit(n, length, seed)
            assert equal_up_to_phase(circuit_unitary(c), np.eye(2**n), tol=1e-9)

    def test_golden_gate_tuples(self):
        # pins every (kind, qubits, angles) the generator draws, tableau
        # inversion block included, over widths 1-5 and five lengths
        h = hashlib.sha256()
        for n in range(1, 6):
            for length in (1, 3, 7, 41, 161):
                for seed in range(8):
                    c = random_clifford_circuit(n, length, seed)
                    h.update(repr([(g.kind, g.qubits, g.angles) for g in c.gates]).encode())
        assert h.hexdigest() == "8e33057de60d9372e5073727c5cfe7440a7c71b0714650110481683a5d91d6c4"

    def test_measures_all_qubits(self):
        c = random_clifford_circuit(3, 2, 9)
        measured = {g.qubits[0] for g in c.gates if g.kind == "measure"}
        assert measured == {0, 1, 2}

    def test_gate_count_linear_in_length(self):
        counts = []
        for length in (1, 41, 81, 121, 161):
            c = random_clifford_circuit(2, length, 7)
            counts.append(len(c.gates))
        diffs = np.diff(counts)
        # inversion block varies by a few gates; layer cost is constant
        assert all(abs(d - diffs[0]) < 40 for d in diffs)
        assert counts[-1] > counts[0] > 0

    def test_noiseless_p0_one(self):
        # inversion property: with ideal gates and no noise the sequence
        # composes to the identity on every schedule policy
        gs = ideal_static(2)
        nm = NoiseModel.noiseless()
        for seed, length in enumerate((1, 5, 11)):
            raw = random_clifford_circuit(2, length, seed)
            lowered = lower(raw, gs)
            _, sch_fixed = run_framework(lowered, gs, None)
            _, sch_opt = run_framework(lowered, gs, FREE_FLOAT)
            for sch in (sch_fixed, sch_opt):
                res = ScheduleSimulator(nm, ideal_pulses=True).run(sch, shots=1, seed=0)
                assert res.p0 == pytest.approx(1.0, abs=1e-6)

    def test_noiseless_real_pulses_close_to_one(self):
        # with the actual integrated Gaussian pulses the identity holds up to
        # accumulated coherent pulse error
        gs = ideal_static(2)
        nm = NoiseModel.noiseless()
        raw = random_clifford_circuit(2, 5, 1)
        lowered = lower(raw, gs)
        _, sch_opt = run_framework(lowered, gs, FREE_FLOAT)
        res = ScheduleSimulator(nm).run(sch_opt, shots=1, seed=0)
        assert res.p0 > 0.98

    def test_paired_schedules_start_every_pulse_together(self):
        # the optimized arm stretches only into free float: same makespan,
        # and every pulse starts when its fixed-duration twin does
        gs = GateSet.ideal("static", 3, static_durations=(32, 48, 64, 120, 256, 512), min_duration=32)
        stretched = 0
        for seed, (n, length) in enumerate([(2, 1), (2, 41), (3, 3), (3, 7)]):
            lowered = lower(random_clifford_circuit(n, length, seed), gs)
            _, sch_fixed = run_framework(lowered, gs, None)
            _, sch_opt = run_framework(lowered, gs, FREE_FLOAT)
            assert sch_fixed.makespan == sch_opt.makespan
            fixed = {p.seq: p for p in sch_fixed.placements}
            opt = {p.seq: p for p in sch_opt.placements}
            assert fixed.keys() == opt.keys()
            for seq, p in opt.items():
                assert p.start == fixed[seq].start
                assert p.duration >= fixed[seq].duration
                stretched += p.duration > fixed[seq].duration
        assert stretched > 0

    def test_qubit_bound(self):
        with pytest.raises(ConfigError):
            random_clifford_circuit(MAX_SIM_QUBITS + 1, 3, 0)


class TestRBConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RBConfig(n_qubits=MAX_SIM_QUBITS + 1, clifford_lengths=(1,))
        with pytest.raises(ConfigError):
            RBConfig(n_qubits=2, clifford_lengths=(5, 1))
        with pytest.raises(ConfigError):
            RBConfig(n_qubits=2, clifford_lengths=(1,), circuits_per_length=0)
        with pytest.raises(ConfigError):
            RBConfig(n_qubits=2, clifford_lengths=(1,), shots=-1)

    @pytest.mark.parametrize("lengths", [(0,), (True,), (2.5,), ("2",), (1, None)],
                             ids=["zero", "bool", "fractional", "string", "none"])
    def test_non_integer_length_is_config_error(self, lengths):
        with pytest.raises(ConfigError, match="clifford length"):
            RBConfig(n_qubits=2, clifford_lengths=lengths)

    @pytest.mark.parametrize("field", ["n_qubits", "circuits_per_length", "seed", "shots"])
    @pytest.mark.parametrize("value", [True, 2.5, 2.0, "2", None])
    def test_non_integer_count_is_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RBConfig(**{"n_qubits": 2, "clifford_lengths": (1,), field: value})

    def test_numpy_integers_accepted(self):
        cfg = RBConfig(n_qubits=np.int64(2), clifford_lengths=(1,), circuits_per_length=np.int32(1),
                       seed=np.int64(3), shots=np.uint16(8))
        assert cfg.shots == 8


@pytest.fixture(scope="module")
def small_rb():
    cfg = RBConfig(
        n_qubits=2,
        clifford_lengths=(1, 3),
        circuits_per_length=3,
        seed=42,
        shots=128,
    )
    gs = ideal_static(2)
    nm = NoiseModel()
    return run_rb(cfg, gs, nm), cfg


class TestRunRB:
    def test_row_counts_and_policies(self, small_rb):
        result, cfg = small_rb
        assert len(result.rows) == 2 * len(cfg.clifford_lengths) * cfg.circuits_per_length
        assert {r.policy for r in result.rows} == {FIXED, OPTIMIZED}

    def test_paired_latency_equality(self, small_rb):
        result, _ = small_rb
        assert result.paired_latencies_equal()

    def test_p0_in_unit_interval(self, small_rb):
        result, _ = small_rb
        for r in result.rows:
            assert 0.0 <= r.p0 <= 1.0 + 1e-12

    def test_deterministic_rerun(self, small_rb):
        result, cfg = small_rb
        again = run_rb(cfg, ideal_static(2), NoiseModel())
        assert [r.p0 for r in again.rows] == [r.p0 for r in result.rows]
        assert [r.counts for r in again.rows] == [r.counts for r in result.rows]
        assert again.durations == result.durations

    def test_counts_sum_to_shots(self, small_rb):
        result, cfg = small_rb
        for r in result.rows:
            assert sum(r.counts.values()) == cfg.shots

    def test_optimized_durations_dominate_fixed(self, small_rb):
        result, _ = small_rb
        hist = duration_histogram(result, OPTIMIZED)
        assert hist[min(hist)][1] <= 1.0
        fixed_hist = duration_histogram(result, FIXED)
        assert set(fixed_hist) == {32}


#: calibrated 3q sets the arms are compared on: (mode, duration bounds)
_CALIBRATIONS = {
    "static": ("static", {}),
    "dynamic": ("dynamic", {"min_duration": 32, "max_duration": 128}),
    "static-min64": ("static", {"min_duration": 64}),
}


@pytest.fixture(scope="module", params=list(_CALIBRATIONS))
def calibrated_3q(request):
    mode, bounds = _CALIBRATIONS[request.param]
    gs = GateSet.calibrated(mode, NoiseModel(), 3, **bounds)
    if mode == "static":
        assert all(impl.pre_frame and impl.post_frame for impl in gs.impls.values())
    return gs


class TestSharedArmGraph:
    """run_rb builds one graph per circuit for both arms and derives the
    OPTIMIZED schedule from the FIXED one; each arm must equal run_framework
    under its own policy, field for field."""

    @pytest.mark.parametrize("n_qubits, seed", [(2, 2026), (3, 2027)])
    def test_arms_equal_run_framework(self, calibrated_3q, monkeypatch, n_qubits, seed):
        gs = calibrated_3q
        circuits, schedules = [], []
        generate, simulate = bench.random_clifford_circuit, ScheduleSimulator.run_arms

        def record_circuit(*args, **kwargs):
            circuits.append(generate(*args, **kwargs))
            return circuits[-1]

        def record_schedules(self, arms, *args, **kwargs):
            schedules.extend(arms)
            return simulate(self, arms, *args, **kwargs)

        monkeypatch.setattr(bench, "random_clifford_circuit", record_circuit)
        monkeypatch.setattr(ScheduleSimulator, "run_arms", record_schedules)
        cfg = RBConfig(n_qubits=n_qubits, clifford_lengths=(1, 4), circuits_per_length=2, seed=seed, shots=8)
        result = run_rb(cfg, gs, NoiseModel())

        assert len(schedules) == 2 * len(circuits) == 8
        durations = {FIXED: Counter(), OPTIMIZED: Counter()}
        for k, circuit in enumerate(circuits):
            lowered = lower(circuit, gs)
            for arm, (policy, float_policy) in enumerate(((FIXED, None), (OPTIMIZED, FREE_FLOAT))):
                g, sch = run_framework(lowered, gs, float_policy)
                assert schedule_fields_of(schedules[2 * k + arm]) == schedule_fields_of(sch), (k, policy)
                durations[policy].update(n.duration for n in g.nodes if n.gate.kind in X_PULSE_KINDS)
        assert result.durations == durations
        assert durations[OPTIMIZED] != durations[FIXED]


class TestRunArmsOnRB:
    """``run_rb`` simulates both arms in one ``run_arms`` call; each arm must
    equal ``run`` of it alone, bit for bit."""

    @pytest.mark.parametrize("n_qubits, length", [(2, 41), (3, 7)])
    def test_calibrated_pairs(self, calibrated_3q, n_qubits, length):
        simulator = ScheduleSimulator(NoiseModel())
        stretched = 0
        for seed in range(3):
            pair = stretched_pair(lower(random_clifford_circuit(n_qubits, length, seed), calibrated_3q), calibrated_3q)
            assert_arms_equal_runs(simulator, pair, validate_states=seed == 0)
            stretched += pair[0].placements != pair[1].placements
        assert stretched > 0

    @pytest.mark.parametrize("ideal_pulses", [False, True])
    def test_five_qubit_pair(self, ideal_pulses):
        # five qubits reach the middle-qubit matmul and non-adjacent ECRs
        gs = GateSet.ideal("static", 5)
        pair = stretched_pair(lower(random_clifford_circuit(5, 3, 3), gs), gs)
        assert pair[0].placements != pair[1].placements
        assert any(abs(p.qubits[0] - p.qubits[1]) > 1 for p in pair[0].placements if p.kind == "ecr")
        assert_arms_equal_runs(ScheduleSimulator(NoiseModel(), ideal_pulses=ideal_pulses), pair)


class TestDurationHistogram:
    def test_all_critical_is_all_minimum(self):
        # a single-qubit chain has no slack anywhere
        cfg = RBConfig(
            n_qubits=1, clifford_lengths=(3,), circuits_per_length=2, seed=7, shots=8,
        )
        result = run_rb(cfg, ideal_static(1), NoiseModel())
        hist = duration_histogram(result, OPTIMIZED)
        assert set(hist) == {32}
        assert hist[min(hist)][1] == 1.0

    def test_dynamic_support_on_multiples_of_eight(self):
        cfg = RBConfig(
            n_qubits=2, clifford_lengths=(1, 3), circuits_per_length=2, seed=3, shots=8,
        )
        gs = GateSet.ideal("dynamic", 2, min_duration=32, max_duration=128)
        result = run_rb(cfg, gs, NoiseModel())
        for policy in (FIXED, OPTIMIZED):
            for d in duration_histogram(result, policy):
                assert d % 8 == 0


class TestTimescaleExport:
    def test_decay_reference_values(self):
        assert decay_reference(0.0, 180e3) == 1.0
        assert decay_reference(180e3, 180e3) == pytest.approx(math.exp(-1), abs=1e-9)
        assert decay_reference(5.0, math.inf) == 1.0

    def test_rows_and_reference_columns(self, small_rb):
        result, cfg = small_rb
        nm = NoiseModel()
        rows = export_timescale(result, nm)
        assert len(rows) == 2 * len(cfg.clifford_lengths)
        for row in rows:
            t = row["time_ns"]
            assert row["decay_t1"] == pytest.approx(math.exp(-t / 180e3), rel=1e-9)
            assert row["decay_t2"] == pytest.approx(math.exp(-t / 120e3), rel=1e-9)

    def test_policies_comparable_at_short_lengths(self, small_rb):
        # the policy comparison itself is acceptance-criterion territory;
        # here just check both policies land in the same ballpark
        result, cfg = small_rb
        rows = export_timescale(result, NoiseModel())
        by = {(r["policy"], r["length"]): r["mean_p0"] for r in rows}
        for length in cfg.clifford_lengths:
            assert abs(by[(OPTIMIZED, length)] - by[(FIXED, length)]) < 5e-3


class TestCsvWriters:
    def test_files_well_formed(self, small_rb, tmp_path):
        result, cfg = small_rb
        nm = NoiseModel()
        write_rbresult_csv(result, tmp_path / "rbresult.csv")
        write_durations_csv(result, tmp_path / "durations.csv")
        write_timescale_csv(result, nm, tmp_path / "timescale.csv")
        with open(tmp_path / "rbresult.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["length", "policy", "circuit", "p0", "latency_dt", "latency_ns", "shots"]
        assert len(rows) == 1 + len(result.rows)
        with open(tmp_path / "timescale.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["policy", "length", "time_ns", "mean_p0", "decay_t1", "decay_t2"]
        with open(tmp_path / "durations.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["policy", "duration_dt", "count", "fraction"]
        fractions = [float(r[3]) for r in rows[1:] if r[0] == OPTIMIZED]
        assert sum(fractions) == pytest.approx(1.0)
