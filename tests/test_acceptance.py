"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The randomized-benchmarking fixtures simulate the
full 90-circuit suite under both scheduling policies, so this module takes
a few minutes end to end.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    FIG2_TEXT,
    apply_superop,
    choi,
    equal_up_to_phase,
    random_circuit,
    u3_matrix,
)
from pulsesched.bench import (
    FIXED,
    OPTIMIZED,
    PAPER_LENGTHS,
    RBConfig,
    duration_histogram,
    random_clifford_circuit,
    run_rb,
)
from pulsesched.circuit import (
    Circuit,
    Gate,
    decompose_dynamic,
    decompose_static,
    merge_virtual_z,
    parse_circuit,
)
from pulsesched.gateset import (
    DEFAULT_ECR_DURATION,
    DEFAULT_STATIC_DURATIONS,
    GateSet,
    sigma_of_duration,
)
from pulsesched.pulses import (
    DRAG,
    GAUSSIAN,
    GAUSSIAN_SQUARE,
    ShapeSpec,
    evaluate_envelope,
    synthesize,
)
from pulsesched.scheduler import (
    build_graph,
    cpm,
    critical_path,
    initial_durations,
    lower,
    optimize_durations,
)
from pulsesched.sim import (
    NoiseModel,
    ecr_channel,
    gate_channel,
    idle_channel,
)

from test_scheduler import brute_force_cpm, random_dag_graph


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def calibrated(request):
    start = time.perf_counter()
    gs = GateSet.calibrated("static", NoiseModel(), n_qubits=3)
    return gs, time.perf_counter() - start


@pytest.fixture(scope="module")
def rb_suite(calibrated):
    """Paper-shaped RB runs: min-32 and min-64 static configs under default
    noise, plus the noiseless ideal-pulse baseline.  Returns (runs, noiseless,
    seconds of the min-32 suite)."""
    gs32, _ = calibrated
    nm = NoiseModel()
    runs = {}
    suite_seconds = 0.0
    for min_dur in (32, 64):
        gs = replace(gs32, min_duration=min_dur)
        start = time.perf_counter()
        for n_qubits, lengths in PAPER_LENGTHS.items():
            cfg = RBConfig(
                n_qubits=n_qubits,
                clifford_lengths=lengths,
                circuits_per_length=10,
                seed=2000 + min_dur + n_qubits,
                shots=1024,
            )
            runs[(min_dur, n_qubits)] = run_rb(cfg, gs, nm)
        elapsed = time.perf_counter() - start
        if min_dur == 32:
            suite_seconds = elapsed
    noiseless = {}
    quiet = NoiseModel.noiseless()
    ideal_gs = GateSet.ideal("static", 3, min_duration=32)
    for n_qubits, lengths in PAPER_LENGTHS.items():
        cfg = RBConfig(
            n_qubits=n_qubits,
            clifford_lengths=lengths,
            circuits_per_length=10,
            seed=2032 + n_qubits,
            shots=16,
        )
        noiseless[n_qubits] = run_rb(cfg, ideal_gs, quiet, ideal_pulses=True)
    return runs, noiseless, suite_seconds


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_latency_invariance():
    with report(1, "latency invariance on 1000 random + 90 paper-shaped circuits"):
        gs = GateSet.ideal("static", 6, min_duration=32)
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(1000):
            n_qubits = int(rng.integers(2, 7))
            n_gates = int(rng.integers(1, 61))
            c = merge_virtual_z(decompose_static(random_circuit(rng, n_qubits, n_gates)))
            durations = initial_durations(c, gs)
            g = build_graph(c, durations)
            before = cpm(g)
            optimize_durations(g, gs)
            assert g.makespan == before
        for n_qubits, lengths in PAPER_LENGTHS.items():
            for length in lengths:
                for idx in range(10):
                    raw = random_clifford_circuit(n_qubits, length, (n_qubits, length, idx))
                    c = lower(raw, gs)
                    g = build_graph(c, initial_durations(c, gs))
                    before = cpm(g)
                    optimize_durations(g, gs)
                    assert g.makespan == before
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"latency sweep took {elapsed:.1f} s"


def test_criterion_2_cpm_oracle_equivalence():
    with report(2, "CPM equals exhaustive longest-path enumeration on 500 DAGs"):
        rng = np.random.default_rng(1002)
        start = time.perf_counter()
        for _ in range(500):
            g = random_dag_graph(rng, int(rng.integers(1, 13)))
            cpm(g)
            es, ef, ls, lf = brute_force_cpm(g)
            crit = {i for i in range(len(g.nodes)) if es[i] == ls[i]}
            for i, n in enumerate(g.nodes):
                assert (n.es, n.ef, n.ls, n.lf) == (es[i], ef[i], ls[i], lf[i])
            assert critical_path(g) == crit
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_3_worked_example_slacks():
    with report(3, "worked example: 128 and 64 dt slacks off the critical path"):
        c = parse_circuit(FIG2_TEXT)
        durations = {g.id: (64 if g.kind == "sx" else 1320) for g in c.gates}
        g = build_graph(c, durations)
        cpm(g)
        assert g.nodes[3].slack == 128
        assert g.nodes[7].slack == 64
        crit = critical_path(g)
        assert 3 not in crit and 7 not in crit
        assert crit == {0, 1, 2, 4, 5, 6, 8, 9}


def test_criterion_4_sigma_rule():
    with report(4, "sigma(64) = 96 and sigma(120) = 30 within 0.1"):
        assert abs(sigma_of_duration(64) - 96.0) <= 0.1
        assert abs(sigma_of_duration(120) - 30.0) <= 0.1


def test_criterion_5_waveform_identities():
    with report(5, "waveform identities: DRAG derivative, peaks, plateau"):
        start = time.perf_counter()
        for sigma in (16.0, 24.0, 32.0):
            d = int(12 * sigma)
            a, beta = 0.5, 0.1
            spec = ShapeSpec(shape=DRAG, amplitude=a, duration=d, sigma=sigma, beta=beta)
            w = synthesize(spec)
            t = np.arange(d, dtype=float)
            analytic = beta * (-(t - d / 2) / sigma**2) * w.samples.real
            assert np.max(np.abs(w.samples.imag - analytic)) <= 1e-12
            h = 1e-3
            fd = (evaluate_envelope(spec, t + h).real - evaluate_envelope(spec, t - h).real) / (2 * h)
            assert np.max(np.abs(w.samples.imag - beta * fd)) <= 1e-6 * a
        gauss = synthesize(ShapeSpec(shape=GAUSSIAN, amplitude=0.37, duration=64, sigma=20.0))
        assert gauss.samples[32].real == pytest.approx(0.37, abs=1e-15)
        gsq = ShapeSpec(shape=GAUSSIAN_SQUARE, amplitude=0.21, duration=120, sigma=30.0, width=60)
        wsq = synthesize(gsq)
        r = int(gsq.risefall)
        assert np.allclose(wsq.samples[r : r + 60].real, 0.21, atol=1e-15)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_6_calibration_loop(calibrated):
    with report(6, "calibration loop: 120 dt Sx fidelity and 105 kHz anchor"):
        gs, seconds = calibrated
        for qubit in range(3):
            impl = gs.impl_for(qubit, "sx", math.pi / 2, 120)
            assert impl.fidelity is not None and impl.fidelity >= 0.999
            table = gs.rabi[qubit]
            assert table.amplitudes[0] == pytest.approx(0.001)
            assert abs(table.omegas_hz[0] - 105e3) <= 0.10 * 105e3
        assert seconds < 60.0, f"calibration took {seconds:.1f} s"


def test_criterion_7_decomposition_correctness():
    with report(7, "1000 random U3 triples per mode reproduce the matrix"):
        rng = np.random.default_rng(1007)
        for mode_fn in (decompose_static, decompose_dynamic):
            for _ in range(1000):
                theta, phi, lam = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
                c = Circuit(
                    width=1,
                    gates=(Gate(id=0, kind="u3", qubits=(0,), angles=(theta, phi, lam)),),
                )
                out = mode_fn(c)
                from conftest import gate_matrix

                u = np.eye(2, dtype=complex)
                for g in out.gates:
                    u = gate_matrix(g) @ u
                assert equal_up_to_phase(u, u3_matrix(theta, phi, lam), tol=1e-12)


def test_criterion_8_rb_property_acceptance(rb_suite):
    # Sub-criterion (a) once failed on these seeds (e.g. min=32 n=2 L=121:
    # 0.327239 < 0.327271) through two program faults, each of which alone
    # keeps it red:
    # 1. The OPTIMIZED arm stretched gates into total float (LF - EF).  A
    #    stretch pushed successors later, so near the end of a sequence a
    #    qubit stayed mid-sequence through time it would otherwise spend
    #    idling in the decay-immune |0> (10 of 18 rows lost, by up to
    #    2.4e-3).  Mend: run_rb stretches only into free float
    #    (min(successor ES) - EF), so every pulse starts when its fixed twin
    #    does and only fills idle time before the next gate.
    # 2. Simulator idles applied decoherence alone and dropped the bare
    #    anharmonic phase that level |2> gains during pulses, so the phase of
    #    leaked population depended on pulse lengths, not elapsed time.
    #    Mend: an idle is decoherence composed with exp(-i 2 pi alpha t |2><2|).
    # With both, every row on these seeds has optimized >= fixed.
    with report(8, "RB properties: optimized >= fixed, histogram ordering, identity"):
        runs, noiseless, suite_seconds = rb_suite
        # (a) optimized mean P(0) never below fixed; strictly above at the
        # longest length, for both the min-32 and min-64 static configs
        for (min_dur, n_qubits), result in runs.items():
            lengths = result.lengths()
            for length in lengths:
                opt = result.mean_p0(length, OPTIMIZED)
                fix = result.mean_p0(length, FIXED)
                assert opt >= fix - 1e-12, (
                    f"min={min_dur} n={n_qubits} length={length}: {opt} < {fix}"
                )
            longest = lengths[-1]
            assert result.mean_p0(longest, OPTIMIZED) > result.mean_p0(longest, FIXED)
            assert result.paired_latencies_equal()
        # (b) optimized 3-qubit circuits keep fewer gates at minimum duration
        for min_dur in (32, 64):
            hist2, hist3 = (duration_histogram(runs[(min_dur, n)], OPTIMIZED) for n in (2, 3))
            frac2, frac3 = hist2[min(hist2)][1], hist3[min(hist3)][1]
            assert frac3 < frac2, f"min={min_dur}: {frac3} !< {frac2}"
        # (c) noiseless ideal-pulse baseline returns P(0) = 1 for all circuits
        for n_qubits, result in noiseless.items():
            for row in result.rows:
                assert abs(row.p0 - 1.0) <= 1e-6
        assert suite_seconds < 600.0, f"RB suite took {suite_seconds:.0f} s"


def test_criterion_9_physicality_suite(calibrated):
    with report(9, "physicality: Choi PSD, idle semigroup, T1 closed form"):
        gs, _ = calibrated
        nm = NoiseModel()

        def assert_choi_psd(channel):
            j = choi(channel)
            evals = np.linalg.eigvalsh((j + j.conj().T) / 2)
            assert evals.min() > -1e-8

        for d in DEFAULT_STATIC_DURATIONS:
            impl = gs.impl_for(0, "sx", math.pi / 2, d)
            assert_choi_psd(gate_channel(synthesize(impl.shape), nm, 0))
        for t in (0, 17, 512, 31007):
            assert_choi_psd(idle_channel(t, nm, 0))
        assert_choi_psd(ecr_channel(nm, (0, 1), DEFAULT_ECR_DURATION))

        for a, b in ((1, 2), (137, 545), (4096, 12345)):
            left = idle_channel(a, nm, 0) @ idle_channel(b, nm, 0)
            right = idle_channel(a + b, nm, 0)
            assert np.max(np.abs(left - right)) < 1e-12

        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        for t_dt in (100, 9999, 123456):
            out = apply_superop(idle_channel(t_dt, nm, 0), rho)
            expected = math.exp(-(t_dt * 0.5e-9) / (nm.t1(0) * 1e-9))
            assert abs(out[1, 1].real - expected) < 1e-9
