"""Three-level simulator: propagation, channels, physicality, Rabi sweeps.

``ScheduleSimulator.run`` fuses each qubit's idles and pulses into one
pending channel between ECRs and folds its frames lazily; ``unfused_run`` is
the per-event oracle it is checked against.  States are compared as
3**w square matrices through ``DensityState.from_matrix`` and ``matrix``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import apply_superop, assert_arms_equal_runs, choi, random_circuit, rx_matrix, stretched_pair
from pulsesched.errors import ConfigError, NoiseConfigError, SimulationError
from pulsesched.gateset import DEFAULT_ECR_DURATION, GateSet, fit_rabi
from pulsesched.pulses import GAUSSIAN, GAUSSIAN_SQUARE, ShapeSpec, Waveform, synthesize
from pulsesched.schedule import FrameShift, PulsePlacement, Schedule
from pulsesched.bench import random_clifford_circuit
from pulsesched.circuit import parse_circuit
from pulsesched.scheduler import FREE_FLOAT, TOTAL_FLOAT, lower, run_framework
from pulsesched.pulses import DT_NS
from pulsesched import sim
from pulsesched.sim import (
    ECR_2Q,
    MAX_SIM_QUBITS,
    DensityState,
    NoiseModel,
    ScheduleSimulator,
    _PAULI3,
    _jump_operators,
    _kron,
    _lindblad_superop,
    anharmonic_unitary,
    contract_arms,
    dissipative_generator,
    ecr_channel,
    embed_qubit_pair,
    gate_channel,
    hamiltonian_sample,
    idle_channel,
    pair_layout,
    propagate_waveform,
    simulate_rabi,
    unitary_superop,
)

HALF_PI = math.pi / 2
NOISELESS = NoiseModel.noiseless()
DEFAULT = NoiseModel()


def sx_shape(duration=120, qubit_model=DEFAULT):
    gs = GateSet.ideal("static", 1, rabi_coefficient_hz=qubit_model.rabi_coefficient(0))
    return gs.impl_for(0, "sx", HALF_PI, duration).shape


def sx_waveform(duration=120, qubit_model=DEFAULT):
    return synthesize(sx_shape(duration, qubit_model))


def random_waveform(rng, duration=40):
    samples = 0.05 * (rng.uniform(-1, 1, duration) + 1j * rng.uniform(-1, 1, duration))
    return Waveform(samples=samples)


def unfused_run(sim, sch):
    """Per-event oracle for ScheduleSimulator.run: contract every frame,
    idle, pulse and ECR into the state as it comes, in global time order,
    with a pulse's calibration frames as explicit Rz unitaries around it."""
    state = DensityState(sch.width)
    t_last = [0] * sch.width

    def rz(angle, q):
        state.apply_local_unitary(np.diag([1.0, np.exp(1j * angle), np.exp(2j * angle)]), (q,))

    def idle_to(q, t):
        gap = t - t_last[q]
        if gap > 0:
            state.apply_local_superop(sim._channel((gap, q), sim._idle_superop, gap, q), (q,))
        t_last[q] = t

    for ev in sch.events():
        if isinstance(ev, FrameShift):
            rz(ev.angle, ev.qubit)
            continue
        for q in ev.qubits:
            idle_to(q, ev.start)
        if ev.kind == "ecr":
            s = pair_layout(ecr_channel(sim.nm, ev.qubits, ev.duration), ev.qubits)
        else:
            q = ev.qubits[0]
            s = sim._pulse_superop(ev.shape, q, ev.angle, 0.0, 0.0)
            if not sim.ideal_pulses:
                rz(ev.pre_frame, q)
        state.apply_local_superop(s, tuple(sorted(ev.qubits)))
        if ev.kind != "ecr" and not sim.ideal_pulses:
            rz(ev.post_frame, ev.qubits[0])
        for q in ev.qubits:
            t_last[q] = ev.start + ev.duration
    for q in range(sch.width):
        idle_to(q, sch.makespan)
    return state


class TestPropagateWaveform:
    def test_equals_per_sample_expm_product(self):
        # the stacked eigendecomposition reproduces the time-ordered product
        # of per-sample exponentials for every static menu waveform
        gs = GateSet.ideal("static", 1)
        kappa, alpha = DEFAULT.rabi_coefficient(0), DEFAULT.anharmonicity(0)
        for d in gs.static_durations:
            w = synthesize(gs.impl_for(0, "sx", HALF_PI, d).shape)
            u = np.eye(3, dtype=complex)
            for s in w.samples:
                u = expm(-1j * hamiltonian_sample(s, kappa, alpha) * 0.5e-9) @ u
            assert np.max(np.abs(propagate_waveform(w, DEFAULT) - u)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 511, 512, 513])
    def test_pairwise_equals_sequential_product(self, n):
        # the pairwise product of the stacked steps equals multiplying them
        # one sample at a time in time order
        rng = np.random.default_rng(n)
        samples = 0.7 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        w = Waveform(samples=samples)
        h = hamiltonian_sample(samples[:, None, None], DEFAULT.rabi_coefficient(0), DEFAULT.anharmonicity(0))
        evals, evecs = np.linalg.eigh(h)
        steps = (evecs * np.exp(-1j * evals * DT_NS * 1e-9)[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
        u = np.eye(3, dtype=complex)
        for step in steps:
            u = step @ u
        assert np.max(np.abs(propagate_waveform(w, DEFAULT) - u)) < 1e-13

    def test_zero_waveform_identity_with_level2_phase(self):
        w = Waveform(samples=np.zeros(100, dtype=complex))
        u = propagate_waveform(w, DEFAULT)
        assert abs(u[0, 0] - 1) < 1e-12 and abs(u[1, 1] - 1) < 1e-12
        assert abs(abs(u[2, 2]) - 1) < 1e-12
        t_s = 100 * 0.5e-9
        expected_phase = np.exp(-1j * 2 * np.pi * DEFAULT.anharmonicity(0) * t_s)
        assert abs(u[2, 2] - expected_phase) < 1e-9

    def test_unitarity_random_waveforms(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = propagate_waveform(random_waveform(rng), DEFAULT)
            assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10

    def test_large_detuning_sx_block(self):
        # pushing the level-2 detuning out suppresses leakage; the qubit block
        # approaches the ideal quarter x-turn
        nm = NoiseModel(anharmonicity_hz=-50e9, rabi_coefficient_hz=1.05e8)
        w = sx_waveform(120, nm)
        u = propagate_waveform(w, nm)
        block = u[:2, :2]
        phase = block[0, 0] / abs(block[0, 0])
        assert np.max(np.abs(block / phase - rx_matrix(HALF_PI))) < 1e-3


class TestGateChannel:
    def test_infinite_t1_t2_purely_unitary(self):
        w = sx_waveform(64)
        ch = gate_channel(w, NOISELESS)
        u = propagate_waveform(w, NOISELESS)
        assert np.max(np.abs(ch - unitary_superop(u))) < 1e-12

    def test_excited_population_decays_closed_form(self):
        t_dt = 12345
        ch = idle_channel(t_dt, DEFAULT, 0)
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        out = apply_superop(ch, rho)
        t_s = t_dt * 0.5e-9
        assert abs(out[1, 1].real - math.exp(-t_s / (DEFAULT.t1(0) * 1e-9))) < 1e-9

    def test_choi_psd_and_trace_preserving(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ch = gate_channel(random_waveform(rng), DEFAULT)
            j = choi(ch)
            evals = np.linalg.eigvalsh((j + j.conj().T) / 2)
            assert evals.min() > -1e-8
            rho = np.eye(3, dtype=complex) / 3
            assert abs(np.trace(apply_superop(ch, rho)).real - 1.0) < 1e-10

    def test_unphysical_t2_rejected(self):
        with pytest.raises(NoiseConfigError):
            NoiseModel(t1_ns=100.0, t2_ns=250.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t1_ns": 0.0},
            {"t2_ns": -1.0},
            {"t1_ns": [180e3, float("nan")]},
            {"rabi_coefficient_hz": 0.0},
            {"rabi_coefficient_hz": -1e8},
            {"rabi_coefficient_hz": math.inf},
            {"rabi_coefficient_hz": None},
            {"anharmonicity_hz": None},
            {"anharmonicity_hz": math.inf},
            {"anharmonicity_hz": [-330e6, 0.0]},
            # positive, but too short for 1/T to be a finite rate in 1/s
            {"t2_ns": 5e-324},
            {"t1_ns": [180e3, 1e-300]},
            # finite, but an H_k row at a sample of magnitude 1 overflows
            {"anharmonicity_hz": 1e308},
            {"anharmonicity_hz": [-330e6, -1e308]},
            {"rabi_coefficient_hz": 1e308},
            {"anharmonicity_hz": 2.8e307, "rabi_coefficient_hz": 1.12e307},
        ],
    )
    def test_unphysical_values_rejected(self, kwargs):
        with pytest.raises(NoiseConfigError):
            NoiseModel(**kwargs)

    @given(
        name=st.sampled_from(["t1_ns", "t2_ns", "anharmonicity_hz", "rabi_coefficient_hz", "ecr_fidelity"]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
            max_leaves=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_json_values_are_floats_or_rejected(self, name, value):
        # a JSON noise field is a number or null, or for a per-qubit field a
        # list of those; a bool, a string, an object or a nested list raises
        def number(v):
            return type(v) in (int, float)

        per_qubit = name != "ecr_fidelity"
        well_typed = number(value) or per_qubit and (
            value is None or type(value) is list and all(v is None or number(v) for v in value))
        try:
            nm = NoiseModel(**{name: value})
        except NoiseConfigError:
            return
        assert well_typed
        for q in range(len(value) if type(value) is list else 1):
            assert all(type(x) is float for x in (nm.t1(q), nm.t2(q), nm.anharmonicity(q), nm.rabi_coefficient(q)))

    @pytest.mark.parametrize("kwargs", [{"anharmonicity_hz": 1e307}, {"rabi_coefficient_hz": 1e307},
                                        {"anharmonicity_hz": -1.5e307, "rabi_coefficient_hz": 5e306}])
    def test_huge_finite_hamiltonian_propagates(self, kwargs):
        nm = NoiseModel(**kwargs)
        samples = np.array([1.0, 1j, -1.0, -1j, 0.5])
        assert np.isfinite(propagate_waveform(Waveform(samples), nm)).all()

    def test_overflowing_idle_phase_raises(self):
        with pytest.raises(SimulationError, match="anharmonic phase"):
            anharmonic_unitary(1000, NoiseModel(anharmonicity_hz=1e307))

    def test_none_and_inf_mean_no_decay(self):
        for t in (None, math.inf):
            nm = NoiseModel(t1_ns=t, t2_ns=t)
            assert nm.t1(0) == nm.t2(0) == math.inf


def expm_idle_oracle(duration_dt, nm, qubit):
    """expm(t * dissipative_generator), as the product of the exponentials of
    its amplitude damping and dephasing parts, which commute.

    Summed into one generator, a dephasing rate far above 1/T1 cancels
    itself on the level-1 population only to its own rounding, which expm
    carries into the channel: T1 = 229401 ns, T2 = 0.5 ns and 393 dt put
    rho_11's decay 1.0e-14 from exp(-t/T1).  Apart, neither part mixes a
    large rate into a small one.
    """
    t_s = duration_dt * DT_NS * 1e-9
    jumps = _jump_operators(nm.t1(qubit), nm.t2(qubit))
    damping = [L for L in jumps if L[0, 0] == 0]
    dephasing = [L for L in jumps if L[0, 0] != 0]
    return expm(t_s * _lindblad_superop(damping)) @ expm(t_s * _lindblad_superop(dephasing))


@st.composite
def decay_times(draw):
    """A (T1, T2) pair in ns: T1 in [1e3, 1e6] or None, T2 in (0, 2 T1] or
    None, and T2 = 2 T1 exactly (no pure dephasing) as a case of its own.
    ``NoiseModel`` takes T2 down to about 5.6e-300 ns, where 1/T2 in 1/s
    is still finite."""
    t1 = draw(st.none() | st.floats(1e3, 1e6))
    cap = 2.0 * (1e6 if t1 is None else t1)
    t2 = draw(st.none() | st.just(cap) | st.floats(1e-299, cap))
    return t1, t2


class TestIdleChannel:
    def test_zero_time_identity(self):
        ch = idle_channel(0, DEFAULT, 0)
        assert np.max(np.abs(ch - np.eye(9))) < 1e-12

    def test_plus_state_coherence_decay(self):
        t_dt = 54321
        ch = idle_channel(t_dt, DEFAULT, 0)
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = 0.5
        out = apply_superop(ch, rho)
        t_s = t_dt * 0.5e-9
        assert abs(abs(out[0, 1]) - 0.5 * math.exp(-t_s / (DEFAULT.t2(0) * 1e-9))) < 1e-9

    def test_semigroup_composition(self):
        a, b = 137, 545
        ea = idle_channel(a, DEFAULT, 0)
        eb = idle_channel(b, DEFAULT, 0)
        eab = idle_channel(a + b, DEFAULT, 0)
        assert np.max(np.abs(ea @ eb - eab)) < 1e-12

    def test_choi_psd(self):
        j = choi(idle_channel(997, DEFAULT, 0))
        evals = np.linalg.eigvalsh((j + j.conj().T) / 2)
        assert evals.min() > -1e-8

    @pytest.mark.parametrize("duration", [-1, -1e-9, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [idle_channel, anharmonic_unitary])
    def test_bad_duration_raises(self, build, duration):
        with pytest.raises(SimulationError, match="finite and non-negative"):
            build(duration, DEFAULT, 0)

    @settings(max_examples=200, deadline=None)
    @given(decays=st.lists(decay_times(), min_size=1, max_size=3),
           duration=st.integers(0, 10**8) | st.floats(0.0, 1e8))
    def test_equals_expm_of_generator(self, decays, duration):
        nm = NoiseModel(t1_ns=[t1 for t1, _ in decays], t2_ns=[t2 for _, t2 in decays])
        for q in range(len(decays)):
            assert np.max(np.abs(idle_channel(duration, nm, q) - expm_idle_oracle(duration, nm, q))) <= 1e-14

    @pytest.mark.parametrize("nm", [DEFAULT, NOISELESS], ids=["default", "noiseless"])
    @pytest.mark.parametrize("gap", [1, 37, 997, DEFAULT_ECR_DURATION, 54321])
    def test_idle_superop_is_decay_after_phase(self, nm, gap):
        want = idle_channel(gap, nm, 0) @ unitary_superop(anharmonic_unitary(gap, nm, 0))
        assert np.max(np.abs(ScheduleSimulator(nm)._idle_superop(gap, 0) - want)) <= 1e-14


class TestEcrChannel:
    def test_noiseless_is_unitary_conjugation(self):
        ch = ecr_channel(NOISELESS, (0, 1), DEFAULT_ECR_DURATION)
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_superop(ch, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        evals = np.linalg.eigvalsh((out + out.conj().T) / 2)
        assert evals.min() > -1e-10
        # pure state stays pure under the ideal gate
        assert abs(np.trace(out @ out).real - 1.0) < 1e-10

    def test_depolarizing_shrinks_purity(self):
        ch = ecr_channel(NoiseModel(t1_ns=None, t2_ns=None, ecr_fidelity=0.95), (0, 1), DEFAULT_ECR_DURATION)
        rho = np.zeros((9, 9), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_superop(ch, rho)
        assert np.trace(out @ out).real < 1.0 - 1e-4


def _schedule_from_pulses(pulses, width, makespan, frames=()):
    """Schedule of (qubits, start, ShapeSpec) sx pulses, one waveform id each."""
    placements = [
        PulsePlacement(qubits=qubits, start=start, kind="sx", angle=HALF_PI, waveform_id=f"w{seq}", shape=spec, seq=seq)
        for seq, (qubits, start, spec) in enumerate(pulses)
    ]
    return Schedule(width=width, makespan=makespan, placements=placements, frames=list(frames))


class TestRunSchedule:
    def test_empty_schedule(self):
        sch = Schedule(width=1, makespan=0)
        res = ScheduleSimulator(NOISELESS).run(sch, shots=16, seed=1)
        assert res.p0 == pytest.approx(1.0, abs=1e-12)

    def test_double_sx_flips_qubit(self):
        # an "ideal" Sx: leakage suppressed by a large level-2 detuning and
        # the amplitude solved to an exact quarter turn
        from scipy.optimize import brentq

        nm = NoiseModel.noiseless(anharmonicity_hz=-50e9)
        base = GateSet.ideal("static", 1).impl_for(0, "sx", HALF_PI, 120).shape

        def rotation_error(amp):
            from dataclasses import replace

            u = propagate_waveform(synthesize(replace(base, amplitude=amp)), nm)
            return 2 * math.atan2(abs(u[1, 0]), abs(u[0, 0])) - HALF_PI

        a = brentq(rotation_error, 0.8 * base.amplitude, 1.2 * base.amplitude, xtol=1e-14)
        from dataclasses import replace

        spec = replace(base, amplitude=a)
        sch = _schedule_from_pulses([((0,), 0, spec), ((0,), 120, spec)], 1, 240)
        res = ScheduleSimulator(nm).run(sch, shots=64, seed=2)
        assert res.p0 == pytest.approx(0.0, abs=1e-6)
        assert res.probabilities["1"] == pytest.approx(1.0, abs=1e-6)

    def test_width_capped(self):
        sch = Schedule(width=MAX_SIM_QUBITS + 1, makespan=0)
        with pytest.raises(SimulationError):
            ScheduleSimulator(NOISELESS).run(sch)

    @pytest.mark.parametrize("shots", [-1, 2.5, True, "8", None])
    def test_bad_shot_count_is_config_error(self, shots):
        sch = _schedule_from_pulses([((0,), 0, sx_shape(64, DEFAULT))], 1, 64)
        with pytest.raises(ConfigError, match="shots"):
            ScheduleSimulator(DEFAULT).run(sch, shots=shots)
        with pytest.raises(ConfigError, match="shots"):
            ScheduleSimulator(DEFAULT).run(Schedule(width=0, makespan=0), shots=shots)

    @pytest.mark.parametrize("shots", [0, 3, np.int64(3)])
    def test_integer_shot_counts_accepted(self, shots):
        sch = _schedule_from_pulses([((0,), 0, sx_shape(64, DEFAULT))], 1, 64)
        res = ScheduleSimulator(DEFAULT).run(sch, shots=shots, seed=1)
        assert res.shots == shots and sum(res.counts.values()) == shots

    def test_counts_deterministic_and_sum_to_shots(self):
        spec = sx_shape(64, DEFAULT)
        sch = _schedule_from_pulses([((0,), 0, spec)], 1, 64)
        r1 = ScheduleSimulator(DEFAULT).run(sch, shots=500, seed=11)
        r2 = ScheduleSimulator(DEFAULT).run(sch, shots=500, seed=11)
        assert r1.counts == r2.counts
        assert sum(r1.counts.values()) == 500

    def test_disjoint_same_time_channels_commute(self):
        spec = sx_shape(64, DEFAULT)
        a = _schedule_from_pulses([((0,), 0, spec), ((1,), 0, spec)], 2, 64)
        b = _schedule_from_pulses([((1,), 0, spec), ((0,), 0, spec)], 2, 64)
        pa = ScheduleSimulator(DEFAULT).run(a, shots=1, seed=0).probabilities
        pb = ScheduleSimulator(DEFAULT).run(b, shots=1, seed=0).probabilities
        for k in pa:
            assert pa[k] == pytest.approx(pb[k], abs=1e-12)

    def test_frame_shift_equals_phased_pulse(self):
        # virtual-Z realized as a frame event must match baking the phase
        # into the subsequent waveform
        lam = 0.7
        base = ShapeSpec(shape=GAUSSIAN, amplitude=0.04, duration=64, sigma=20.0)
        shifted = ShapeSpec(shape=GAUSSIAN, amplitude=0.04, duration=64, sigma=20.0, phase=-lam)
        framed = _schedule_from_pulses(
            [((0,), 0, base)], 1, 64, frames=[FrameShift(qubit=0, time=0, angle=lam, seq=-1)]
        )
        baked = _schedule_from_pulses([((0,), 0, shifted)], 1, 64)
        p_framed = ScheduleSimulator(NOISELESS).run(framed, shots=1, seed=0).probabilities
        p_baked = ScheduleSimulator(NOISELESS).run(baked, shots=1, seed=0).probabilities
        # the frame leaves a pending Rz(lam), invisible in the z basis
        for k in p_framed:
            assert p_framed[k] == pytest.approx(p_baked[k], abs=1e-12)

    def test_physicality_along_the_way(self):
        gs = GateSet.ideal("static", 2)
        from pulsesched.circuit import decompose_static, merge_virtual_z, parse_circuit

        c = merge_virtual_z(decompose_static(parse_circuit(
            "u3 q0 1.0,0.3,0.2\necr q0 q1\nu3 q1 2.1,0.0,0.4\necr q1 q0\nmeasure q0\nmeasure q1"
        )))
        _, sch = run_framework(c, gs)
        ScheduleSimulator(DEFAULT).run(sch, shots=4, seed=3, validate_states=True)

    def test_leakage_monotone_in_duration(self):
        # plain Gaussian Sx: the |2> population after one pulse shrinks as the
        # pulse stretches (the mechanism favoring longer gates off the path)
        leaks = []
        for d in (32, 48, 64, 120):
            u = propagate_waveform(sx_waveform(d, NOISELESS), NOISELESS)
            leaks.append(abs(u[2, 0]) ** 2)
        assert all(a > b for a, b in zip(leaks, leaks[1:]))

    def test_ideal_pulses_is_keyword_only(self):
        # a positional second argument once meant the sample time; it must
        # not silently switch on ideal pulses
        with pytest.raises(TypeError):
            ScheduleSimulator(DEFAULT, 0.5)

    def test_short_per_qubit_noise_list_is_config_error(self):
        gs = GateSet.ideal("static", 2)
        _, sch = run_framework(lower(parse_circuit("sx q0\nsx q1"), gs), gs)
        with pytest.raises(NoiseConfigError):
            ScheduleSimulator(NoiseModel(t1_ns=[180e3])).run(sch)

    def test_ideal_pulses_skip_calibration_frames(self):
        # pre/post frames null an integrated pulse's phase error; an ideal
        # pulse has none, so replaying them would rotate the qubit off course
        gs = with_calibration_frames(GateSet.ideal("static", 2), np.random.default_rng(0))
        _, sch = run_framework(lower(random_clifford_circuit(2, 5, 0), gs), gs)
        assert all(p.pre_frame and p.post_frame for p in sch.placements if p.kind == "sx")
        res = ScheduleSimulator(NOISELESS, ideal_pulses=True).run(sch, shots=1, seed=0)
        assert res.p0 == pytest.approx(1.0, abs=1e-9)
        assert ScheduleSimulator(NOISELESS).run(sch, shots=1, seed=0).p0 < 0.99


def with_calibration_frames(gs, rng):
    """The gate set with nonzero pre/post frames drawn onto every impl."""
    gs.impls = {
        k: replace(i, pre_frame=float(rng.uniform(-3, 3)), post_frame=float(rng.uniform(-3, 3)))
        for k, i in gs.impls.items()
    }
    return gs


def check_against_unfused_oracle(seed, n_qubits, n_gates, mode, ideal_pulses, noiseless, policy):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n_qubits, n_gates)
    gs = GateSet.ideal(mode, n_qubits)
    if mode == "static":
        gs = with_calibration_frames(gs, rng)
    _, sch = run_framework(lower(c, gs), gs, policy)
    sim = ScheduleSimulator(NOISELESS if noiseless else DEFAULT, ideal_pulses=ideal_pulses)
    fused = sim.run(sch, shots=1, seed=0)
    oracle = unfused_run(sim, sch)
    assert fused.p0 == pytest.approx(oracle.p_zero(), abs=1e-12)
    expected = oracle.probabilities()
    assert fused.probabilities.keys() == expected.keys()
    for k, p in expected.items():
        assert fused.probabilities[k] == pytest.approx(p, abs=1e-12)


def fusion_cases(widths):
    return dict(
        seed=st.integers(0, 2**32 - 1),
        n_qubits=st.sampled_from(widths),
        n_gates=st.integers(1, 30),
        mode=st.sampled_from(["static", "dynamic"]),
        ideal_pulses=st.booleans(),
        noiseless=st.booleans(),
        policy=st.sampled_from([FREE_FLOAT, TOTAL_FLOAT]),
    )


class TestFusion:
    @given(**fusion_cases([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_matches_unfused_oracle(self, **case):
        check_against_unfused_oracle(**case)

    # widths 4 and 5 reach the middle-qubit matmul and the non-adjacent and
    # reversed pair paths; they are slow, so they get a few examples only
    @given(**fusion_cases([4, 5]))
    @settings(max_examples=4, deadline=None)
    def test_matches_unfused_oracle_wide(self, **case):
        check_against_unfused_oracle(**case)

    def test_one_contraction_per_ecr_operand_and_qubit(self, monkeypatch):
        # frames fold into the pending channels, so no unitary contraction
        # runs; each ECR flushes its two operands and applies itself, and
        # the end flushes every qubit once
        calls = {"superop": 0, "unitary": 0}

        def count(name, original):
            def wrapped(*args):
                calls[name] += 1
                return original(*args)
            return wrapped

        monkeypatch.setattr(sim, "contract_arms", count("superop", sim.contract_arms))
        monkeypatch.setattr(DensityState, "apply_local_unitary", count("unitary", DensityState.apply_local_unitary))
        gs = GateSet.ideal("static", 3)
        _, sch = run_framework(lower(random_clifford_circuit(3, 5, 7), gs), gs, FREE_FLOAT)
        n_ecr = sum(p.kind == "ecr" for p in sch.placements)
        assert n_ecr > 0 and sch.frames
        ScheduleSimulator(DEFAULT).run(sch, shots=1, seed=0)
        assert calls["unitary"] == 0
        assert 0 < calls["superop"] <= 3 * n_ecr + sch.width

    @pytest.mark.parametrize("n_qubits", [4, 5])
    def test_wide_rb_composes_to_identity(self, n_qubits):
        gs = GateSet.ideal("static", n_qubits)
        for seed in (0, 1):
            _, sch = run_framework(lower(random_clifford_circuit(n_qubits, 3, seed), gs), gs, FREE_FLOAT)
            res = ScheduleSimulator(NOISELESS, ideal_pulses=True).run(sch, shots=1, seed=0)
            assert res.p0 == pytest.approx(1.0, abs=1e-9)


class TestSxdgAsFramedSx:
    """Static lowering plays Sx^-1 as Rz(pi).Sx.Rz(pi).  Under the qutrit
    model that is exactly the Sx shape driven at phase pi between Sx's own
    frames: conjugating the drive by diag(1, -1, 1) flips its sign, and the
    frames and the decay commute with that diagonal."""

    @pytest.fixture(scope="class")
    def gs(self):
        return GateSet.calibrated("static", DEFAULT, 1, static_durations=(120,))

    @staticmethod
    def phase_pi_schedule(gs):
        """sx, rz(0.7), then Sx^-1 as the Sx shape at phase pi, each pulse
        between its calibrated frames."""
        sx = gs.impl_for(0, "sx", HALF_PI, 120)
        sxdg = replace(sx, kind="sxdg", angle=-HALF_PI, shape=replace(sx.shape, phase=math.pi))
        placements = [
            PulsePlacement(
                qubits=(0,), start=start, kind=impl.kind, angle=impl.angle,
                waveform_id=impl.kind, shape=impl.shape, seq=seq, pre_frame=impl.pre_frame,
                post_frame=impl.post_frame,
            )
            for seq, start, impl in ((0, 0, sx), (2, 120, sxdg))
        ]
        return Schedule(width=1, makespan=240, placements=placements,
                        frames=[FrameShift(qubit=0, time=120, angle=0.7, seq=1)])

    @pytest.mark.parametrize("nm", [NOISELESS, DEFAULT], ids=["noiseless", "default"])
    @pytest.mark.parametrize("ideal_pulses", [False, True])
    def test_same_probabilities(self, gs, nm, ideal_pulses):
        lowered = lower(parse_circuit("sx q0\nrz q0 0.7\nsxdg q0"), gs)
        assert [g.kind for g in lowered.gates] == ["sx", "rz", "sx", "rz"]
        _, framed = run_framework(lowered, gs, None)
        sim = ScheduleSimulator(nm, ideal_pulses=ideal_pulses)
        got = sim.run(framed, shots=1, seed=0)
        want = sim.run(self.phase_pi_schedule(gs), shots=1, seed=0)
        assert 0.1 < want.p0 < 0.9
        assert got.probabilities.keys() == want.probabilities.keys()
        for k, p in want.probabilities.items():
            assert got.probabilities[k] == pytest.approx(p, abs=1e-12)


class TestParametricWaveforms:
    """A schedule carries ShapeSpecs; the simulator samples them on demand."""

    @pytest.fixture()
    def synthesized(self, monkeypatch):
        calls = []

        def counting_synthesize(spec):
            calls.append(spec)
            return synthesize(spec)

        monkeypatch.setattr(sim, "synthesize", counting_synthesize)
        return calls

    @staticmethod
    def schedules(mode):
        gs = GateSet.ideal(mode, 3)
        for seed in (3, 4):
            yield run_framework(lower(random_clifford_circuit(3, 3, seed), gs), gs, FREE_FLOAT)[1]

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_synthesize_once_per_pulse_cache_miss(self, synthesized, mode):
        simulator = ScheduleSimulator(DEFAULT)
        misses = set()
        for sch in self.schedules(mode):
            simulator.run(sch, shots=1, seed=0)
            misses |= {(p.waveform_id, p.qubits[0]) for p in sch.placements if p.kind != "ecr"}
            assert len(synthesized) == len(misses)
        # pulse channels are the cache entries keyed by (shape, qubit, None, pre, post)
        assert synthesized and len(misses) == sum(len(k) == 5 for k in simulator._channels)
        simulator.run(sch, shots=1, seed=0)
        assert len(synthesized) == len(misses)

    def test_ideal_pulses_synthesize_nothing(self, synthesized):
        simulator = ScheduleSimulator(DEFAULT, ideal_pulses=True)
        for sch in self.schedules("static"):
            simulator.run(sch, shots=1, seed=0)
        assert synthesized == []


def _one_pulse(amplitude, angle=HALF_PI):
    """A 1q schedule of one 32-dt Gaussian named ``sx_q0_d32``, whatever it plays."""
    spec = ShapeSpec(shape=GAUSSIAN, amplitude=amplitude, duration=32, sigma=8.0)
    placement = PulsePlacement(qubits=(0,), start=0, kind="sx", angle=angle, waveform_id="sx_q0_d32", shape=spec, seq=0)
    return Schedule(width=1, makespan=32, placements=[placement])


def _framed_pair(pre, post):
    """A 1q schedule that plays one Sx spec twice, each time between the given calibration frames."""
    placements = [PulsePlacement(qubits=(0,), start=start, kind="sx", angle=HALF_PI,
                                 waveform_id="sx", shape=sx_shape(120), seq=seq, pre_frame=pre, post_frame=post)
                  for seq, start in enumerate((0, 120))]
    return Schedule(width=1, makespan=240, placements=placements)


class TestPulseChannelKey:
    """A pulse channel is cached by what it is built from, not by its name:
    one simulator that runs schedules naming different pulses alike plays
    each schedule's own pulse, between its own calibration frames."""

    @pytest.mark.parametrize("ideal_pulses, schedules", [
        (False, [_one_pulse(0.05), _one_pulse(0.10)]),
        (True, [_one_pulse(0.05, HALF_PI), _one_pulse(0.05, math.pi)]),
        (False, [_framed_pair(0.0, 0.0), _framed_pair(HALF_PI, HALF_PI)]),
    ], ids=["spec", "ideal-angle", "frames"])
    def test_shared_simulator_equals_fresh_ones(self, ideal_pulses, schedules):
        fresh = [ScheduleSimulator(DEFAULT, ideal_pulses=ideal_pulses).run(s, shots=1, seed=0).p0
                 for s in schedules]
        shared = ScheduleSimulator(DEFAULT, ideal_pulses=ideal_pulses)
        assert abs(fresh[0] - fresh[1]) > 0.1
        assert [shared.run(s, shots=1, seed=0).p0 for s in schedules] == fresh


_SX120 = sx_shape(120)


def _arm(width=2, makespan=400 + DEFAULT_ECR_DURATION, start=200, frame=(120, 0.3, 1), spec=_SX120,
         duration=120, ecr_duration=DEFAULT_ECR_DURATION, extra_frames=(), ecr_qubits=(0, 1)):
    """sx q0, a frame (time, angle, seq) on q0, sx q1 (the pulse arms may
    stretch), then an ecr on q0 and q1."""
    ecr_shape = ShapeSpec(GAUSSIAN_SQUARE, 0.12, ecr_duration, sigma=64.0)
    placements = [
        PulsePlacement(qubits=(0,), start=0, kind="sx", angle=HALF_PI, waveform_id="sx", shape=spec, seq=0),
        PulsePlacement(qubits=(1,), start=start, kind="sx", angle=HALF_PI,
                       waveform_id=f"sx{duration}", shape=sx_shape(duration), seq=2),
        PulsePlacement(qubits=ecr_qubits, start=400, kind="ecr", angle=0.0,
                       waveform_id="ecr", shape=ecr_shape, seq=3),
    ]
    time, angle, seq = frame
    frames = [FrameShift(qubit=0, time=time, angle=angle, seq=seq), *extra_frames]
    return Schedule(width=width, makespan=makespan, placements=placements, frames=frames)


_FRAME_Q1_300 = FrameShift(qubit=1, time=300, angle=0.7, seq=9)
#: per mode, a gate set and one with a longer minimum duration
_ARM_GATE_SETS = {mode: (GateSet.ideal(mode, 3), GateSet.ideal(mode, 3, min_duration=64))
                  for mode in ("static", "dynamic")}


class TestRunArms:
    """``run_arms`` runs arms of one width and operand sequence together;
    each arm equals ``run`` of it alone."""

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    @pytest.mark.parametrize("ideal_pulses", [False, True])
    def test_random_circuit_pairs(self, mode, ideal_pulses):
        # random circuits end qubits' programs with stretched pulses whose
        # trailing Rz the OPTIMIZED arm retimes, past other qubits' events
        rng = np.random.default_rng(71)
        gs = GateSet.ideal(mode, 4)
        if mode == "static":
            gs = with_calibration_frames(gs, rng)
        simulator = ScheduleSimulator(DEFAULT, ideal_pulses=ideal_pulses)
        retimed = stretched = 0
        for i in range(12):
            pair = stretched_pair(lower(random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 30))), gs), gs)
            assert_arms_equal_runs(simulator, pair, validate_states=i < 2)
            retimed += pair[0].frames != pair[1].frames
            stretched += pair[0].placements != pair[1].placements
        assert retimed > 0 and stretched > 3

    def test_retimed_trailing_rz_passes_other_pulses(self):
        # q0's only pulse stretches to 192 dt and its Rz moves from 64 to
        # 192, past q1's pulses at 64 and 128
        gs = GateSet.ideal("static", 2, static_durations=(64, 128, 192))
        pair = stretched_pair(lower(parse_circuit("sx q1\nsx q1\nsx q1\nsx q0\nrz q0 0.5\nsx q1"), gs), gs)
        assert [(f.qubit, f.time) for f in pair[0].frames] == [(0, 64)]
        assert [(f.qubit, f.time) for f in pair[1].frames] == [(0, 192)]
        assert_arms_equal_runs(ScheduleSimulator(DEFAULT), pair, validate_states=True)

    def test_stretched_pulse_and_three_arms(self):
        arms = (_arm(), _arm(duration=64), _arm(duration=48))
        assert_arms_equal_runs(ScheduleSimulator(DEFAULT), arms, validate_states=True)

    @pytest.mark.parametrize("first, other, refused", [
        pytest.param({}, dict(width=3), True, id="width"),
        # the first arm's ECR ends at its makespan, so it has no tail steps
        # and the other arm has one on each qubit
        pytest.param({}, dict(makespan=408 + DEFAULT_ECR_DURATION), True, id="makespan"),
        pytest.param({}, dict(ecr_duration=1000), True, id="ecr-duration"),
        # each arm folds q0 and q1 before their ECR in its operand order
        pytest.param({}, dict(ecr_qubits=(1, 0)), True, id="operand-order"),
        pytest.param({}, dict(extra_frames=[FrameShift(qubit=1, time=0, angle=0.2, seq=9)]), False, id="event-count"),
        pytest.param({}, dict(start=208), False, id="moved-start"),
        pytest.param({}, dict(frame=(120, 0.4, 1)), False, id="frame-angle"),
        pytest.param({}, dict(frame=(120, 0.3, 5)), False, id="frame-seq"),
        # q0's frame lies before its ECR, so no arm drops it as trailing
        pytest.param({}, dict(frame=(150, 0.3, 1)), False, id="frame-time"),
        # q1's pulse ends at 320 in the first arm and at 264 in the other
        pytest.param(dict(extra_frames=[_FRAME_Q1_300]), dict(duration=64, extra_frames=[_FRAME_Q1_300]), False,
                     id="frame-in-stretched-pulse"),
        pytest.param({}, dict(spec=replace(_SX120, amplitude=0.9 * _SX120.amplitude)), False, id="spec-named-alike"),
    ])
    def test_skeleton_mismatch_raises(self, first, other, refused):
        # arms that differ in width or operand sequence are refused; any
        # other difference is simulated exactly
        arms = (_arm(**first), _arm(**other))
        assert_arms_equal_runs(ScheduleSimulator(DEFAULT), arms[:1])
        assert_arms_equal_runs(ScheduleSimulator(DEFAULT), arms[1:])
        if refused:
            with pytest.raises(SimulationError, match="arms differ"):
                ScheduleSimulator(DEFAULT).run_arms(arms, 8, (0, 1))
        else:
            assert_arms_equal_runs(ScheduleSimulator(DEFAULT), arms, validate_states=True)

    def test_ecr_durations_contract_stacked(self, monkeypatch):
        # both arms idle after their ECR, so they share an operand sequence,
        # and the ECR step contracts one channel per arm
        makespan = 408 + DEFAULT_ECR_DURATION
        arms = (_arm(makespan=makespan), _arm(makespan=makespan, ecr_duration=1000))
        shapes = []

        def recording(data, superop, qubits, width):
            shapes.append(superop.shape)
            return contract_arms(data, superop, qubits, width)

        monkeypatch.setattr(sim, "contract_arms", recording)
        assert_arms_equal_runs(ScheduleSimulator(DEFAULT), arms, validate_states=True)
        assert (2, 81, 81) in shapes

    def test_schedules_of_one_circuit(self):
        # one lowered circuit scheduled four ways runs as four arms: each arm
        # equals its lone run, or the arms differ in operand sequence and
        # the call is refused
        simulated = []

        @given(seed=st.integers(0, 2**32 - 1), n_qubits=st.integers(1, 3), n_gates=st.integers(1, 25),
               mode=st.sampled_from(["static", "dynamic"]), ideal_pulses=st.booleans())
        @settings(max_examples=60, deadline=None)
        def check(seed, n_qubits, n_gates, mode, ideal_pulses):
            gs, slower = _ARM_GATE_SETS[mode]
            c = lower(random_circuit(np.random.default_rng(seed), n_qubits, n_gates), gs)
            arms = [run_framework(c, gs, policy)[1] for policy in (None, FREE_FLOAT, TOTAL_FLOAT)]
            arms.append(run_framework(c, slower, None)[1])
            simulator = ScheduleSimulator(DEFAULT, ideal_pulses=ideal_pulses)
            try:
                assert_arms_equal_runs(simulator, arms)
            except SimulationError:
                assert len({tuple(sim._program(sch)[0]) for sch in arms}) > 1
                simulated.append(False)
            else:
                simulated.append(True)

        check()
        assert sum(simulated) > 0.75 * len(simulated)

    def test_lone_frame_inside_pulse_matches_unfused_oracle(self):
        # a lone run applies a frame that falls inside a pulse after that
        # pulse, as the per-event oracle does: sx, Rz(pi/2), sx leaves P(0)
        # near 1/2, where Rz before the first sx would leave it near 0
        unframed = _framed_pair(0.0, 0.0)
        sch = replace(unframed, frames=[FrameShift(qubit=0, time=60, angle=HALF_PI, seq=2)])
        sim = ScheduleSimulator(DEFAULT)
        got, want = sim.run(sch, shots=1, seed=0), unfused_run(sim, sch)
        assert got.p0 == pytest.approx(want.p_zero(), abs=1e-12)
        for k, p in want.probabilities().items():
            assert got.probabilities[k] == pytest.approx(p, abs=1e-12)
        assert got.p0 == pytest.approx(0.5, abs=0.05)
        assert sim.run(unframed, shots=1, seed=0).p0 < 0.05

    @pytest.mark.parametrize("mode, n_qubits", [("static", 2), ("static", 3), ("dynamic", 3)])
    @pytest.mark.parametrize("ideal_pulses", [False, True])
    def test_run_path_calls_no_expm(self, monkeypatch, mode, n_qubits, ideal_pulses):
        # idle, pulse and ECR channels are all built in closed form
        def no_expm(m):
            raise AssertionError("expm called on the run path")

        rng = np.random.default_rng(5)
        gs = GateSet.ideal(mode, n_qubits)
        if mode == "static":
            gs = with_calibration_frames(gs, rng)
        pairs = [stretched_pair(lower(random_clifford_circuit(n_qubits, 5, seed), gs), gs) for seed in range(3)]
        assert any(fixed.placements != optimized.placements for fixed, optimized in pairs)
        monkeypatch.setattr(sim, "expm", no_expm)
        simulator = ScheduleSimulator(DEFAULT, ideal_pulses=ideal_pulses)
        for pair in pairs:
            for result in simulator.run_arms(pair, 8, (0, 1)):
                assert 0.0 <= result.p0 <= 1.0

    @pytest.mark.parametrize("seeds", [(), (0,), (0, 1, 2)])
    def test_one_seed_per_arm(self, seeds):
        with pytest.raises(ConfigError, match="one seed each"):
            ScheduleSimulator(DEFAULT).run_arms((_arm(), _arm()), 8, seeds)


def _leaked_state():
    """Pure qutrit state with coherences between every pair of levels."""
    psi = np.array([0.6, 0.48j, 0.64], dtype=complex)
    return np.outer(psi, psi.conj())


class TestScheduleIdle:
    def test_idle_rotates_leakage_coherence(self):
        # the simulator's idle is bare anharmonic evolution plus decay: the
        # 1-2 and 0-2 coherences turn by 2*pi*alpha*t and shrink as
        # idle_channel predicts, while the 0-1 coherence only decays
        t_dt = 1234
        sim = ScheduleSimulator(DEFAULT)
        rho = _leaked_state()
        out = (sim._idle_superop(t_dt, 0) @ rho.reshape(9)).reshape(3, 3)
        decayed = apply_superop(idle_channel(t_dt, DEFAULT, 0), rho)
        turn = np.exp(1j * 2 * np.pi * DEFAULT.anharmonicity(0) * t_dt * 0.5e-9)
        assert abs(turn - 1) > 0.1
        for i, j in ((1, 2), (0, 2)):
            assert abs(out[i, j] - decayed[i, j] * turn) < 1e-12
        assert abs(out[0, 1] - decayed[0, 1]) < 1e-12
        assert np.allclose(np.diag(out), np.diag(decayed), atol=1e-12)

    def test_idle_channel_phase_free(self):
        rho = _leaked_state()
        out = apply_superop(idle_channel(54321, DEFAULT, 0), rho)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            ratio = out[i, j] / rho[i, j]
            assert 0 < ratio.real <= 1 and abs(ratio.imag) < 1e-15

    def test_split_gap_equals_whole_gap(self):
        sim = ScheduleSimulator(DEFAULT)
        for a, b in ((1, 2), (137, 545), (4096, 12345)):
            split = sim._idle_superop(a, 0) @ sim._idle_superop(b, 0)
            assert np.max(np.abs(split - sim._idle_superop(a + b, 0))) < 1e-11

    def test_gap_acts_as_zero_amplitude_pulse(self):
        # a strong short pulse leaks; whether the qubit then idles or plays
        # a zero-amplitude waveform of the same length, the next pulse sees
        # the same leaked phase
        leaky = ShapeSpec(shape=GAUSSIAN, amplitude=0.5, duration=16, sigma=4.0)
        zero = ShapeSpec(shape=GAUSSIAN, amplitude=0.0, duration=301, sigma=60.0)
        assert np.array_equal(synthesize(zero).samples, np.zeros(301, dtype=complex))
        assert abs(propagate_waveform(synthesize(leaky), DEFAULT)[2, 0]) ** 2 > 1e-4
        idle = _schedule_from_pulses([((0,), 0, leaky), ((0,), 317, leaky)], 1, 333)
        played = _schedule_from_pulses(
            [((0,), 0, leaky), ((0,), 16, zero), ((0,), 317, leaky)], 1, 333
        )
        p_idle = ScheduleSimulator(DEFAULT).run(idle, shots=1, seed=0).probabilities
        p_played = ScheduleSimulator(DEFAULT).run(played, shots=1, seed=0).probabilities
        assert p_idle["0"] == pytest.approx(p_played["0"], abs=1e-12)


def random_density_matrix(rng, width):
    """Random full-rank density matrix over ``width`` qutrits."""
    a = random_complex(rng, (3**width, 3**width))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def probabilities_oracle(rho, width):
    """Bitstring distribution summed key by key over all 3**w diagonal entries."""
    diag = np.real(np.diagonal(rho)).reshape((3,) * width)
    probs = {}
    for levels in np.ndindex(*(3,) * width):
        bits = "".join("0" if l == 0 else "1" for l in levels)
        probs[bits] = probs.get(bits, 0.0) + float(diag[levels])
    return probs


class TestDensityState:
    def test_ground_state(self):
        s = DensityState(2)
        assert s.p_zero() == 1.0
        assert s.matrix()[0, 0] == 1.0 and np.count_nonzero(s.matrix()) == 1
        s.validate()

    def test_probabilities_fold_leakage_into_one(self):
        s = DensityState.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        probs = s.probabilities()
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    @pytest.mark.parametrize("width", range(MAX_SIM_QUBITS + 1))
    def test_matrix_round_trip(self, width):
        rho = random_complex(np.random.default_rng(width), (3**width, 3**width))
        s = DensityState.from_matrix(rho)
        assert s.width == width and s.data.shape == (9**width,)
        assert np.array_equal(s.matrix(), rho)
        assert s.p_zero() == rho[0, 0].real

    @pytest.mark.parametrize("width", range(1, MAX_SIM_QUBITS + 1))
    def test_probabilities_equal_per_key_sum(self, width):
        rho = random_density_matrix(np.random.default_rng(10 + width), width)
        got = DensityState.from_matrix(rho).probabilities()
        want = probabilities_oracle(rho, width)
        assert list(got) == sorted(want)
        for k, p in want.items():
            assert got[k] == pytest.approx(p, abs=1e-15)

    def test_validate_rejects_bad_states(self):
        s = DensityState.from_matrix(np.diag([1.5, -0.5, 0.0]).astype(complex))
        with pytest.raises(SimulationError):
            s.validate()

    @pytest.mark.parametrize("entry", [(1, 1), (0, 2)], ids=["diagonal", "coherence"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_validate_rejects_non_finite_entries(self, entry, value):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho[entry] = rho[entry[::-1]] = value
        with pytest.raises(SimulationError, match="non-finite"):
            DensityState.from_matrix(rho).validate()

    @pytest.mark.parametrize("trace", [0.9, 1.0 - 2e-10, 1.0 + 2e-10])
    def test_validate_rejects_trace_off_one(self, trace):
        with pytest.raises(SimulationError, match="trace"):
            DensityState.from_matrix(np.diag([trace, 0.0, 0.0]).astype(complex)).validate()

    def test_validate_accepts_trace_within_tolerance(self):
        DensityState.from_matrix(np.diag([1.0 - 5e-11, 0.0, 0.0]).astype(complex)).validate()


def tensordot_contraction(rho, superop, qubits, width):
    """Reference: a row-major vec superop contracted into the 3**w square
    matrix by tensordot plus moveaxis."""
    k = len(qubits)
    rho = rho.reshape((3,) * (2 * width))
    s = superop.reshape((3,) * (4 * k))
    in_axes = [*qubits, *(width + q for q in qubits)]
    rho = np.tensordot(s, rho, axes=(list(range(2 * k, 4 * k)), in_axes))
    rho = np.moveaxis(rho, list(range(2 * k)), in_axes)
    return rho.reshape(3**width, 3**width)


def full_space_superop(superop, qubits, width):
    """Reference: the local superop as a (9**width)-square superop, built
    with one einsum against identity deltas on the other qubits."""
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    out_r, out_c, in_r, in_c = ([next(letters) for _ in range(width)] for _ in range(4))
    subs = ["".join([out_r[q] for q in qubits] + [out_c[q] for q in qubits]
                    + [in_r[q] for q in qubits] + [in_c[q] for q in qubits])]
    operands = [superop.reshape((3,) * (4 * len(qubits)))]
    for q in range(width):
        if q not in qubits:
            subs += [out_r[q] + in_r[q], out_c[q] + in_c[q]]
            operands += [np.eye(3), np.eye(3)]
    spec = ",".join(subs) + "->" + "".join(out_r + out_c + in_r + in_c)
    return np.einsum(spec, *operands).reshape(9**width, 9**width)


def operand_tuples(width):
    """Every 1-qubit tuple and every ordered pair, reversed and non-adjacent ones included."""
    return [(q,) for q in range(width)] + [
        (a, b) for a in range(width) for b in range(width) if a != b
    ]


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def contract_in_layout(rho, superop, qubits, width):
    """A row-major vec superop on ``qubits`` (any order) applied through the
    state layout: permuted by ``pair_layout`` onto ascending operands, then
    read back as a matrix."""
    state = DensityState.from_matrix(rho)
    if len(qubits) == 2:
        superop, qubits = pair_layout(superop, qubits), tuple(sorted(qubits))
    state.apply_local_superop(superop, qubits)
    assert state.data.shape == (9**width,)
    return state.matrix()


class TestLocalContraction:
    @pytest.mark.parametrize("width", range(1, MAX_SIM_QUBITS + 1))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_tensordot(self, width, seed):
        rng = np.random.default_rng(seed)
        rho = random_complex(rng, (3**width, 3**width))
        for qubits in operand_tuples(width):
            superop = random_complex(rng, (9 ** len(qubits),) * 2)
            got = contract_in_layout(rho, superop, qubits, width)
            ref = tensordot_contraction(rho, superop, qubits, width)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), qubits

    @pytest.mark.parametrize("width", [1, 2, 3])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_full_space_superop(self, width, seed):
        rng = np.random.default_rng(seed)
        rho = random_complex(rng, (3**width, 3**width))
        for qubits in operand_tuples(width):
            superop = random_complex(rng, (9 ** len(qubits),) * 2)
            got = contract_in_layout(rho, superop, qubits, width)
            ref = apply_superop(full_space_superop(superop, qubits, width), rho)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), qubits

    @pytest.mark.parametrize("width", range(1, MAX_SIM_QUBITS + 1))
    def test_arm_slices_equal_lone_states(self, width):
        # one channel broadcast over three arms, or one channel per arm,
        # gives each arm the bits its own one-arm contraction gives
        rng = np.random.default_rng(40 + width)
        data = random_complex(rng, (3, 9**width))
        for qubits in operand_tuples(width):
            qubits = tuple(sorted(qubits))
            stack = random_complex(rng, (3,) + (9 ** len(qubits),) * 2)
            for superop, per_arm in ((stack[0], [stack[0]] * 3), (stack, list(stack))):
                got = sim.contract_arms(data, superop, qubits, width)
                for a in range(3):
                    alone = sim.contract_arms(data[a:a + 1], per_arm[a], qubits, width)[0]
                    assert np.array_equal(got[a], alone), (qubits, a)

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 0)])
    def test_local_unitary_equals_conjugation(self, qubits):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(rng, 3)
        u, _ = np.linalg.qr(random_complex(rng, (9, 9)))
        state = DensityState.from_matrix(rho)
        state.apply_local_unitary(u, qubits)
        full = full_space_superop(unitary_superop(u), qubits, 3)
        assert np.max(np.abs(state.matrix() - apply_superop(full, rho))) < 1e-12


def kron_idle_channel(duration_dt, nm, qubit):
    """Reference idle_channel with its dissipator built by np.kron."""
    eye = np.eye(3, dtype=complex)
    gen = np.zeros((9, 9), dtype=complex)
    for L in _jump_operators(nm.t1(qubit), nm.t2(qubit)):
        ldl = L.conj().T @ L
        gen += np.kron(L, L.conj())
        gen -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return expm(duration_dt * (DT_NS * 1e-9) * gen)


def kron_depolarizing(strength):
    """Reference depolarizing proxy: the two-qubit Pauli twirl summed per call by np.kron."""
    mix = np.zeros((81, 81), dtype=complex)
    for pa in _PAULI3:
        for pb in _PAULI3:
            p = np.kron(pa, pb)
            mix += np.kron(p, p.conj())
    return (1.0 - strength) * np.eye(81) + (strength / 16.0) * mix


def kron_ecr_channel(nm, qubits, duration_dt):
    """Reference ecr_channel: np.kron unitary and proxy, expm decay paired by einsum."""
    u = embed_qubit_pair(ECR_2Q)
    dep = kron_depolarizing(1.0 - nm.ecr_fidelity)
    ra = kron_idle_channel(duration_dt, nm, qubits[0]).reshape(3, 3, 3, 3)
    rb = kron_idle_channel(duration_dt, nm, qubits[1]).reshape(3, 3, 3, 3)
    dec = np.einsum("abij,cdkl->acbdikjl", ra, rb).reshape(81, 81)
    return dec @ dep @ np.kron(u, u.conj())


PER_QUBIT = NoiseModel(t1_ns=[180e3, 60e3], t2_ns=[120e3, 90e3], ecr_fidelity=0.97)


class TestKronFree:
    @pytest.mark.parametrize("strength", [0.0, 1.0 - DEFAULT.ecr_fidelity, 1.0 - PER_QUBIT.ecr_fidelity, 0.5, 1.0])
    def test_depolarizing_proxy_equals_per_call_build(self, strength):
        # the ideal ECR and its twirl are built once at import and mixed per
        # channel; without decay the channel is that mix, which must equal
        # the proxy built from scratch per call after the ideal ECR
        nm = NoiseModel(t1_ns=None, t2_ns=None, ecr_fidelity=1.0 - strength)
        u = embed_qubit_pair(ECR_2Q)
        want = kron_depolarizing(strength) @ np.kron(u, u.conj())
        assert np.max(np.abs(ecr_channel(nm, (0, 1), DEFAULT_ECR_DURATION) - want)) <= 1e-14

    def test_twirl_sum_equals_per_call_build(self):
        assert np.array_equal(sim._PAULI_TWIRL_SUM, kron_depolarizing(1.0) * 16.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_broadcast_kron_equals_np_kron(self, seed):
        rng = np.random.default_rng(seed)
        for da, db in ((3, 3), (9, 9), (3, 9), (9, 3)):
            a, b = random_complex(rng, (da, da)), random_complex(rng, (db, db))
            assert np.array_equal(_kron(a, b), np.kron(a, b))

    def test_unitary_superop(self):
        rng = np.random.default_rng(3)
        for d in (3, 9):
            u = random_complex(rng, (d, d))
            assert np.array_equal(unitary_superop(u), np.kron(u, u.conj()))

    @pytest.mark.parametrize("nm", [DEFAULT, NOISELESS, PER_QUBIT], ids=["default", "noiseless", "per-qubit"])
    def test_channels_equal_kron_references(self, nm):
        # the closed-form decay matches the expm references to rounding
        for q in (0, 1):
            for duration in (0, 24, 997):
                assert np.max(np.abs(idle_channel(duration, nm, q) - kron_idle_channel(duration, nm, q))) <= 1e-14
            w = random_waveform(np.random.default_rng(q))
            u = propagate_waveform(w, nm, q)
            ref = kron_idle_channel(w.duration, nm, q) @ np.kron(u, u.conj())
            assert np.max(np.abs(gate_channel(w, nm, q) - ref)) <= 1e-14
        for qubits in ((0, 1), (1, 0)):
            ref = kron_ecr_channel(nm, qubits, DEFAULT_ECR_DURATION)
            assert np.max(np.abs(ecr_channel(nm, qubits, DEFAULT_ECR_DURATION) - ref)) <= 1e-14


def rabi_oracle(amplitudes, nm, qubit=0, window_dt=None):
    """Reference simulate_rabi: one expm of the dissipative generator per time point."""
    dt_s = DT_NS * 1e-9
    gen = dissipative_generator(nm, qubit)
    kappa, alpha = nm.rabi_coefficient(qubit), nm.anharmonicity(qubit)
    out = []
    for a in amplitudes:
        if window_dt is not None:
            n_dt = int(window_dt)
        elif a != 0:
            n_dt = max(int(math.ceil(1.0 / (kappa * abs(a) * dt_s))), 201)
        else:
            n_dt = 201
        ts_dt = np.linspace(0.0, n_dt, 201)
        evals, evecs = np.linalg.eigh(hamiltonian_sample(complex(a), kappa, alpha))
        p0s = np.empty(201)
        for i, t_dt in enumerate(ts_dt):
            t_s = t_dt * dt_s
            u = (evecs * np.exp(-1j * evals * t_s)) @ evecs.conj().T
            rho = np.outer(u[:, 0], u[:, 0].conj())
            rho = (expm(t_s * gen) @ rho.reshape(9)).reshape(3, 3)
            p0s[i] = rho[0, 0].real
        out.append((ts_dt * dt_s, p0s))
    return out


T1_ONLY = NoiseModel(t2_ns=None)


class TestSimulateRabi:
    @pytest.mark.parametrize("window_dt", [None, 700])
    @pytest.mark.parametrize(
        "nm, qubit",
        [(DEFAULT, 0), (NOISELESS, 0), (T1_ONLY, 0), (PER_QUBIT, 1)],
        ids=["default", "noiseless", "t1-only", "per-qubit"],
    )
    def test_equals_per_time_expm_oracle(self, nm, qubit, window_dt):
        amps = [0.0, 1e-3, 0.05, -1.0]
        got = simulate_rabi(amps, nm, qubit=qubit, window_dt=window_dt)
        for data, (times_s, p0) in zip(got, rabi_oracle(amps, nm, qubit, window_dt)):
            assert np.array_equal(data.times_s, times_s)
            assert np.max(np.abs(data.p0 - p0)) < 1e-14

    def test_one_expm_per_amplitude(self, monkeypatch):
        calls = []

        def counting_expm(m):
            calls.append(m.shape)
            return expm(m)

        monkeypatch.setattr(sim, "expm", counting_expm)
        simulate_rabi([0.0, 1e-3, 0.05, -1.0], DEFAULT)
        assert calls == [(9, 9)] * 4

    @pytest.mark.parametrize("amplitude", [1e-3, 0.05, 1.0])
    def test_negative_amplitude_mirrors_positive(self, amplitude):
        # H(-a) = D H(a) D with D = diag(1, -1, 1), so -a gives the same
        # window and the same |0> population as a
        (pos,), (neg,) = simulate_rabi([amplitude], DEFAULT), simulate_rabi([-amplitude], DEFAULT)
        assert np.array_equal(neg.times_s, pos.times_s)
        assert np.max(np.abs(neg.p0 - pos.p0)) < 1e-12

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, 1.5, -2.0, "0.5", True])
    def test_amplitude_outside_unit_bound_rejected(self, amplitude):
        with pytest.raises(ConfigError, match="amplitude"):
            simulate_rabi([0.01, amplitude], DEFAULT)

    @pytest.mark.parametrize("window_dt", [True, 2.5, "3"])
    def test_window_is_a_positive_count(self, window_dt):
        # True ran a 1 dt window and 2.5 was cut to 2
        with pytest.raises(ConfigError, match="window"):
            simulate_rabi([0.01], DEFAULT, window_dt=window_dt)

    def test_unit_amplitude_accepted(self):
        (data,) = simulate_rabi([-1.0], DEFAULT)
        assert data.amplitude == -1.0

    def test_zero_amplitude_flat(self):
        (data,) = simulate_rabi([0.0], DEFAULT, window_dt=2000)
        assert np.allclose(data.p0, 1.0, atol=1e-6)

    def test_linear_in_amplitude(self):
        amps = np.geomspace(0.002, 0.02, 5)
        datasets = simulate_rabi(amps, NOISELESS)
        omegas = [fit_rabi(d.times_s, d.p0).omega_hz for d in datasets]
        slopes = np.array(omegas) / np.array(amps)
        assert np.max(np.abs(slopes / slopes.mean() - 1)) < 0.02

    def test_default_coefficient_anchor(self):
        # amplitude 0.001 oscillates at ~105 kHz under the default coefficient
        (data,) = simulate_rabi([0.001], DEFAULT)
        fit = fit_rabi(data.times_s, data.p0)
        assert fit.omega_hz == pytest.approx(105e3, rel=0.10)
