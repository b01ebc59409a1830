"""Duration policies, Rabi fitting, interpolation, fine-tuning, persistence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsesched.circuit import Gate, parse_circuit
from pulsesched.errors import (
    ExtrapolationWarning,
    GateSetError,
    InfeasibleDurationError,
)
from pulsesched.gateset import (
    DEFAULT_STATIC_DURATIONS,
    GateSet,
    RabiTable,
    build_dynamic_gateset,
    build_static_gateset,
    calibrate_rabi_table,
    dynamic_amplitude,
    fine_tune,
    fit_rabi,
    interpolate_amplitude,
    sigma_of_duration,
)
from pulsesched.scheduler import lower, run_framework
from pulsesched.sim import NoiseModel, propagate_waveform, simulate_rabi

HALF_PI = math.pi / 2
PI = math.pi


def sx_gate(q=0):
    return Gate(id=0, kind="sx", qubits=(q,))


def rx_gate(theta, q=0):
    return Gate(id=0, kind="rx", qubits=(q,), angles=(theta,))


class TestSigma:
    def test_anchor_values(self):
        assert sigma_of_duration(64) == pytest.approx(96.0, abs=0.1)
        assert sigma_of_duration(120) == pytest.approx(30.0, abs=0.1)

    def test_long_pulse_limit(self):
        assert sigma_of_duration(512) / 512 == pytest.approx(0.2, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sigma_of_duration(17.36)
        with pytest.raises(ValueError):
            sigma_of_duration(8)

    def test_closed_form_on_static_list(self):
        for d in DEFAULT_STATIC_DURATIONS:
            expected = d * (math.exp(-(d - 68.51) / 17.19) + 0.2)
            assert sigma_of_duration(d) == pytest.approx(expected, rel=1e-15)


class TestAllowedDurations:
    def test_static_clipped_by_min(self):
        gs = GateSet.ideal("static", 1, min_duration=64, max_duration=512)
        assert gs.allowed_durations("sx") == (64, 120, 256, 512)

    def test_dynamic_quarter_turn(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=32, max_duration=128)
        assert gs.allowed_durations("rx", HALF_PI) == tuple(range(32, 129, 8))

    def test_dynamic_half_turn_scales_bounds_not_step(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=32, max_duration=128)
        assert gs.allowed_durations("rx", PI) == tuple(range(64, 257, 8))

    def test_ascending_and_multiple_of_eight(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=32, max_duration=128)
        for theta in (HALF_PI, PI, 3 * HALF_PI, 0.3):
            durs = gs.allowed_durations("rx", theta)
            assert list(durs) == sorted(set(durs))
            assert all(d % 8 == 0 for d in durs)

    def test_fixed_kinds(self):
        gs = GateSet.ideal("static", 1)
        assert gs.allowed_durations("ecr") == (1320,)
        assert gs.allowed_durations("measure") == (0,)
        assert gs.allowed_durations("barrier") == (0,)

    def test_empty_window_is_config_error(self):
        gs = GateSet(mode="static", min_duration=600, max_duration=700)
        with pytest.raises(GateSetError):
            gs.allowed_durations("sx")

    @given(theta=st.floats(0.0, PI, exclude_min=True))
    @settings(max_examples=60, deadline=None)
    def test_dynamic_menu_floored_at_24_and_buildable(self, theta):
        gs = GateSet.ideal("dynamic", 1)
        menu = gs.allowed_durations("rx", theta)
        assert menu
        assert all(d % 8 == 0 and d >= 24 for d in menu)
        assert gs.impl_for(0, "rx", theta, menu[0]).duration == menu[0]

    def test_rx_rejected_in_static_mode(self):
        gs = GateSet.ideal("static", 1)
        with pytest.raises(GateSetError):
            gs.allowed_durations("rx", HALF_PI)


class TestNextDuration:
    """A gate's next duration is the next entry of its ``durations_for`` menu."""

    def test_static_step(self):
        gs = GateSet.ideal("static", 1, min_duration=32)
        assert gs.durations_for(sx_gate()) == (32, 48, 64, 120, 256, 512)
        assert gs.durations_for(Gate(id=0, kind="sxdg", qubits=(0,))) == gs.durations_for(sx_gate())

    def test_at_max_stays(self):
        gs = GateSet.ideal("static", 1)
        assert gs.durations_for(sx_gate())[-1] == 512

    def test_dynamic_step(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=32, max_duration=128)
        assert gs.durations_for(rx_gate(HALF_PI)) == tuple(range(32, 129, 8))
        assert gs.durations_for(rx_gate(-PI)) == tuple(range(64, 257, 8))
        assert gs.durations_for(sx_gate()) == gs.durations_for(rx_gate(-HALF_PI))

    def test_ecr_never_steps(self):
        gs = GateSet.ideal("static", 1)
        assert gs.durations_for(Gate(id=0, kind="ecr", qubits=(0, 1))) == (1320,)
        assert gs.durations_for(Gate(id=0, kind="barrier", qubits=(0,))) == (0,)


class TestFitRabi:
    def test_synthetic_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            omega = float(rng.uniform(5e4, 5e6))
            amp = float(rng.uniform(0.3, 0.5))
            phase = float(rng.uniform(-0.5, 0.5))
            offset = float(rng.uniform(0.2, 0.4))
            t = np.linspace(0, 3.0 / omega, 400)
            y = amp * np.cos(2 * np.pi * omega * t + phase) ** 2 + offset
            fit = fit_rabi(t, y)
            assert fit.omega_hz == pytest.approx(omega, rel=1e-6)
            assert fit.residual < 1e-8

    def test_constant_signal_degenerate(self):
        t = np.linspace(0, 1e-5, 50)
        fit = fit_rabi(t, np.full(50, 0.75))
        assert fit.degenerate and fit.omega_hz == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_rabi([0, 1e-6, 2e-6], [1, 0.5, 0.2])

    def test_simulated_anchor_105khz(self):
        (data,) = simulate_rabi([0.001], NoiseModel())
        fit = fit_rabi(data.times_s, data.p0)
        assert fit.omega_hz == pytest.approx(105e3, rel=0.10)


class TestInterpolateAmplitude:
    def test_exact_on_linear_data(self):
        pairs = [(a, 2.0e8 * a) for a in (0.01, 0.05, 0.1, 0.2)]
        assert interpolate_amplitude(pairs, 2.0e7) == pytest.approx(0.1, rel=1e-12)

    def test_round_trip_through_simulated_sweep(self):
        nm = NoiseModel()
        table = calibrate_rabi_table(nm, 0, amplitudes=np.geomspace(0.001, 0.1, 8))
        for a in (0.002, 0.01, 0.05):
            (data,) = simulate_rabi([a], nm)
            omega = fit_rabi(data.times_s, data.p0).omega_hz
            back = interpolate_amplitude(table, omega)
            assert back == pytest.approx(a, rel=0.02)

    def test_extrapolation_warns(self):
        table = RabiTable(amplitudes=(0.01, 0.1), omegas_hz=(1e6, 1e7))
        with pytest.warns(ExtrapolationWarning):
            low = interpolate_amplitude(table, 5e5)
        assert low == pytest.approx(0.005, rel=1e-9)
        with pytest.warns(ExtrapolationWarning):
            interpolate_amplitude(table, 2e7)

    def test_needs_two_pairs(self):
        with pytest.raises(GateSetError):
            RabiTable(amplitudes=(0.1,), omegas_hz=(1e6,))


class TestFineTune:
    def test_already_optimal_amplitude_stays(self):
        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", HALF_PI, 120)
        tuned = fine_tune(impl, nm)
        step = impl.amplitude * 0.2 / 40
        assert abs(tuned.amplitude - impl.amplitude) <= step + 1e-12
        assert tuned.fidelity is not None and tuned.fidelity >= 0.999

    def test_mis_set_amplitude_recovered(self):
        from dataclasses import replace

        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", HALF_PI, 120)
        bumped = replace(impl, shape=replace(impl.shape, amplitude=impl.amplitude * 1.05))
        tuned = fine_tune(bumped, nm)
        step = bumped.amplitude * 0.2 / 40
        assert abs(tuned.amplitude - impl.amplitude) <= step + 1e-12

    def test_floor_violation_raises(self):
        # a 1.5x amplitude drives a ~3pi/4 rotation, beyond what the narrow
        # sweep or free virtual-Z dressing can repair
        from dataclasses import replace
        from pulsesched.errors import CalibrationError

        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", HALF_PI, 120)
        broken = replace(impl, shape=replace(impl.shape, amplitude=impl.amplitude * 1.5))
        with pytest.raises(CalibrationError):
            fine_tune(broken, nm, span=0.01, fidelity_floor=0.999)


@pytest.fixture(scope="module")
def calibrated():
    return build_static_gateset(DEFAULT_STATIC_DURATIONS, NoiseModel(), n_qubits=1)


class TestStaticBuild:
    def test_one_impl_per_duration(self, calibrated):
        sx_impls = [i for i in calibrated.impls.values() if i.kind == "sx"]
        assert sorted(i.duration for i in sx_impls) == list(DEFAULT_STATIC_DURATIONS)

    def test_sigma_matches_rule(self, calibrated):
        for impl in calibrated.impls.values():
            if impl.kind == "sx":
                assert impl.sigma == pytest.approx(sigma_of_duration(impl.duration), rel=1e-12)

    def test_fidelities_above_threshold(self, calibrated):
        for impl in calibrated.impls.values():
            if impl.kind == "sx":
                assert impl.fidelity >= 0.999

    def test_sxdg_shares_amplitude_with_phase_pi(self, calibrated):
        sx = calibrated.impl_for(0, "sx", HALF_PI, 120)
        sxdg = calibrated.impl_for(0, "sxdg", -HALF_PI, 120)
        assert sxdg.amplitude == sx.amplitude
        assert sxdg.shape.phase == pytest.approx(math.pi)
        u = propagate_waveform(sxdg.waveform(), NoiseModel.noiseless())
        from conftest import SXDG_MATRIX, equal_up_to_phase

        assert equal_up_to_phase(u[:2, :2], SXDG_MATRIX, tol=2e-2)

    def test_calibration_deterministic(self, calibrated):
        again = build_static_gateset(DEFAULT_STATIC_DURATIONS, NoiseModel(), n_qubits=1)
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
            calibrated.to_json(), sort_keys=True
        )

    def test_json_round_trip(self, calibrated, tmp_path):
        path = tmp_path / "gs.json"
        calibrated.write_json(path)
        loaded = GateSet.load(path)
        assert loaded.mode == "static"
        a = calibrated.impl_for(0, "sx", HALF_PI, 64)
        b = loaded.impl_for(0, "sx", HALF_PI, 64)
        assert b.amplitude == a.amplitude and b.sigma == a.sigma


@pytest.fixture(scope="module")
def table():
    return RabiTable.linear(1.05e8)


class TestDynamicAmplitude:
    def test_area_scaling_gives_equal_amplitudes(self, table):
        # envelope area is linear in duration once sigma/d has flattened to
        # 1/5 (d >~ 150), so a pi rotation over 2d matches the pi/2 amplitude
        # over d there; below the knee of the sigma rule the envelope shape
        # itself changes with duration and exact equality is unattainable
        for d in (200, 256, 320):
            a_half = dynamic_amplitude(HALF_PI, d, table)
            a_full = dynamic_amplitude(PI, 2 * d, table)
            assert a_full == pytest.approx(a_half, rel=5e-3)

    def test_zero_rotation_zero_amplitude(self, table):
        assert dynamic_amplitude(0.0, 64, table) == 0.0

    def test_amplitude_linear_in_angle_at_fixed_duration(self, table):
        a1 = dynamic_amplitude(HALF_PI, 96, table)
        a2 = dynamic_amplitude(PI, 96, table)
        assert a2 == pytest.approx(2 * a1, rel=0.02)

    def test_infeasible_duration_raises(self):
        # a weakly driven qubit cannot absorb a half turn in 64 samples
        weak = RabiTable.linear(1e6)
        with pytest.warns(ExtrapolationWarning), pytest.raises(InfeasibleDurationError):
            dynamic_amplitude(PI, 64, weak)

    def test_simulated_rotation_within_one_percent(self):
        nm = NoiseModel()
        gs = build_dynamic_gateset(nm, 1, min_duration=32, max_duration=128)
        impl = gs.impl_for(0, "rx", HALF_PI, 64)
        u = propagate_waveform(impl.waveform(), nm)
        rotation = 2 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
        assert rotation == pytest.approx(HALF_PI, rel=0.01)

    def test_negative_angle_uses_pi_phase(self, table):
        gs = GateSet.ideal("dynamic", 1)
        impl = gs.impl_for(0, "rx", -HALF_PI, 64)
        assert impl.shape.phase == pytest.approx(math.pi)
        assert impl.amplitude > 0


class TestWaveformIds:
    # rx ids once printed 6 decimals while the catalog keys on 9, so two
    # distinct rotations shared one id and the second played the first's pulse
    def test_rx_id_follows_angle_key(self):
        gs = GateSet.ideal("dynamic", 1)
        a = gs.impl_for(0, "rx", 1.2345671, 32)
        b = gs.impl_for(0, "rx", 1.2345674, 32)
        assert a.waveform_id() != b.waveform_id()
        assert gs.impl_for(0, "rx", 1.2345671 + 1e-12, 32).waveform_id() == a.waveform_id()

    def test_close_angles_schedule_distinct_waveforms(self):
        gs = GateSet.ideal("dynamic", 1)
        _, sch = run_framework(lower(parse_circuit("rx q0 1.2345671\nrx q0 1.2345674"), gs), gs)
        assert len(sch.waveforms) == 2
        peaks = {float(np.max(np.abs(w.samples))) for w in sch.waveforms.values()}
        assert len(peaks) == 2
