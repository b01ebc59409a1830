"""Duration policies, Rabi fitting, interpolation, fine-tuning, persistence."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pulsesched.circuit import Gate, parse_circuit
from pulsesched.errors import (
    CalibrationError,
    ExtrapolationWarning,
    GateSetError,
    InfeasibleDurationError,
)
from pulsesched.gateset import (
    DEFAULT_STATIC_DURATIONS,
    GateSet,
    RabiTable,
    _frame_corrected_fidelity,
    _rabi_jacobian,
    _rabi_model,
    _zxz_angles,
    calibrate_rabi_table,
    dynamic_amplitude,
    fine_tune,
    fit_rabi,
    interpolate_amplitude,
    sigma_of_duration,
)
from pulsesched.scheduler import lower, run_framework
from pulsesched.pulses import synthesize
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

    def test_replaced_bounds_clip_the_static_menu(self):
        # rb --gateset with --min-dur/--max-dur replaces a loaded set's bounds;
        # the menu is derived from them again, not kept from the original
        gs = replace(GateSet.ideal("static", 2), min_duration=64, max_duration=256)
        assert gs.allowed_durations("sx") == (64, 120, 256)
        assert GateSet.from_json(gs.to_json()).allowed_durations("sx") == (64, 120, 256)

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

    def test_unknown_mode_rejected(self):
        with pytest.raises(GateSetError, match="mode"):
            GateSet(mode="adaptive", min_duration=32, max_duration=512)

    def test_min_above_max_rejected(self):
        with pytest.raises(GateSetError, match="min_duration"):
            GateSet(mode="static", min_duration=64, max_duration=32)

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

    @pytest.mark.parametrize("max_duration", [8, 16, 23])
    def test_dynamic_max_below_shortest_pulse_rejected(self, max_duration):
        # the 24 dt floor would otherwise lift every menu above the set's own
        # max_duration: rx 1.5 got (24,) under max_duration=16
        with pytest.raises(GateSetError, match="max_duration"):
            GateSet.ideal("dynamic", 1, min_duration=8, max_duration=max_duration)

    def test_dynamic_max_at_shortest_pulse_accepted(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=8, max_duration=24)
        assert gs.allowed_durations("rx", HALF_PI) == (24,)

    def test_rx_rejected_in_static_mode(self):
        gs = GateSet.ideal("static", 1)
        with pytest.raises(GateSetError):
            gs.allowed_durations("rx", HALF_PI)


class TestServesOnlyLoweredKinds:
    """A gate set serves the one x-rotation pulse lowering emits for its mode:
    Sx in static mode, Rx in dynamic mode.  Any other one is an unlowered
    circuit."""

    @pytest.mark.parametrize("kind,angle", [("sx", HALF_PI), ("sxdg", -HALF_PI)])
    def test_dynamic_set_rejects_sx(self, kind, angle):
        gs = GateSet.ideal("dynamic", 1)
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.allowed_durations(kind, angle)
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.impl_for(0, kind, angle, 32)

    def test_static_set_rejects_sxdg(self):
        gs = GateSet.ideal("static", 1)
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.durations_for(Gate(id=0, kind="sxdg", qubits=(0,)))
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.impl_for(0, "sxdg", -HALF_PI, 32)

    def test_static_set_rejects_rx(self):
        gs = GateSet.ideal("static", 1)
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.allowed_durations("rx", HALF_PI)
        with pytest.raises(GateSetError, match="lower the circuit first"):
            gs.impl_for(0, "rx", HALF_PI, 64)


class TestNextDuration:
    """A gate's next duration is the next entry of its ``durations_for`` menu."""

    def test_static_step(self):
        gs = GateSet.ideal("static", 1, min_duration=32)
        assert gs.durations_for(sx_gate()) == (32, 48, 64, 120, 256, 512)

    def test_at_max_stays(self):
        gs = GateSet.ideal("static", 1)
        assert gs.durations_for(sx_gate())[-1] == 512

    def test_dynamic_step(self):
        gs = GateSet.ideal("dynamic", 1, min_duration=32, max_duration=128)
        assert gs.durations_for(rx_gate(HALF_PI)) == tuple(range(32, 129, 8))
        assert gs.durations_for(rx_gate(-PI)) == tuple(range(64, 257, 8))
        assert gs.durations_for(rx_gate(HALF_PI)) == gs.durations_for(rx_gate(-HALF_PI))

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

    @settings(max_examples=200, deadline=None)
    @given(
        params=st.tuples(
            st.floats(0.0, 2.0),
            st.floats(1e4, 1e7),
            st.floats(-math.pi, math.pi),
            st.floats(-1.0, 2.0),
        ),
        times=st.lists(st.floats(1e-7, 2e-5), min_size=1, max_size=5),
    )
    def test_jacobian_matches_central_difference(self, params, times):
        t = np.array(times)
        jac = _rabi_jacobian(t, *params)
        assert jac.shape == (len(t), 4)
        # each column's natural size: d/d omega carries a factor 2 pi t
        scale = np.array([1.0, 2.0 * math.pi * t.max(), 1.0, 1.0])
        for j, p in enumerate(params):
            h = (1e-7 if j == 1 else 1e-6) * max(1.0, abs(p))
            up, down = list(params), list(params)
            up[j] += h
            down[j] -= h
            fd = (_rabi_model(t, *up) - _rabi_model(t, *down)) / (2.0 * h)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-5 * scale[j], j

    def test_simulated_anchor_105khz(self):
        (data,) = simulate_rabi([0.001], NoiseModel())
        fit = fit_rabi(data.times_s, data.p0)
        assert fit.omega_hz == pytest.approx(105e3, rel=0.10)


class TestInterpolateAmplitude:
    def test_exact_on_linear_data(self):
        amps = (0.01, 0.05, 0.1, 0.2)
        table = RabiTable(amplitudes=amps, omegas_hz=tuple(2.0e8 * a for a in amps))
        assert interpolate_amplitude(table, 2.0e7) == pytest.approx(0.1, rel=1e-12)

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


def grid_fine_tune(impl, nm, span=0.1, fidelity_floor=0.9):
    """Grid-and-polish oracle for fine_tune: score 41 amplitudes across the
    span, take the argmax, then polish it to the rotation root with brentq
    when the argmax's neighbors bracket that root."""

    def propagate(amp):
        return propagate_waveform(synthesize(replace(impl.shape, amplitude=float(amp))), nm, impl.qubit)

    def rotation_error(amp):
        return _zxz_angles(propagate(amp)[:2, :2])[1] - abs(impl.angle)

    a0 = impl.shape.amplitude
    grid = np.linspace((1.0 - span) * a0, (1.0 + span) * a0, 41)
    scores = [_frame_corrected_fidelity(propagate(amp), abs(impl.angle))[0] for amp in grid]
    best = int(np.argmax(scores))
    best_amp = float(grid[best])
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    try:
        if rotation_error(lo) * rotation_error(hi) < 0:
            best_amp = float(brentq(rotation_error, lo, hi, xtol=1e-14))
    except ValueError:
        pass
    fid, pre, post = _frame_corrected_fidelity(propagate(best_amp), abs(impl.angle))
    if fid < fidelity_floor:
        raise CalibrationError(f"grid peak fidelity {fid} below floor {fidelity_floor}")
    return replace(
        impl, shape=replace(impl.shape, amplitude=best_amp), fidelity=fid, pre_frame=pre, post_frame=post
    )


ORACLE_DURATIONS = (24, 32, 48, 64, 120, 256, 512)


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
        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", HALF_PI, 120)
        bumped = replace(impl, shape=replace(impl.shape, amplitude=impl.amplitude * 1.05))
        tuned = fine_tune(bumped, nm)
        step = bumped.amplitude * 0.2 / 40
        assert abs(tuned.amplitude - impl.amplitude) <= step + 1e-12

    @pytest.mark.parametrize(
        "nm", [NoiseModel(), NoiseModel(anharmonicity_hz=-200e6)], ids=["default", "alpha-200MHz"]
    )
    def test_matches_grid_oracle(self, nm):
        gs = GateSet.ideal("static", 1, static_durations=ORACLE_DURATIONS)
        for d in ORACLE_DURATIONS:
            impl = gs.impl_for(0, "sx", HALF_PI, d)
            got, want = fine_tune(impl, nm), grid_fine_tune(impl, nm)
            assert abs(got.amplitude - want.amplitude) <= 1e-13, d
            assert abs(got.fidelity - want.fidelity) <= 1e-12, d
            assert abs(got.pre_frame - want.pre_frame) <= 1e-12, d
            assert abs(got.post_frame - want.post_frame) <= 1e-12, d

    def test_tuned_rotation_is_exact(self):
        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        for d in (32, 120, 512):
            tuned = fine_tune(gs.impl_for(0, "sx", HALF_PI, d), nm)
            u = propagate_waveform(synthesize(tuned.shape), nm)
            assert abs(_zxz_angles(u[:2, :2])[1] - HALF_PI) <= 1e-12

    def test_floor_violation_raises(self):
        # a 1.5x amplitude drives a ~3pi/4 rotation: no amplitude within a 1%
        # span reaches pi/2, so the root solve has no bracket
        nm = NoiseModel()
        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", HALF_PI, 120)
        broken = replace(impl, shape=replace(impl.shape, amplitude=impl.amplitude * 1.5))
        with pytest.raises(CalibrationError, match="span 0.01"):
            fine_tune(broken, nm, span=0.01, fidelity_floor=0.999)

    def test_bracket_stops_at_unit_amplitude(self):
        # a weak drive puts the nominal 32 dt amplitude at 0.925, so the
        # bracket's upper end (1 + span) * a0 lies past the unit bound; the
        # root below it is still found
        gs = GateSet.ideal("static", 1, rabi_coefficient_hz=1.2e7)
        impl = gs.impl_for(0, "sx", HALF_PI, 32)
        assert 1.1 * impl.amplitude > 1.0
        tuned = fine_tune(impl, NoiseModel(rabi_coefficient_hz=1.2e7))
        assert tuned.amplitude == pytest.approx(0.925626, abs=1e-6) and tuned.fidelity > 0.9999

    def test_bracketed_root_below_floor_raises(self):
        # the root is found, but leakage keeps every real pulse below unit fidelity
        gs = GateSet.ideal("static", 1)
        with pytest.raises(CalibrationError, match="below floor 1.0"):
            fine_tune(gs.impl_for(0, "sx", HALF_PI, 32), NoiseModel(), fidelity_floor=1.0)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize(
    "bounds, durations",
    [((24, 48), (32,)), ((64, 120), (64, 120)), ((40, 100), (64,))],
    ids=["below", "equal", "between"],
)
@pytest.mark.parametrize("build", ["ideal", "calibrated"])
def test_one_sx_per_allowed_duration(build, bounds, durations, mode):
    # bounds below, equal to and between entries of a short menu: both
    # constructors hold exactly the Sx pulses the set can play
    kw = dict(min_duration=bounds[0], max_duration=bounds[1], static_durations=(32, 64, 120))
    gs = GateSet.ideal(mode, 1, **kw) if build == "ideal" else GateSet.calibrated(mode, NoiseModel(), 1, **kw)
    expected = [(0, "sx", d) for d in durations] if mode == "static" else []
    assert sorted((i.qubit, i.kind, i.duration) for i in gs.impls.values()) == expected
    assert list(gs.rabi) == [0]
    gs.validate_coverage(1)


@pytest.fixture(scope="module")
def calibrated():
    return GateSet.calibrated("static", NoiseModel(), n_qubits=1)


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

    def test_calibration_deterministic(self, calibrated):
        again = GateSet.calibrated("static", NoiseModel(), n_qubits=1)
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(
            calibrated.to_json(), sort_keys=True
        )

    def test_json_round_trip(self, calibrated, tmp_path):
        path = tmp_path / "gs.json"
        calibrated.write_json(path)
        loaded = GateSet.from_json(path.read_text())
        assert loaded.mode == "static"
        a = calibrated.impl_for(0, "sx", HALF_PI, 64)
        b = loaded.impl_for(0, "sx", HALF_PI, 64)
        assert b.amplitude == a.amplitude and b.sigma == a.sigma


def ideal_doc_with(key, value, row=0):
    """GateSet.ideal's static JSON document with one implementation value replaced."""
    doc = GateSet.ideal("static", 1).to_json()
    doc["implementations"][row][key] = value
    return doc


class TestImplementationValues:
    """GateSet.from_json checks every value a pulse is built from, so a
    schedule written from the set synthesizes unclipped and is finite JSON."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma", math.inf),
            ("sigma", math.nan),
            ("sigma", 0.0),
            ("sigma", -20.0),
            ("sigma", 1e300),
            ("amplitude", 1.5),
            ("amplitude", -1.0000001),
            ("amplitude", math.nan),
            ("amplitude", "0.1"),
            ("angle", math.inf),
            ("angle", math.nan),
            ("pre_frame", math.nan),
            ("pre_frame", math.inf),
            ("post_frame", math.nan),
            ("post_frame", -math.inf),
            ("pre_frame", 1e308),
            ("post_frame", -13.0),
            ("pre_frame", True),
            ("amplitude", True),
            ("fidelity", math.nan),
            ("fidelity", 1.5),
            ("fidelity", -0.1),
            ("fidelity", True),
        ],
    )
    def test_bad_value_is_gateset_error(self, key, value):
        text = json.dumps(ideal_doc_with(key, value))
        with pytest.raises(GateSetError, match=key):
            GateSet.from_json(text)

    @pytest.mark.parametrize("key, value", [("amplitude", 1.0), ("amplitude", -1.0), ("fidelity", None),
                                            ("pre_frame", 4 * math.pi), ("post_frame", -4 * math.pi)])
    def test_bounds_accepted(self, key, value):
        gs = GateSet.from_json(ideal_doc_with(key, value))
        impl = min(gs.impls.values(), key=lambda i: i.duration)
        assert getattr(impl, key) == value
        assert np.max(np.abs(synthesize(impl.shape).samples)) == pytest.approx(abs(impl.amplitude))

    @pytest.mark.parametrize(
        "column, value",
        [("amplitudes", math.nan), ("omegas_hz", math.nan), ("amplitudes", True), ("omegas_hz", "1e8")],
        ids=["amplitudes", "omegas_hz", "amplitudes-bool", "omegas_hz-string"],
    )
    def test_non_finite_rabi_table_is_gateset_error(self, column, value):
        doc = GateSet.ideal("dynamic", 1).to_json()
        doc["rabi"]["0"][column][1] = value
        with pytest.raises(GateSetError, match="finite"):
            GateSet.from_json(json.dumps(doc))

    @pytest.mark.parametrize("duration", [32, 33])
    def test_sigma_too_narrow_for_any_area(self, duration):
        # 2*sigma^2 underflows to 0: the center sample of an even duration
        # is 0/0, and every sample of an odd one is 0
        doc = GateSet.ideal("static", 1, static_durations=(duration, 64)).to_json()
        doc["implementations"][0]["sigma"] = 1e-200
        with pytest.raises(GateSetError, match=f"sigma 1e-200 leaves the {duration} dt envelope"):
            GateSet.from_json(json.dumps(doc))


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


#: edits that give a static one-qubit document a shape no gate set has
_DOC_EDITS = {
    "not-an-object": lambda doc: [1],
    "no-mode": lambda doc: _without(doc, "mode"),
    "no-min_duration": lambda doc: _without(doc, "min_duration"),
    "no-max_duration": lambda doc: _without(doc, "max_duration"),
    "static_durations-number": lambda doc: dict(doc, static_durations=64),
    "rabi-array": lambda doc: dict(doc, rabi=[doc["rabi"]["0"]]),
    "rabi-entry-number": lambda doc: dict(doc, rabi={"0": 5}),
    "rabi-entry-no-omegas": lambda doc: dict(doc, rabi={"0": _without(doc["rabi"]["0"], "omegas_hz")}),
    "rabi-amplitudes-number": lambda doc: dict(doc, rabi={"0": dict(doc["rabi"]["0"], amplitudes=0.5)}),
    "rabi-key-x": lambda doc: dict(doc, rabi={"x": doc["rabi"]["0"]}),
    "rabi-key-negative": lambda doc: dict(doc, rabi={"-1": doc["rabi"]["0"]}),
    "implementations-object": lambda doc: dict(doc, implementations={"a": 1}),
    "row-number": lambda doc: dict(doc, implementations=[5]),
    "row-no-sigma": lambda doc: dict(doc, implementations=[_without(doc["implementations"][0], "sigma")]),
}


class TestDocumentShape:
    """GateSet.from_json refuses, as GateSetError, a document that is not
    shaped like the one ``to_json`` writes, rather than raising the
    AttributeError, KeyError, TypeError or ValueError it meets."""

    @pytest.mark.parametrize("edit", _DOC_EDITS.values(), ids=_DOC_EDITS.keys())
    def test_document_of_another_shape(self, edit):
        text = json.dumps(edit(GateSet.ideal("static", 1).to_json()))
        with pytest.raises(GateSetError):
            GateSet.from_json(text)


class TestServedRows:
    """GateSet.from_json loads only rows the set can serve: a static set one
    sx row at angle pi/2 per (qubit, duration), a dynamic set none, since it
    derives every pulse from its Rabi tables.  An ecr row is skipped either
    way; the set rebuilds the fixed ECR on demand."""

    @pytest.mark.parametrize(
        "key, value, blamed",
        [
            ("kind", "measure", "kind"),
            ("kind", "sxdg", "kind"),
            ("kind", "rx", "kind"),
            ("angle", 0.3, "angle"),
            ("angle", -HALF_PI, "angle"),
            ("qubit", "zero", "qubit"),
            ("qubit", -1, "qubit"),
            ("qubit", 0.0, "qubit"),
            ("duration_dt", 100, "off the static menu"),
            ("duration_dt", True, "duration_dt"),
        ],
    )
    def test_row_it_cannot_serve(self, key, value, blamed):
        with pytest.raises(GateSetError, match=blamed):
            GateSet.from_json(json.dumps(ideal_doc_with(key, value)))

    def test_duplicate_row(self):
        doc = GateSet.ideal("static", 1).to_json()
        doc["implementations"].append(dict(doc["implementations"][0], amplitude=0.1))
        with pytest.raises(GateSetError, match="two sx rows for qubit 0 at 32 dt"):
            GateSet.from_json(json.dumps(doc))

    def test_any_row_in_a_dynamic_set(self):
        doc = GateSet.ideal("dynamic", 1).to_json()
        doc["implementations"] = GateSet.ideal("static", 1).to_json()["implementations"][:1]
        with pytest.raises(GateSetError, match="dynamic"):
            GateSet.from_json(json.dumps(doc))

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_ecr_rows_are_skipped(self, mode):
        doc = GateSet.ideal(mode, 1).to_json()
        ecr = {"mode": mode, "qubit": -1, "kind": "ecr", "angle": 0.0, "duration_dt": 1320,
               "sigma": 64.0, "amplitude": 0.12, "fidelity": None}
        doc["implementations"].append(ecr)
        loaded = GateSet.from_json(json.dumps(doc))
        assert loaded.to_json() == GateSet.ideal(mode, 1).to_json()


#: what a JSON document may hold where a gate set expects a number
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(max_size=4)
)


def _number_slots(doc):
    """(container, key) of every top-level bound, menu entry, Rabi entry and row field of doc."""
    slots = [(doc, key) for key in ("min_duration", "max_duration", "ecr_duration", "measure_duration")]
    slots += [(doc["static_durations"], i) for i in range(len(doc["static_durations"]))]
    slots += [(column, i) for table in doc["rabi"].values() for column in table.values() for i in range(len(column))]
    slots += [(row, key) for row in doc["implementations"] for key in row]
    return slots


def _loaded_numbers(gs):
    """Every number a loaded gate set holds."""
    numbers = [gs.min_duration, gs.max_duration, gs.ecr_duration, gs.measure_duration, *gs.static_durations]
    numbers += [x for t in gs.rabi.values() for x in (*t.amplitudes, *t.omegas_hz)]
    for impl in gs.impls.values():
        numbers += [impl.qubit, impl.angle, impl.duration, impl.amplitude, impl.sigma, impl.pre_frame,
                    impl.post_frame, *([] if impl.fidelity is None else [impl.fidelity])]
    return numbers


class TestJsonNumbers:
    """GateSet.from_json refuses, as GateSetError and without a warning, any
    value in place of a number that it cannot hold as a finite plain int or
    float."""

    DOCS = {mode: json.dumps(GateSet.ideal(mode, 2).to_json()) for mode in ("static", "dynamic")}

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(sorted(DOCS)), data=st.data())
    def test_loads_plain_finite_numbers_or_refuses(self, mode, data):
        doc = json.loads(self.DOCS[mode])
        container, key = data.draw(st.sampled_from(_number_slots(doc)), label="slot")
        container[key] = data.draw(_JSON_VALUES, label="value")
        try:
            gs = GateSet.from_json(json.dumps(doc))
        except GateSetError:
            return
        odd = [x for x in _loaded_numbers(gs) if type(x) not in (int, float) or not math.isfinite(x)]
        assert not odd


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

    def test_amplitude_below_minus_one_raises(self):
        # a table whose amplitudes fall as the frequency rises inverts to a
        # negative amplitude; past -1 the pulse would clip
        falling = RabiTable(amplitudes=(0.0, -0.5), omegas_hz=(0.0, 1e6))
        with pytest.warns(ExtrapolationWarning), pytest.raises(InfeasibleDurationError):
            dynamic_amplitude(PI, 64, falling)

    def test_simulated_rotation_within_one_percent(self):
        nm = NoiseModel()
        gs = GateSet.calibrated("dynamic", nm, 1, min_duration=32, max_duration=128)
        impl = gs.impl_for(0, "rx", HALF_PI, 64)
        u = propagate_waveform(synthesize(impl.shape), nm)
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
        amplitudes = {spec.amplitude for spec in sch.waveforms.values()}
        assert len(amplitudes) == 2
