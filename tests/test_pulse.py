"""Waveform synthesis identities and the finite-difference DRAG oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsesched.errors import ClippingError
from pulsesched.pulses import (
    DRAG,
    DT_NS,
    GAUSSIAN,
    GAUSSIAN_SQUARE,
    SHAPES,
    ShapeSpec,
    Waveform,
    envelope_sum,
    evaluate_envelope,
    gaussian,
    normalize,
    synthesize,
)


class TestNormalize:
    def test_peak_maps_to_one(self):
        f = normalize(lambda t: gaussian(t, 30.0, 10.0), 60)
        assert f(30.0) == pytest.approx(1.0)

    def test_zero_at_minus_one_by_construction(self):
        f = normalize(lambda t: gaussian(t, 60.0, 30.0), 120)
        assert f(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_endpoints_small(self):
        # d=120, sigma=30: boundary values frozen from the closed form; both
        # ends sit at the 1-2% level of the peak (t=0..d-1 sampling is one
        # step asymmetric about the center, t=d would mirror t=0 exactly)
        f = normalize(lambda t: gaussian(t, 60.0, 30.0), 120)
        assert f(0.0) == pytest.approx(0.010073118182529145, rel=1e-12)
        assert f(119.0) == pytest.approx(0.020662626729850427, rel=1e-12)
        assert f(120.0) == pytest.approx(f(0.0), rel=1e-12)
        assert max(f(0.0), f(119.0)) < 0.021

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(lambda t: 1.0, 10)


class TestSynthesize:
    def test_gaussian_peak_equals_amplitude(self):
        w = synthesize(ShapeSpec(shape=GAUSSIAN, amplitude=0.3, duration=64, sigma=16.0))
        assert w.samples[32].real == pytest.approx(0.3, abs=1e-15)
        assert abs(w.samples).max() == pytest.approx(0.3)

    def test_gaussian_square_plateau(self):
        spec = ShapeSpec(shape=GAUSSIAN_SQUARE, amplitude=0.2, duration=120, sigma=30.0, width=60)
        w = synthesize(spec)
        r = int(spec.risefall)
        plateau = w.samples[r : r + spec.width].real
        assert np.allclose(plateau, 0.2, atol=1e-15)
        # symmetric flanks tile the remaining samples
        assert w.samples[0].real < 0.2 and w.samples[-1].real < 0.2

    def test_drag_center_zero_and_antisymmetric(self):
        w = synthesize(ShapeSpec(shape=DRAG, amplitude=0.2, duration=64, sigma=16.0, beta=0.1))
        q = w.samples.imag
        assert q[32] == 0.0
        for k in range(1, 32):
            assert q[32 + k] == pytest.approx(-q[32 - k], abs=1e-18)

    def test_drag_q_is_scaled_derivative_identity(self):
        # analytic identity at 1e-12 on the emitted samples
        a, d, sigma, beta = 0.25, 192, 16.0, 0.1
        w = synthesize(ShapeSpec(shape=DRAG, amplitude=a, duration=d, sigma=sigma, beta=beta))
        t = np.arange(d, dtype=float)
        expected_q = beta * (-(t - d / 2) / sigma**2) * w.samples.real
        assert np.max(np.abs(w.samples.imag - expected_q)) < 1e-12

    @pytest.mark.parametrize("sigma", [16.0, 24.0, 32.0])
    def test_drag_q_matches_finite_difference(self, sigma):
        # centered finite differences of the continuous I envelope; the
        # normalization offset is negligible once d covers ~12 sigma
        a, beta = 0.5, 0.1
        d = int(12 * sigma)
        spec = ShapeSpec(shape=DRAG, amplitude=a, duration=d, sigma=sigma, beta=beta)
        t = np.arange(d, dtype=float)
        h = 1e-3
        i_plus = evaluate_envelope(spec, t + h).real
        i_minus = evaluate_envelope(spec, t - h).real
        fd = (i_plus - i_minus) / (2 * h)
        q = evaluate_envelope(spec, t).imag
        assert np.max(np.abs(q - beta * fd)) <= 1e-6 * a

    def test_phase_is_exact_complex_rotation(self):
        base = ShapeSpec(shape=GAUSSIAN, amplitude=0.3, duration=64, sigma=20.0, phase=0.25)
        other = ShapeSpec(shape=GAUSSIAN, amplitude=0.3, duration=64, sigma=20.0, phase=1.8)
        w0, w1 = synthesize(base), synthesize(other)
        rot = np.exp(1j * (1.8 - 0.25))
        assert np.max(np.abs(w1.samples - rot * w0.samples)) < 1e-15

    def test_sample_count_exact(self):
        for d in (1, 8, 120, 513):
            w = synthesize(ShapeSpec(shape=GAUSSIAN, amplitude=0.05, duration=d, sigma=4.0))
            assert w.duration == d == len(w.samples)

    def test_amplitude_bound_enforced(self):
        # the shape refuses an amplitude past the envelope's unit peak; a
        # DRAG pulse's Q part can still exceed 1, which the waveform refuses
        with pytest.raises(ValueError, match="amplitude"):
            ShapeSpec(shape=GAUSSIAN, amplitude=1.2, duration=8, sigma=2.0)
        with pytest.raises(ClippingError):
            synthesize(ShapeSpec(shape=DRAG, amplitude=1.0, duration=8, sigma=2.0, beta=10.0))
        with pytest.raises(ClippingError):
            Waveform(samples=np.array([1.05 + 0j]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec(shape="triangle", amplitude=0.1, duration=8)
        with pytest.raises(ValueError):
            ShapeSpec(shape=GAUSSIAN, amplitude=0.1, duration=8, sigma=0.0)
        with pytest.raises(ValueError):
            ShapeSpec(shape=GAUSSIAN_SQUARE, amplitude=0.1, duration=8, sigma=2.0, width=10)


_SX = ShapeSpec(shape=GAUSSIAN, amplitude=0.1, duration=64, sigma=16.0)


class TestShapeSpecValues:
    """A ShapeSpec judges each of its own values, and names the field it refuses."""

    @pytest.mark.parametrize("field, value", [
        ("duration", 0), ("duration", -8), ("duration", True), ("duration", 64.0), ("duration", np.int64(64)),
        ("duration", "64"), ("duration", None),
        ("width", -1), ("width", 65), ("width", True), ("width", 1.5), ("width", np.int64(0)),
        ("amplitude", math.nan), ("amplitude", math.inf), ("amplitude", 1.0000001), ("amplitude", -5.0),
        ("amplitude", True), ("amplitude", "0.1"), ("amplitude", None),
        ("sigma", 0.0), ("sigma", -16.0), ("sigma", math.inf), ("sigma", math.nan), ("sigma", True), ("sigma", "16"),
        ("beta", math.nan), ("beta", math.inf), ("beta", True),
        ("phase", math.nan), ("phase", -math.inf), ("phase", "0"),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(_SX, **{field: value})

    @pytest.mark.parametrize("field, value", [("amplitude", 1.0), ("amplitude", -1.0), ("amplitude", 0),
                                              ("width", 64), ("sigma", 16), ("beta", -1e300), ("phase", 1e300)])
    def test_values_at_the_bounds(self, field, value):
        assert getattr(replace(_SX, **{field: value}), field) == value

    @pytest.mark.parametrize("duration, sigma", [
        pytest.param(64, 1e300, id="sigma-squared-overflows"),
        pytest.param(64, 1e154, id="two-sigma-squared-overflows"),
        pytest.param(64, 1e9, id="edge-at-the-peak"),
        pytest.param(64, 1e-200, id="sigma-squared-underflows"),
        pytest.param(64, 1e-160, id="far-exponent-overflows"),
        pytest.param(33, 0.01, id="odd-center-underflows"),
        pytest.param(33, math.sqrt(0.125 / 701), id="odd-center-past-700"),
    ])
    def test_no_finite_positive_area(self, duration, sigma):
        with pytest.raises(ValueError, match=f"sigma .* leaves the {duration} dt envelope"):
            ShapeSpec(shape=GAUSSIAN, amplitude=0.1, duration=duration, sigma=sigma)

    @pytest.mark.parametrize("shape, duration, width, sigma", [
        (GAUSSIAN, 33, 0, math.sqrt(0.125 / 699)),
        (GAUSSIAN, 64, 0, 0.01),
        (GAUSSIAN_SQUARE, 33, 1, 0.01),
        (GAUSSIAN_SQUARE, 33, 0, math.sqrt(0.125 / 699)),
        (GAUSSIAN_SQUARE, 64, 64, 1e-10),
    ])
    def test_narrow_envelopes_keep_a_peak_sample(self, shape, duration, width, sigma):
        spec = ShapeSpec(shape=shape, amplitude=0.1, duration=duration, sigma=sigma, width=width)
        assert 0.0 < envelope_sum(spec) <= duration

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from(SHAPES), duration=st.integers(1, 300), width=st.floats(0, 1),
           sigma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
           | st.floats(1e-3, 1e3) | st.floats(1e7, 1e9))
    def test_accepted_shapes_sample_a_finite_positive_area(self, shape, duration, width, sigma):
        # the plain-float judge agrees with numpy's sampling: an accepted
        # shape samples with no overflow (a RuntimeWarning fails the suite)
        try:
            spec = ShapeSpec(shape=shape, amplitude=0.5, duration=duration, sigma=sigma,
                             width=int(width * duration) if shape == GAUSSIAN_SQUARE else 0,
                             beta=0.1 if shape == DRAG else 0.0)
        except ValueError:
            return
        assert 0.0 < envelope_sum(spec) <= duration
        assert np.all(np.isfinite(synthesize(spec).samples))


class TestPulseArea:
    KAPPA = 1.05e8

    def test_calibrated_sx_area_near_quarter_turn(self):
        # amplitude from the envelope-area formula should give pi/2 exactly:
        # the Bloch rotation rate is 4*pi*kappa per unit amplitude
        from pulsesched.gateset import GateSet

        gs = GateSet.ideal("static", 1)
        impl = gs.impl_for(0, "sx", math.pi / 2, 120)
        area = impl.amplitude * envelope_sum(impl.shape) * 4.0 * math.pi * self.KAPPA * (DT_NS * 1e-9)
        assert area == pytest.approx(math.pi / 2, rel=1e-6)

    def test_envelope_sum_positive(self):
        spec = ShapeSpec(shape=GAUSSIAN, amplitude=0.7, duration=64, sigma=96.0)
        assert envelope_sum(spec) > 0
