"""Waveform synthesis identities and the finite-difference DRAG oracle."""

import math

import numpy as np
import pytest

from pulsesched.errors import ClippingError
from pulsesched.pulses import (
    DRAG,
    DT_NS,
    GAUSSIAN,
    GAUSSIAN_SQUARE,
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
        q = w.q
        assert q[32] == 0.0
        for k in range(1, 32):
            assert q[32 + k] == pytest.approx(-q[32 - k], abs=1e-18)

    def test_drag_q_is_scaled_derivative_identity(self):
        # analytic identity at 1e-12 on the emitted samples
        a, d, sigma, beta = 0.25, 192, 16.0, 0.1
        w = synthesize(ShapeSpec(shape=DRAG, amplitude=a, duration=d, sigma=sigma, beta=beta))
        t = np.arange(d, dtype=float)
        expected_q = beta * (-(t - d / 2) / sigma**2) * w.i
        assert np.max(np.abs(w.q - expected_q)) < 1e-12

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
        with pytest.raises(ClippingError):
            synthesize(ShapeSpec(shape=GAUSSIAN, amplitude=1.2, duration=8, sigma=2.0))
        with pytest.raises(ClippingError):
            Waveform(samples=np.array([1.05 + 0j]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec(shape="triangle", amplitude=0.1, duration=8)
        with pytest.raises(ValueError):
            ShapeSpec(shape=GAUSSIAN, amplitude=0.1, duration=8, sigma=0.0)
        with pytest.raises(ValueError):
            ShapeSpec(shape=GAUSSIAN_SQUARE, amplitude=0.1, duration=8, sigma=2.0, width=10)


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
