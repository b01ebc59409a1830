"""Waveform synthesis for Gaussian, Gaussian-Square and DRAG shapes.

``DT_NS`` is the one sample time: every duration in the package counts its
samples.  All envelopes are sampled on this dt grid: sample k represents
t = k (in dt units), k = 0..d-1.  Complex samples carry the I envelope in
the real part and the Q envelope in the imaginary part; the carrier is
implicit (rotating-frame simulator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClippingError

GAUSSIAN = "gaussian"
GAUSSIAN_SQUARE = "gaussian_square"
DRAG = "drag"

SHAPES = (GAUSSIAN, GAUSSIAN_SQUARE, DRAG)

#: Hardware sampling time of the reference backend, in ns.
DT_NS = 0.5


@dataclass(frozen=True)
class ShapeSpec:
    """Parameters of one control-pulse envelope.

    ``width`` is the flat-top width of a Gaussian-Square pulse; its rise and
    fall flanks each span ``risefall = (duration - width) / 2`` samples so the
    three envelope segments exactly tile ``[0, duration)``.
    """

    shape: str
    amplitude: float
    duration: int
    sigma: float = 0.0
    width: int = 0
    beta: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.duration <= 0:
            raise ValueError("duration must be a positive dt count")
        if self.sigma <= 0:
            raise ValueError("every shape needs sigma > 0")
        if self.shape == GAUSSIAN_SQUARE and not 0 <= self.width <= self.duration:
            raise ValueError("need 0 <= width <= duration")

    @property
    def risefall(self) -> float:
        return (self.duration - self.width) / 2

    @property
    def center(self) -> float:
        return self.duration / 2


@dataclass(frozen=True)
class Waveform:
    """Complex I/Q samples, one per dt."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        peak = float(np.max(np.abs(self.samples))) if len(self.samples) else 0.0
        if peak > 1.0 + 1e-9:
            raise ClippingError(f"waveform sample magnitude {peak:.6f} exceeds 1")

    @property
    def duration(self) -> int:
        return len(self.samples)

    @property
    def i(self) -> np.ndarray:
        return self.samples.real

    @property
    def q(self) -> np.ndarray:
        return self.samples.imag


def gaussian(t, mu, sigma):
    """Unnormalized Gaussian g(t) = exp(-(t-mu)^2 / (2 sigma^2))."""
    t = np.asarray(t, dtype=float)
    return np.exp(-((t - mu) ** 2) / (2.0 * sigma**2))


def normalize(f, d):
    """Rescale a sampled envelope so f(-1) maps to 0 and the peak value 1 stays 1.

    Returns the function N(f)(t) = (f(t) - f(-1)) / (1 - f(-1)) defined on
    0 <= t <= d.  Raises ValueError when f(-1) == 1 (zero denominator).
    """
    f_m1 = float(f(-1.0))
    if abs(1.0 - f_m1) < 1e-15:
        raise ValueError("cannot normalize: f(-1) == 1")
    return lambda t: (f(t) - f_m1) / (1.0 - f_m1)


def evaluate_envelope(spec: ShapeSpec, t):
    """Evaluate the (complex, phase-free) continuous envelope at time t.

    Used by synthesize() on the integer grid; kept continuous so tests can
    take finite differences at arbitrary points.
    """
    t = np.asarray(t, dtype=float)
    a = spec.amplitude
    if spec.shape == GAUSSIAN:
        env = normalize(lambda x: gaussian(x, spec.center, spec.sigma), spec.duration)
        return a * env(t).astype(complex)
    if spec.shape == GAUSSIAN_SQUARE:
        r = spec.risefall
        w = spec.width

        def h(x):
            x = np.asarray(x, dtype=float)
            rise = gaussian(x, r, spec.sigma)
            fall = gaussian(x, r + w, spec.sigma)
            out = np.where(x < r, rise, np.where(x < r + w, 1.0, fall))
            return out

        env = normalize(h, spec.duration)
        return a * env(t).astype(complex)
    # DRAG: Gaussian I component plus beta-scaled derivative Q component.
    env = normalize(lambda x: gaussian(x, spec.center, spec.sigma), spec.duration)
    f_i = a * env(t)
    f_q = -((t - spec.center) / spec.sigma**2) * f_i
    return f_i + 1j * spec.beta * f_q


def synthesize(spec: ShapeSpec) -> Waveform:
    """Sample the envelope on the dt grid and apply the phase as a complex rotation."""
    if abs(spec.amplitude) > 1.0:
        raise ClippingError(f"amplitude {spec.amplitude} exceeds unit bound")
    t = np.arange(spec.duration, dtype=float)
    samples = evaluate_envelope(spec, t) * np.exp(1j * spec.phase)
    return Waveform(samples=samples)


def envelope_sum(spec: ShapeSpec) -> float:
    """Sum of envelope samples at unit amplitude (discrete area in dt units)."""
    unit = ShapeSpec(
        shape=spec.shape,
        amplitude=1.0,
        duration=spec.duration,
        sigma=spec.sigma,
        width=spec.width,
        beta=0.0 if spec.shape == DRAG else spec.beta,
    )
    t = np.arange(spec.duration, dtype=float)
    return float(np.sum(evaluate_envelope(unit, t).real))
