"""Waveform synthesis for Gaussian, Gaussian-Square and DRAG shapes.

``DT_NS`` is the one sample time: every duration in the package counts its
samples.  All envelopes are sampled on this dt grid: sample k represents
t = k (in dt units), k = 0..d-1.  Complex samples carry the I envelope in
the real part and the Q envelope in the imaginary part; the carrier is
implicit (rotating-frame simulator).
``ShapeSpec`` is the one judge of a playable envelope, for a gate-set row
and a schedule's pulse alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClippingError, is_real

GAUSSIAN = "gaussian"
GAUSSIAN_SQUARE = "gaussian_square"
DRAG = "drag"

SHAPES = (GAUSSIAN, GAUSSIAN_SQUARE, DRAG)

#: Hardware sampling time of the reference backend, in ns.
DT_NS = 0.5


@dataclass(frozen=True)
class ShapeSpec:
    """Parameters of one control-pulse envelope, each judged on construction
    with a ``ValueError`` that names its field.

    ``width`` is the flat-top width of a Gaussian-Square pulse; its rise and
    fall flanks each span ``risefall = (duration - width) / 2`` samples so the
    three envelope segments exactly tile ``[0, duration)``.  The normalized
    envelope peaks at 1, so |amplitude| <= 1 is exactly the no-clipping bound.
    """

    shape: str
    amplitude: float
    duration: int
    sigma: float = 0.0
    width: int = 0
    beta: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        d, w = self.duration, self.width
        if self.shape not in SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if not (type(d) is int and d >= 1):
            raise ValueError(f"duration {d!r} must be a positive dt count")
        if not (type(w) is int and 0 <= w <= d):
            raise ValueError(f"width {w!r} must be a dt count in [0, duration]")
        if not is_real(self.amplitude, 1.0):
            raise ValueError(f"amplitude {self.amplitude!r} must be a finite number within ±1")
        if not (is_real(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma {self.sigma!r} must be a finite positive number")
        if not (is_real(self.beta) and is_real(self.phase)):
            raise ValueError(f"beta {self.beta!r} and phase {self.phase!r} must be finite numbers")
        if not self._has_area():
            raise ValueError(f"sigma {self.sigma!r} leaves the {d} dt envelope no finite, positive area")

    def _has_area(self) -> bool:
        """Whether the sampled unit envelope has a finite, positive area, in
        plain floats: the farthest exponent sampled (the fall flank's at -1) is
        finite, f(-1) lies 2e-15 or more below the peak (twice ``normalize``'s
        guard), and an odd duration's center sample does not underflow."""
        r = self.risefall if self.shape == GAUSSIAN_SQUARE else self.center
        # a flat top of one dt or more holds a sample at the peak
        off_center = self.duration % 2 and (self.shape != GAUSSIAN_SQUARE or not self.width)
        try:
            two_var = 2.0 * float(self.sigma) ** 2
            edge = (r + 1.0) ** 2 / two_var  # f(-1) = exp(-edge)
            farthest = (self.duration - r + 1.0) ** 2 / two_var
            center = 0.25 / two_var if off_center else 0.0
        except (OverflowError, ZeroDivisionError):
            return False
        return farthest < math.inf and center <= 700.0 and 1.0 - math.exp(-edge) >= 2e-15

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


def _unit_envelope(spec: ShapeSpec, t):
    """The real, phase-free normalized envelope at unit amplitude, DRAG's Q part left out."""
    if spec.shape != GAUSSIAN_SQUARE:
        return normalize(lambda x: gaussian(x, spec.center, spec.sigma), spec.duration)(t)
    r = spec.risefall
    w = spec.width

    def h(x):
        x = np.asarray(x, dtype=float)
        rise = gaussian(x, r, spec.sigma)
        fall = gaussian(x, r + w, spec.sigma)
        return np.where(x < r, rise, np.where(x < r + w, 1.0, fall))

    return normalize(h, spec.duration)(t)


def evaluate_envelope(spec: ShapeSpec, t):
    """Evaluate the (complex, phase-free) continuous envelope at time t.

    Used by synthesize() on the integer grid; kept continuous so tests can
    take finite differences at arbitrary points.
    """
    t = np.asarray(t, dtype=float)
    env = _unit_envelope(spec, t)
    if spec.shape != DRAG:
        return spec.amplitude * env.astype(complex)
    # DRAG: Gaussian I component plus beta-scaled derivative Q component.
    f_i = spec.amplitude * env
    f_q = -((t - spec.center) / spec.sigma**2) * f_i
    return f_i + 1j * spec.beta * f_q


def synthesize(spec: ShapeSpec) -> Waveform:
    """Sample the envelope on the dt grid and apply the phase as a complex rotation."""
    t = np.arange(spec.duration, dtype=float)
    samples = evaluate_envelope(spec, t) * np.exp(1j * spec.phase)
    return Waveform(samples=samples)


def envelope_sum(spec: ShapeSpec) -> float:
    """Sum of envelope samples at unit amplitude (discrete area in dt units)."""
    return float(np.sum(_unit_envelope(spec, np.arange(spec.duration, dtype=float))))
