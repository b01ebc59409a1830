"""Calibrated gate catalog: duration policies, Rabi calibration, fine-tuning.

Static mode keeps a discrete list of fine-tuned Sx durations per qubit.
Dynamic mode derives an arbitrary-x-rotation pulse for any multiple-of-8
duration straight from the Rabi amplitude/frequency interpolation, with
per-operation duration bounds scaled by rotation angle (a pi rotation spans
twice the dt range of a pi/2 rotation).

Two constructors build a set: ``GateSet.ideal`` from an exactly linear Rabi
response, and ``GateSet.calibrated`` against the simulator.  In static mode
both hold one Sx per qubit and menu duration within the set's bounds, and
nothing else.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import circuit as circ
from .errors import (
    CalibrationError,
    ExtrapolationWarning,
    GateSetError,
    InfeasibleDurationError,
    RabiFitError,
    is_integer,
    is_real,
)
from .pulses import (
    DT_NS,
    GAUSSIAN,
    GAUSSIAN_SQUARE,
    ShapeSpec,
    envelope_sum,
    synthesize,
)
from .schedule import MAX_FRAME_ANGLE
from .sim import NoiseModel, ideal_rx, propagate_waveform, simulate_rabi

HALF_PI = math.pi / 2.0

STATIC = "static"
DYNAMIC = "dynamic"

#: calibrated static Sx durations on the reference backend, in dt
DEFAULT_STATIC_DURATIONS = (32, 48, 64, 120, 256, 512)

#: shortest single-qubit pulse in either mode, in dt: the smallest multiple
#: of 8 above sigma_of_duration's 17.36 dt bound
MIN_DYNAMIC_DURATION = 24

#: dynamic-mode duration window of a pi/2 rotation when none is given, in dt
DEFAULT_DYNAMIC_WINDOW = (32, 128)

#: fixed two-qubit gate duration, in dt
DEFAULT_ECR_DURATION = 1320

#: default Rabi sweep: log-spaced amplitudes, each observed over 4*pi
DEFAULT_RABI_AMPLITUDES = tuple(np.geomspace(0.001, 0.5, 16))


def sigma_of_duration(d: float) -> float:
    """Gaussian standard deviation for a pulse of duration d (dt units).

    Wide for short pulses (suppressing the amplitude peak), approaching d/5
    for long ones.  Only defined for d > 17.36.
    """
    if d <= 17.36:
        raise ValueError(f"sigma(d) undefined for d={d} <= 17.36")
    return d * (math.exp(-(d - 68.51) / 17.19) + 0.2)


# ---------------------------------------------------------------------------
# Rabi fitting and interpolation


@dataclass(frozen=True)
class RabiFit:
    """Parameters of y(t) = amplitude * cos^2(2 pi omega t + phase) + offset."""

    omega_hz: float
    amplitude: float
    phase: float
    offset: float
    residual: float
    degenerate: bool = False


def _rabi_model(t, amplitude, omega, phase, offset):
    return amplitude * np.cos(2.0 * np.pi * omega * t + phase) ** 2 + offset


def _rabi_jacobian(t, amplitude, omega, phase, offset):
    """(len(t), 4) derivatives of ``_rabi_model`` by amplitude, omega, phase, offset."""
    arg = 2.0 * np.pi * omega * t + phase
    d_phase = -amplitude * np.sin(2.0 * arg)
    return np.column_stack([np.cos(arg) ** 2, 2.0 * np.pi * t * d_phase, d_phase, np.ones_like(arg)])


def fit_rabi(times_s, signal) -> RabiFit:
    """Least-squares fit of the cos^2 Rabi oscillation; omega in Hz.

    Needs at least 8 samples covering one oscillation.  A flat signal yields
    a degenerate fit with omega = 0 rather than an error.  The FFT peak
    seeds omega, and ``curve_fit`` runs bounded with the model's analytic
    Jacobian ``_rabi_jacobian``, not finite differences.  ``curve_fit`` is
    imported here, so only calibration loads ``scipy.optimize``.
    """
    from scipy.optimize import curve_fit

    t = np.asarray(times_s, dtype=float)
    y = np.asarray(signal, dtype=float)
    if len(t) < 8:
        raise ValueError("need at least 8 samples to fit a Rabi oscillation")
    swing = float(y.max() - y.min())
    if swing < 1e-6:
        return RabiFit(0.0, 0.0, 0.0, float(y.mean()), 0.0, degenerate=True)

    # cos^2 oscillates at twice the fit frequency; seed omega from the FFT peak
    dt = t[1] - t[0]
    spectrum = np.abs(np.fft.rfft(y - y.mean()))
    freqs = np.fft.rfftfreq(len(y), dt)
    f_peak = freqs[int(np.argmax(spectrum[1:])) + 1] if len(spectrum) > 1 else 0.0
    omega0 = max(f_peak / 2.0, 1.0 / (4.0 * (t[-1] - t[0])))
    p0 = [swing, omega0, 0.0, float(y.min())]
    try:
        popt, _ = curve_fit(
            _rabi_model,
            t,
            y,
            p0=p0,
            jac=_rabi_jacobian,
            bounds=([0.0, 0.0, -np.pi, -1.0], [2.0, np.inf, np.pi, 2.0]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise RabiFitError(f"Rabi fit did not converge: {exc}") from exc
    resid = float(np.sqrt(np.mean((y - _rabi_model(t, *popt)) ** 2)))
    if resid > 0.15:
        raise RabiFitError(f"Rabi fit residual {resid:.4f} exceeds 0.15")
    return RabiFit(
        omega_hz=float(popt[1]),
        amplitude=float(popt[0]),
        phase=float(popt[2]),
        offset=float(popt[3]),
        residual=resid,
    )


@dataclass(frozen=True)
class RabiTable:
    """Measured (amplitude, Rabi frequency) pairs for one qubit."""

    amplitudes: tuple[float, ...]
    omegas_hz: tuple[float, ...]

    def __post_init__(self):
        if len(self.amplitudes) != len(self.omegas_hz) or len(self.amplitudes) < 2:
            raise GateSetError("Rabi table needs at least two (amplitude, omega) pairs")
        if not all(map(is_real, (*self.amplitudes, *self.omegas_hz))):
            raise GateSetError("Rabi table amplitudes and frequencies must be finite numbers")

    @classmethod
    def linear(cls, rabi_coefficient_hz: float) -> "RabiTable":
        """Exact two-point table for an ideal linear amplitude-frequency relation."""
        return cls(amplitudes=(0.0, 1.0), omegas_hz=(0.0, float(rabi_coefficient_hz)))


def interpolate_amplitude(table: RabiTable, target_omega_hz: float) -> float:
    """Invert the amplitude <-> Rabi-frequency relation by piecewise-linear
    interpolation; warns (and extrapolates linearly) outside the measured range."""
    omegas, amps = (np.array(c) for c in zip(*sorted(zip(table.omegas_hz, table.amplitudes))))
    if target_omega_hz < omegas[0] or target_omega_hz > omegas[-1]:
        warnings.warn(
            f"target Rabi frequency {target_omega_hz:.6g} Hz outside calibrated "
            f"range [{omegas[0]:.6g}, {omegas[-1]:.6g}]; extrapolating",
            ExtrapolationWarning,
            stacklevel=2,
        )
        i = 0 if target_omega_hz < omegas[0] else len(omegas) - 2
        slope = (amps[i + 1] - amps[i]) / (omegas[i + 1] - omegas[i])
        return float(amps[i] + slope * (target_omega_hz - omegas[i]))
    return float(np.interp(target_omega_hz, omegas, amps))


# ---------------------------------------------------------------------------
# gate implementations


@dataclass(frozen=True)
class GateImpl:
    """One calibrated realization of an operation at its shape's duration.

    pre_frame/post_frame are virtual-Z corrections (free frame shifts) played
    around the pulse; calibration uses them to null the drive-induced phase
    error so only the genuinely duration-dependent leakage remains.
    """

    qubit: int
    kind: str
    angle: float
    shape: ShapeSpec
    fidelity: float | None = None
    pre_frame: float = 0.0
    post_frame: float = 0.0

    @property
    def duration(self) -> int:
        return self.shape.duration

    @property
    def amplitude(self) -> float:
        return self.shape.amplitude

    @property
    def sigma(self) -> float:
        return self.shape.sigma

    def waveform_id(self) -> str:
        if self.kind == circ.ECR:
            return f"ecr_d{self.duration}"
        if self.kind == circ.RX:
            return f"rx{_angle_key(self.angle):+.9f}_q{self.qubit}_d{self.duration}"
        return f"{self.kind}_q{self.qubit}_d{self.duration}"


def dynamic_pulse_shape(theta: float, duration: int, amplitude: float) -> ShapeSpec:
    """Envelope for an arbitrary x rotation at a given actual duration.

    The shape depends only on the duration (sigma from the empirical rule),
    never on the rotation angle, so the required amplitude is exactly linear
    in the angle at fixed duration; negative rotations drive at phase pi.
    """
    if theta == 0.0:
        raise GateSetError("zero rotations carry no pulse")
    return ShapeSpec(
        shape=GAUSSIAN,
        amplitude=amplitude,
        duration=duration,
        sigma=sigma_of_duration(duration),
        phase=0.0 if theta >= 0 else math.pi,
    )


def dynamic_amplitude(theta: float, duration: int, table: RabiTable) -> float:
    """Amplitude whose rotation area over the Gaussian envelope equals theta.

    The target Rabi frequency comes from summing envelope samples times the
    amplitude-to-rotation coefficient times dt, then inverting through the
    interpolated Rabi data.  Raises unless the required amplitude has
    magnitude at most 1, so every derived pulse synthesizes unclipped.
    """
    if theta == 0.0:
        return 0.0
    shape = dynamic_pulse_shape(theta, duration, amplitude=1.0)
    env = envelope_sum(shape)
    target_omega = abs(theta) / (4.0 * math.pi * (DT_NS * 1e-9) * env)
    amplitude = interpolate_amplitude(table, target_omega)
    if not abs(amplitude) <= 1.0:
        raise InfeasibleDurationError(
            f"rotation {theta:.4f} over {duration} dt needs amplitude {amplitude:.4f}, beyond the unit bound"
        )
    return amplitude


def _nominal_impl(qubit: int, kind: str, angle: float, duration: int, table: RabiTable) -> GateImpl:
    """An x rotation's Gaussian pulse at the envelope-area amplitude, before fine-tuning."""
    shape = dynamic_pulse_shape(angle, duration, dynamic_amplitude(angle, duration, table))
    return GateImpl(qubit=qubit, kind=kind, angle=angle, shape=shape)


def _zxz_angles(block: np.ndarray) -> tuple[float, float, float]:
    """Decompose a (possibly sub-unitary) 2x2 block as Rz(a).Rx(b).Rz(c)."""
    theta, phi, lam = circ.u3_angles(block)
    # U3(t, p, l) = Rz(p + pi/2) . Rx(t) . Rz(l - pi/2) up to global phase
    return phi + HALF_PI, theta, lam - HALF_PI


def _rz2(a: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _frame_corrected_fidelity(u3x3: np.ndarray, theta: float):
    """Average gate fidelity against Rx(theta) after free virtual-Z dressing.

    Returns (fidelity, pre_frame, post_frame) where the frames are the Rz
    angles to play before/after the pulse so the corrected block is a pure
    x rotation (drive phase errors are nulled for free; leakage and rotation
    error remain and set the fidelity).
    """
    block = u3x3[:2, :2]
    alpha, _, gamma = _zxz_angles(block)
    pre, post = -gamma, -alpha
    corrected = _rz2(post) @ block @ _rz2(pre)
    m = ideal_rx(theta).conj().T @ corrected
    fid = float((np.trace(m @ m.conj().T) + abs(np.trace(m)) ** 2).real / 6.0)
    return fid, pre, post


def fine_tune(
    impl: GateImpl,
    nm: NoiseModel,
    span: float = 0.1,
    fidelity_floor: float = 0.9,
) -> GateImpl:
    """Solve for the amplitude whose pulse rotates by exactly the target angle.

    One bracketed root solve over amplitudes within ``span`` of the
    interpolated value, and within the unit bound, sets the noiseless
    three-level propagator's qubit-block rotation to |angle|.  That pulse
    is scored once by its average gate fidelity against the ideal rotation,
    with virtual-Z frame corrections taken for free (they cost nothing on
    hardware), so the only residual error is leakage.  ``brentq`` is
    imported here, so only calibration loads ``scipy.optimize``.
    """
    from scipy.optimize import brentq

    def propagate(amp: float):
        w = synthesize(replace(impl.shape, amplitude=float(amp)))
        return propagate_waveform(w, nm, impl.qubit)

    def rotation_error(amp: float) -> float:
        return _zxz_angles(propagate(amp)[:2, :2])[1] - abs(impl.angle)

    a0 = impl.shape.amplitude
    lo, hi = (min(max(f * a0, -1.0), 1.0) for f in (1.0 - span, 1.0 + span))
    try:
        amp = float(brentq(rotation_error, lo, hi, xtol=1e-14))
    except ValueError as exc:
        raise CalibrationError(
            f"fine-tune of {impl.kind} q{impl.qubit} d={impl.duration}: no amplitude within "
            f"span {span} of {a0:.6g} reaches rotation {abs(impl.angle):.6f}"
        ) from exc
    fid, pre, post = _frame_corrected_fidelity(propagate(amp), abs(impl.angle))
    if fid < fidelity_floor:
        raise CalibrationError(
            f"fine-tune of {impl.kind} q{impl.qubit} d={impl.duration} peaked at "
            f"fidelity {fid:.6f}, below floor {fidelity_floor}"
        )
    return replace(
        impl,
        shape=replace(impl.shape, amplitude=amp),
        fidelity=fid,
        pre_frame=pre,
        post_frame=post,
    )


# ---------------------------------------------------------------------------
# the gate set


def _angle_key(angle: float) -> float:
    return round(angle, 9)


def _dt_count(value, what: str, minimum: int) -> int:
    """value as a whole number of dt samples, at least minimum: an integer or
    an integral float, not a bool."""
    if not (is_integer(value) or is_real(value) and float(value).is_integer()) or value < minimum:
        raise GateSetError(f"{what} must be a whole number of dt, at least {minimum}, got {value!r}")
    return int(value)


def _finite(row: dict, key: str, default=None, bound: float = sys.float_info.max):
    """row[key], or default when the key is absent, checked by ``is_real``:
    a finite number within ±bound, not a bool."""
    value = row[key] if default is None else row.get(key, default)
    if not is_real(value, bound):
        within = f" within ±{bound:.6g}" if bound < sys.float_info.max else ""
        raise GateSetError(f"implementation {key} must be a finite number{within}, got {value!r}")
    return value


def _shaped(value, kind: type, what: str, keys: tuple[str, ...] = ()):
    """value, unless it is not a ``kind`` (list or dict) holding every key: then ``GateSetError``."""
    if not isinstance(value, kind) or not all(key in value for key in keys):
        raise GateSetError(f"{what} {value!r:.80} is no JSON {kind.__name__} holding {', '.join(keys) or 'entries'}")
    return value


def _impl_from_row(row: dict, menu: tuple[int, ...]) -> GateImpl:
    """One static gate-set JSON row as a Gaussian Sx ``GateImpl``.

    The row must be the sx at angle pi/2 and at a duration on the static
    ``menu`` that a static set plays, its frames must lie within the
    schedule's ``MAX_FRAME_ANGLE`` and its fidelity in [0, 1].  Its
    amplitude and sigma are judged by ``ShapeSpec``, as every pulse's are,
    so each pulse it serves synthesizes without clipping and writes finite
    JSON; a refusal there is a ``GateSetError`` too.
    """
    if row["kind"] != circ.SX:
        raise GateSetError(f"a static gate set plays only sx pulses, not implementation kind {row['kind']!r}")
    qubit = row["qubit"]
    if type(qubit) is not int or qubit < 0:
        raise GateSetError(f"implementation qubit must be a qubit index, got {qubit!r}")
    angle = _finite(row, "angle")
    if _angle_key(angle) != _angle_key(HALF_PI):
        raise GateSetError(f"implementation angle {angle!r} of an sx row must be pi/2")
    pre_frame, post_frame = (_finite(row, key, 0.0, MAX_FRAME_ANGLE) for key in ("pre_frame", "post_frame"))
    fidelity = row.get("fidelity")
    if fidelity is not None and not (is_real(fidelity, 1.0) and fidelity >= 0.0):
        raise GateSetError(f"implementation fidelity {fidelity!r} must be null or lie in [0, 1]")
    duration = _dt_count(row["duration_dt"], "implementation duration_dt", 1)
    if duration not in menu:
        raise GateSetError(f"sx row at {duration} dt is off the static menu {menu}")
    try:
        shape = ShapeSpec(shape=GAUSSIAN, amplitude=row["amplitude"], duration=duration, sigma=row["sigma"])
    except ValueError as exc:
        raise GateSetError(f"implementation {exc}") from exc
    return GateImpl(
        qubit=qubit,
        kind=circ.SX,
        angle=angle,
        shape=shape,
        fidelity=fidelity,
        pre_frame=pre_frame,
        post_frame=post_frame,
    )


@dataclass
class GateSet:
    """Catalog of gate implementations keyed by (qubit, kind, angle, duration).

    Unset bounds span the static menu, or ``DEFAULT_DYNAMIC_WINDOW`` in
    dynamic mode.  Build one with ``GateSet.ideal`` or ``GateSet.calibrated``,
    or read one back with ``GateSet.from_json``.
    """

    mode: str
    min_duration: int | None = None
    max_duration: int | None = None
    static_durations: tuple[int, ...] = DEFAULT_STATIC_DURATIONS
    ecr_duration: int = DEFAULT_ECR_DURATION
    measure_duration: int = 0
    rabi: dict[int, RabiTable] = field(default_factory=dict)
    impls: dict[tuple, GateImpl] = field(default_factory=dict)
    # runtime cache for implementations derived from the catalog (rx from
    # the Rabi table, the fixed ECR); never serialized
    _derived: dict[tuple, GateImpl] = field(default_factory=dict, repr=False)
    # the static Sx menu within the bounds, derived from the fields above
    _static_menu: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in (STATIC, DYNAMIC):
            raise GateSetError(f"unknown scheduling mode {self.mode!r}")
        self.ecr_duration = _dt_count(self.ecr_duration, "ecr_duration", 1)
        self.measure_duration = _dt_count(self.measure_duration, "measure_duration", 0)
        menu = self.static_durations = tuple(
            sorted(set(_dt_count(d, "static duration", 1) for d in self.static_durations))
        )
        if self.mode == STATIC and (not menu or menu[0] < MIN_DYNAMIC_DURATION):
            raise GateSetError(
                f"static durations {list(menu)} need an entry and none below {MIN_DYNAMIC_DURATION} dt"
            )
        lo, hi = (menu[0], menu[-1]) if self.mode == STATIC else DEFAULT_DYNAMIC_WINDOW
        self.min_duration = _dt_count(lo if self.min_duration is None else self.min_duration, "min_duration", 1)
        self.max_duration = _dt_count(hi if self.max_duration is None else self.max_duration, "max_duration", 1)
        if self.min_duration > self.max_duration:
            raise GateSetError("min_duration exceeds max_duration")
        if self.mode == DYNAMIC and self.max_duration < MIN_DYNAMIC_DURATION:
            raise GateSetError(
                f"dynamic max_duration {self.max_duration} dt is below the shortest "
                f"pulse, {MIN_DYNAMIC_DURATION} dt"
            )
        self._static_menu = tuple(d for d in menu if self.min_duration <= d <= self.max_duration)

    # -- duration policy ----------------------------------------------------

    def _check_lowered(self, kind: str):
        """Raise unless lowering emits ``kind`` pulses in this set's mode (Sx static, Rx dynamic)."""
        if kind != (circ.RX if self.mode == DYNAMIC else circ.SX):
            raise GateSetError(f"a {self.mode} gate set plays no {kind} pulse; lower the circuit first")

    def allowed_durations(self, kind: str, angle: float = 0.0) -> tuple[int, ...]:
        """Ascending candidate durations for one operation of a lowered circuit.

        Static Sx takes the calibrated menu within the set's bounds.
        Dynamic Rx bounds scale with |angle| / (pi/2) and snap inward to the
        8-dt grid; both are then floored at ``MIN_DYNAMIC_DURATION``, so a
        small rotation gets a 24 dt pulse instead of one too short for a
        Gaussian.
        """
        if kind == circ.ECR:
            return (self.ecr_duration,)
        if kind == circ.MEASURE:
            return (self.measure_duration,)
        if kind == circ.BARRIER:
            return (0,)
        self._check_lowered(kind)
        if self.mode == STATIC:
            out = self._static_menu
        else:
            scale = abs(angle) / HALF_PI
            if scale <= 0:
                raise GateSetError("zero rotation has no physical duration")
            lo = max(MIN_DYNAMIC_DURATION, 8 * math.ceil(self.min_duration * scale / 8.0))
            hi = max(MIN_DYNAMIC_DURATION, 8 * math.floor(self.max_duration * scale / 8.0))
            out = tuple(range(lo, hi + 1, 8))
        if not out:
            raise GateSetError(
                f"no allowed durations for {kind} in [{self.min_duration}, {self.max_duration}]"
            )
        return out

    def durations_for(self, gate: circ.Gate) -> tuple[int, ...]:
        """The gate's duration menu: ascending allowed durations of its pulse."""
        return self.allowed_durations(gate.kind, circ.pulse_angle(gate))

    # -- implementations ----------------------------------------------------

    def _table(self, qubit: int) -> RabiTable:
        if qubit not in self.rabi:
            raise GateSetError(f"no Rabi calibration for qubit {qubit}")
        return self.rabi[qubit]

    def impl_for(self, qubit: int, kind: str, angle: float, duration: int) -> GateImpl:
        if kind == circ.ECR:
            key = (-1, circ.ECR, 0.0, duration)
            if key not in self._derived:
                self._derived[key] = _ecr_impl(duration)
            return self._derived[key]
        self._check_lowered(kind)
        key = (qubit, kind, _angle_key(angle), duration)
        if self.mode == STATIC:
            if key not in self.impls:
                raise GateSetError(f"no calibrated {kind} at {duration} dt for qubit {qubit}")
            return self.impls[key]
        if key not in self._derived:
            self._derived[key] = _nominal_impl(qubit, circ.RX, angle, duration, self._table(qubit))
        return self._derived[key]

    def validate_coverage(self, n_qubits: int):
        """Ensure every allowed static Sx duration has a calibrated entry for
        each qubit (dynamic mode only needs the Rabi tables)."""
        for q in range(n_qubits):
            if self.mode == STATIC:
                for d in self.allowed_durations(circ.SX):
                    if (q, circ.SX, _angle_key(HALF_PI), d) not in self.impls:
                        raise GateSetError(
                            f"gate set has no calibrated sx at {d} dt for qubit {q}"
                        )
            else:
                self._table(q)

    def impl_for_gate(self, gate: circ.Gate, duration: int) -> GateImpl:
        return self.impl_for(gate.qubits[0], gate.kind, circ.pulse_angle(gate), duration)

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> dict:
        rows = []
        for impl in sorted(self.impls.values(), key=lambda i: (i.qubit, i.kind, i.angle, i.duration)):
            rows.append(
                {
                    "mode": self.mode,
                    "qubit": impl.qubit,
                    "kind": impl.kind,
                    "angle": impl.angle,
                    "duration_dt": impl.duration,
                    "sigma": impl.sigma,
                    "amplitude": impl.amplitude,
                    "fidelity": impl.fidelity,
                    "pre_frame": impl.pre_frame,
                    "post_frame": impl.post_frame,
                }
            )
        return {
            "mode": self.mode,
            "dt_ns": DT_NS,
            "min_duration": self.min_duration,
            "max_duration": self.max_duration,
            "static_durations": list(self.static_durations),
            "ecr_duration": self.ecr_duration,
            "measure_duration": self.measure_duration,
            "rabi": {
                str(q): {"amplitudes": list(t.amplitudes), "omegas_hz": list(t.omegas_hz)}
                for q, t in self.rabi.items()
            },
            "implementations": rows,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def from_json(cls, data) -> "GateSet":
        """The gate set of a ``to_json`` document; any other shape or value raises ``GateSetError``."""
        if isinstance(data, str):
            data = json.loads(data)
        _shaped(data, dict, "a gate set document", ("mode", "min_duration", "max_duration"))
        if data.get("dt_ns", DT_NS) != DT_NS:
            raise GateSetError(f"gate set sampled at {data['dt_ns']!r} ns, not at {DT_NS} ns")
        rabi = {}
        for q, t in _shaped(data.get("rabi", {}), dict, "rabi").items():
            if not (str(q).isascii() and str(q).isdigit()):
                raise GateSetError(f"Rabi table key {q!r} is not a qubit index")
            _shaped(t, dict, f"the Rabi table of qubit {q}", ("amplitudes", "omegas_hz"))
            rabi[int(q)] = RabiTable(*(tuple(_shaped(t[c], list, c)) for c in ("amplitudes", "omegas_hz")))
        menu = _shaped(data.get("static_durations", [*DEFAULT_STATIC_DURATIONS]), list, "static_durations")
        gs = cls(
            mode=data["mode"],
            min_duration=data["min_duration"],
            max_duration=data["max_duration"],
            static_durations=tuple(menu),
            ecr_duration=data.get("ecr_duration", DEFAULT_ECR_DURATION),
            measure_duration=data.get("measure_duration", 0),
            rabi=rabi,
        )
        for row in _shaped(data.get("implementations", []), list, "implementations"):
            _shaped(row, dict, "an implementation row", ("kind", "qubit", "angle", "duration_dt", "sigma", "amplitude"))
            if row["kind"] == circ.ECR:
                continue  # regenerated on demand
            if gs.mode == DYNAMIC:
                raise GateSetError("a dynamic gate set derives its pulses and holds no rows")
            impl = _impl_from_row(row, gs.static_durations)
            key = (impl.qubit, impl.kind, _angle_key(impl.angle), impl.duration)
            if key in gs.impls:
                raise GateSetError(f"two sx rows for qubit {impl.qubit} at {impl.duration} dt")
            gs.impls[key] = impl
        return gs

    # -- construction ---------------------------------------------------------

    def _fill(self, n_qubits: int, table_of, tune) -> "GateSet":
        """Give each qubit q the Rabi table ``table_of(q)``; in static mode also
        store ``tune`` of the nominal Sx at each allowed duration, and nothing
        else."""
        durations = self.allowed_durations(circ.SX) if self.mode == STATIC else ()
        for q in range(n_qubits):
            table = self.rabi[q] = table_of(q)
            for d in durations:
                impl = tune(_nominal_impl(q, circ.SX, HALF_PI, d, table))
                self.impls[(q, circ.SX, _angle_key(HALF_PI), d)] = impl
        return self

    @classmethod
    def ideal(
        cls,
        mode: str,
        n_qubits: int,
        rabi_coefficient_hz: float = 1.05e8,
        min_duration: int | None = None,
        max_duration: int | None = None,
        static_durations: tuple[int, ...] = DEFAULT_STATIC_DURATIONS,
    ) -> "GateSet":
        """Gate set backed by an exactly linear Rabi response; amplitudes come
        straight from the envelope-area formula with no fine-tuning."""
        gs = cls(mode, min_duration, max_duration, static_durations)
        return gs._fill(n_qubits, lambda q: RabiTable.linear(rabi_coefficient_hz), lambda impl: impl)

    @classmethod
    def calibrated(
        cls,
        mode: str,
        nm: NoiseModel,
        n_qubits: int,
        min_duration: int | None = None,
        max_duration: int | None = None,
        static_durations: tuple[int, ...] = DEFAULT_STATIC_DURATIONS,
    ) -> "GateSet":
        """Gate set calibrated against the simulator: each qubit's Rabi table
        from a simulated sweep and, in static mode, one fine-tuned Sx per
        allowed duration.  Dynamic mode derives its pulses per request."""
        gs = cls(mode, min_duration, max_duration, static_durations)
        return gs._fill(n_qubits, lambda q: calibrate_rabi_table(nm, q), lambda impl: fine_tune(impl, nm))


def _ecr_impl(duration: int) -> GateImpl:
    # representational flat-top envelope for export; the simulator models ECR
    # at the channel level, not from these samples
    shape = ShapeSpec(
        shape=GAUSSIAN_SQUARE,
        amplitude=0.12,
        duration=duration,
        sigma=64.0,
        width=max(duration - 256, 0),
    )
    return GateImpl(qubit=-1, kind=circ.ECR, angle=0.0, shape=shape)


# ---------------------------------------------------------------------------
# calibration against the simulator


def calibrate_rabi_table(
    nm: NoiseModel,
    qubit: int,
    amplitudes=DEFAULT_RABI_AMPLITUDES,
) -> RabiTable:
    """Run the simulated Rabi sweep and fit each amplitude's oscillation."""
    datasets = simulate_rabi(amplitudes, nm, qubit=qubit)
    omegas = []
    for data in datasets:
        fit = fit_rabi(data.times_s, data.p0)
        if fit.degenerate:
            raise CalibrationError(f"degenerate Rabi signal at amplitude {data.amplitude}")
        omegas.append(fit.omega_hz)
    return RabiTable(amplitudes=tuple(float(a) for a in amplitudes), omegas_hz=tuple(omegas))
