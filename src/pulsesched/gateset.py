"""Calibrated gate catalog: duration policies, Rabi calibration, fine-tuning.

Static mode keeps a discrete list of fine-tuned Sx durations per qubit.
Dynamic mode derives an arbitrary-x-rotation pulse for any multiple-of-8
duration straight from the Rabi amplitude/frequency interpolation, with
per-operation duration bounds scaled by rotation angle (a pi rotation spans
twice the dt range of a pi/2 rotation).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import curve_fit

from . import circuit as circ
from .errors import (
    CalibrationError,
    ExtrapolationWarning,
    GateSetError,
    InfeasibleDurationError,
    RabiFitError,
)
from .pulses import (
    DEFAULT_DT_NS,
    GAUSSIAN,
    GAUSSIAN_SQUARE,
    ShapeSpec,
    Waveform,
    envelope_sum,
    synthesize,
)
from .sim import NoiseModel, ideal_rx, propagate_waveform, simulate_rabi

HALF_PI = math.pi / 2.0

STATIC = "static"
DYNAMIC = "dynamic"

#: calibrated static Sx durations on the reference backend, in dt
DEFAULT_STATIC_DURATIONS = (32, 48, 64, 120, 256, 512)

#: shortest dynamic single-qubit pulse, in dt: the smallest multiple of 8
#: above sigma_of_duration's 17.36 dt bound
MIN_DYNAMIC_DURATION = 24

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


def fit_rabi(times_s, signal, max_residual: float = 0.15) -> RabiFit:
    """Least-squares fit of the cos^2 Rabi oscillation; omega in Hz.

    Needs at least 8 samples covering one oscillation.  A flat signal yields
    a degenerate fit with omega = 0 rather than an error.
    """
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
            bounds=([0.0, 0.0, -np.pi, -1.0], [2.0, np.inf, np.pi, 2.0]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise RabiFitError(f"Rabi fit did not converge: {exc}") from exc
    resid = float(np.sqrt(np.mean((y - _rabi_model(t, *popt)) ** 2)))
    if resid > max_residual:
        raise RabiFitError(f"Rabi fit residual {resid:.4f} exceeds {max_residual}")
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

    @classmethod
    def linear(cls, rabi_coefficient_hz: float) -> "RabiTable":
        """Exact two-point table for an ideal linear amplitude-frequency relation."""
        return cls(amplitudes=(0.0, 1.0), omegas_hz=(0.0, float(rabi_coefficient_hz)))


def interpolate_amplitude(pairs, target_omega_hz: float) -> float:
    """Invert the amplitude <-> Rabi-frequency relation by piecewise-linear
    interpolation; warns (and extrapolates linearly) outside the measured range."""
    if isinstance(pairs, RabiTable):
        pts = sorted(zip(pairs.omegas_hz, pairs.amplitudes))
    else:
        pts = sorted((float(o), float(a)) for a, o in pairs)
    if len(pts) < 2:
        raise GateSetError("need at least two calibration pairs to interpolate")
    omegas = np.array([p[0] for p in pts])
    amps = np.array([p[1] for p in pts])
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
    """One calibrated realization of an operation at a fixed duration.

    pre_frame/post_frame are virtual-Z corrections (free frame shifts) played
    around the pulse; calibration uses them to null the drive-induced phase
    error so only the genuinely duration-dependent leakage remains.
    """

    qubit: int
    kind: str
    angle: float
    duration: int
    shape: ShapeSpec
    fidelity: float | None = None
    pre_frame: float = 0.0
    post_frame: float = 0.0

    @property
    def amplitude(self) -> float:
        return self.shape.amplitude

    @property
    def sigma(self) -> float:
        return self.shape.sigma

    def waveform(self, dt_ns: float = DEFAULT_DT_NS) -> Waveform:
        return synthesize(self.shape, dt_ns)

    def waveform_id(self) -> str:
        if self.kind == circ.ECR:
            return f"ecr_d{self.duration}"
        if self.kind == circ.RX:
            return f"rx{_angle_key(self.angle):+.9f}_q{self.qubit}_d{self.duration}"
        return f"{self.kind}_q{self.qubit}_d{self.duration}"


def _rotation_scale(angle: float) -> float:
    return abs(angle) / HALF_PI


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


def dynamic_amplitude(theta: float, duration: int, table: RabiTable, dt_ns: float = DEFAULT_DT_NS) -> float:
    """Amplitude whose rotation area over the Gaussian envelope equals theta.

    The target Rabi frequency comes from summing envelope samples times the
    amplitude-to-rotation coefficient times dt, then inverting through the
    interpolated Rabi data.  Raises when the required amplitude exceeds 1.
    """
    if theta == 0.0:
        return 0.0
    shape = dynamic_pulse_shape(theta, duration, amplitude=1.0)
    env = envelope_sum(shape)
    target_omega = abs(theta) / (4.0 * math.pi * (dt_ns * 1e-9) * env)
    amplitude = interpolate_amplitude(table, target_omega)
    if amplitude > 1.0:
        raise InfeasibleDurationError(
            f"rotation {theta:.4f} over {duration} dt needs amplitude {amplitude:.4f} > 1"
        )
    return amplitude


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
    steps: int = 41,
    fidelity_floor: float = 0.9,
    dt_ns: float = DEFAULT_DT_NS,
) -> GateImpl:
    """Sweep the amplitude around its interpolated value and keep the best.

    Each candidate is scored by the average gate fidelity of the noiseless
    three-level propagator's qubit block against the ideal rotation, with
    virtual-Z frame corrections taken for free (they cost nothing on
    hardware).  The winning grid point is then polished to the exact target
    rotation angle by a scalar root solve, so the only residual error is
    leakage.
    """

    def propagate(amp: float):
        w = synthesize(replace(impl.shape, amplitude=float(amp)), dt_ns)
        return propagate_waveform(w, nm, impl.qubit)

    def rotation_error(amp: float) -> float:
        u = propagate(amp)
        return _zxz_angles(u[:2, :2])[1] - abs(impl.angle)

    a0 = impl.shape.amplitude
    grid = np.linspace((1.0 - span) * a0, (1.0 + span) * a0, steps)
    scores = []
    for amp in grid:
        fid, _, _ = _frame_corrected_fidelity(propagate(amp), abs(impl.angle))
        scores.append(fid)
    best = int(np.argmax(scores))
    best_amp = float(grid[best])
    # polish within the neighboring grid cells when they bracket the root
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, steps - 1)])
    try:
        if rotation_error(lo) * rotation_error(hi) < 0:
            from scipy.optimize import brentq

            best_amp = float(brentq(rotation_error, lo, hi, xtol=1e-14))
    except ValueError:
        pass
    u = propagate(best_amp)
    fid, pre, post = _frame_corrected_fidelity(u, abs(impl.angle))
    if fid < fidelity_floor:
        raise CalibrationError(
            f"fine-tune of {impl.kind} q{impl.qubit} d={impl.duration} peaked at "
            f"fidelity {fid:.6f}, below floor {fidelity_floor}"
        )
    return replace(
        impl,
        shape=replace(impl.shape, amplitude=best_amp),
        fidelity=fid,
        pre_frame=pre,
        post_frame=post,
    )


# ---------------------------------------------------------------------------
# the gate set


def _angle_key(angle: float) -> float:
    return round(angle, 9)


@dataclass
class GateSet:
    """Catalog of gate implementations keyed by (qubit, kind, angle, duration)."""

    mode: str
    min_duration: int
    max_duration: int
    static_durations: tuple[int, ...] = DEFAULT_STATIC_DURATIONS
    ecr_duration: int = DEFAULT_ECR_DURATION
    measure_duration: int = 0
    dt_ns: float = DEFAULT_DT_NS
    rabi: dict[int, RabiTable] = field(default_factory=dict)
    impls: dict[tuple, GateImpl] = field(default_factory=dict)
    # runtime cache for implementations derived from the catalog (sxdg from
    # sx, dynamic rx from the Rabi table, the fixed ECR); never serialized
    _derived: dict[tuple, GateImpl] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.mode not in (STATIC, DYNAMIC):
            raise GateSetError(f"unknown scheduling mode {self.mode!r}")
        if self.min_duration > self.max_duration:
            raise GateSetError("min_duration exceeds max_duration")
        self.static_durations = tuple(sorted(set(int(d) for d in self.static_durations)))

    # -- duration policy ----------------------------------------------------

    def allowed_durations(self, kind: str, angle: float = 0.0) -> tuple[int, ...]:
        """Ascending candidate durations for one operation under this policy.

        Dynamic bounds scale with |angle| / (pi/2) and snap inward to the 8-dt
        grid; both are then floored at ``MIN_DYNAMIC_DURATION``, so a small
        rotation gets a 24 dt pulse instead of one too short for a Gaussian.
        """
        if kind == circ.ECR:
            return (self.ecr_duration,)
        if kind == circ.MEASURE:
            return (self.measure_duration,)
        if kind == circ.BARRIER:
            return (0,)
        if kind not in (circ.SX, circ.SXDG, circ.RX):
            raise GateSetError(f"no duration policy for gate kind {kind!r}")
        if self.mode == STATIC:
            if kind == circ.RX:
                raise GateSetError("static mode has no arbitrary-x pulses; decompose first")
            out = tuple(d for d in self.static_durations if self.min_duration <= d <= self.max_duration)
        else:
            theta = HALF_PI if kind in (circ.SX, circ.SXDG) else angle
            scale = _rotation_scale(theta)
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
        if self.mode == DYNAMIC and kind in (circ.SX, circ.SXDG):
            kind, angle = circ.RX, HALF_PI if kind == circ.SX else -HALF_PI
        key = (qubit, kind, _angle_key(angle), duration)
        if key in self.impls:
            return self.impls[key]
        if key in self._derived:
            return self._derived[key]
        if self.mode == STATIC:
            if kind == circ.SXDG:
                # the same pulse driven at phase pi; conjugating the drive
                # frame flips the rotation sign but leaves the calibrated
                # virtual-Z corrections unchanged
                base = self.impl_for(qubit, circ.SX, HALF_PI, duration)
                impl = GateImpl(
                    qubit=qubit,
                    kind=circ.SXDG,
                    angle=-HALF_PI,
                    duration=duration,
                    shape=replace(base.shape, phase=math.pi),
                    fidelity=base.fidelity,
                    pre_frame=base.pre_frame,
                    post_frame=base.post_frame,
                )
                self._derived[key] = impl
                return impl
            raise GateSetError(f"no calibrated {kind} at {duration} dt for qubit {qubit}")
        if kind != circ.RX:
            raise GateSetError(f"dynamic mode cannot synthesize {kind!r}")
        amplitude = dynamic_amplitude(angle, duration, self._table(qubit), self.dt_ns)
        impl = GateImpl(
            qubit=qubit,
            kind=circ.RX,
            angle=angle,
            duration=duration,
            shape=dynamic_pulse_shape(angle, duration, amplitude),
        )
        self._derived[key] = impl
        return impl

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
            "dt_ns": self.dt_ns,
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
        if isinstance(data, str):
            data = json.loads(data)
        gs = cls(
            mode=data["mode"],
            min_duration=data["min_duration"],
            max_duration=data["max_duration"],
            static_durations=tuple(data.get("static_durations", DEFAULT_STATIC_DURATIONS)),
            ecr_duration=data.get("ecr_duration", DEFAULT_ECR_DURATION),
            measure_duration=data.get("measure_duration", 0),
            dt_ns=data.get("dt_ns", DEFAULT_DT_NS),
            rabi={
                int(q): RabiTable(tuple(t["amplitudes"]), tuple(t["omegas_hz"]))
                for q, t in data.get("rabi", {}).items()
            },
        )
        for row in data.get("implementations", []):
            if row["kind"] == circ.ECR:
                continue  # regenerated on demand
            shape = ShapeSpec(
                shape=GAUSSIAN,
                amplitude=row["amplitude"],
                duration=row["duration_dt"],
                sigma=row["sigma"],
                phase=0.0 if row["angle"] >= 0 else math.pi,
            )
            impl = GateImpl(
                qubit=row["qubit"],
                kind=row["kind"],
                angle=row["angle"],
                duration=row["duration_dt"],
                shape=shape,
                fidelity=row.get("fidelity"),
                pre_frame=row.get("pre_frame", 0.0),
                post_frame=row.get("post_frame", 0.0),
            )
            gs.impls[(impl.qubit, impl.kind, _angle_key(impl.angle), impl.duration)] = impl
        return gs

    @classmethod
    def load(cls, path) -> "GateSet":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- analytic construction (no simulator round trip) ----------------------

    @classmethod
    def ideal(
        cls,
        mode: str,
        n_qubits: int,
        rabi_coefficient_hz: float = 1.05e8,
        min_duration: int | None = None,
        max_duration: int | None = None,
        static_durations: tuple[int, ...] = DEFAULT_STATIC_DURATIONS,
        dt_ns: float = DEFAULT_DT_NS,
    ) -> "GateSet":
        """Gate set backed by an exactly linear Rabi response; amplitudes come
        straight from the envelope-area formula with no fine-tuning."""
        if min_duration is None:
            min_duration = min(static_durations) if mode == STATIC else 32
        if max_duration is None:
            max_duration = max(static_durations) if mode == STATIC else 128
        gs = cls(
            mode=mode,
            min_duration=min_duration,
            max_duration=max_duration,
            static_durations=static_durations,
            dt_ns=dt_ns,
            rabi={q: RabiTable.linear(rabi_coefficient_hz) for q in range(n_qubits)},
        )
        if mode == STATIC:
            for q in range(n_qubits):
                for d in gs.allowed_durations(circ.SX):
                    amplitude = dynamic_amplitude(HALF_PI, d, gs._table(q), dt_ns)
                    shape = dynamic_pulse_shape(HALF_PI, d, amplitude)
                    gs.impls[(q, circ.SX, _angle_key(HALF_PI), d)] = GateImpl(
                        qubit=q, kind=circ.SX, angle=HALF_PI, duration=d, shape=shape
                    )
        return gs


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
    return GateImpl(qubit=-1, kind=circ.ECR, angle=0.0, duration=duration, shape=shape)


# ---------------------------------------------------------------------------
# calibration against the simulator


def calibrate_rabi_table(
    nm: NoiseModel,
    qubit: int,
    amplitudes=DEFAULT_RABI_AMPLITUDES,
    dt_ns: float = DEFAULT_DT_NS,
) -> RabiTable:
    """Run the simulated Rabi sweep and fit each amplitude's oscillation."""
    datasets = simulate_rabi(amplitudes, nm, qubit=qubit, dt_ns=dt_ns)
    omegas = []
    for data in datasets:
        fit = fit_rabi(data.times_s, data.p0)
        if fit.degenerate:
            raise CalibrationError(f"degenerate Rabi signal at amplitude {data.amplitude}")
        omegas.append(fit.omega_hz)
    return RabiTable(amplitudes=tuple(float(a) for a in amplitudes), omegas_hz=tuple(omegas))


def build_static_gateset(
    durations,
    nm: NoiseModel,
    n_qubits: int,
    min_duration: int | None = None,
    max_duration: int | None = None,
    dt_ns: float = DEFAULT_DT_NS,
    fine_tune_steps: int = 41,
) -> GateSet:
    """Calibrate one fine-tuned Sx per duration per qubit plus the fixed ECR."""
    durations = tuple(sorted(set(int(d) for d in durations)))
    gs = GateSet(
        mode=STATIC,
        min_duration=min_duration if min_duration is not None else min(durations),
        max_duration=max_duration if max_duration is not None else max(durations),
        static_durations=durations,
        dt_ns=dt_ns,
    )
    for q in range(n_qubits):
        table = calibrate_rabi_table(nm, q, dt_ns=dt_ns)
        gs.rabi[q] = table
        for d in durations:
            shape = dynamic_pulse_shape(HALF_PI, d, dynamic_amplitude(HALF_PI, d, table, dt_ns))
            impl = GateImpl(qubit=q, kind=circ.SX, angle=HALF_PI, duration=d, shape=shape)
            impl = fine_tune(impl, nm, steps=fine_tune_steps, dt_ns=dt_ns)
            gs.impls[(q, circ.SX, _angle_key(HALF_PI), d)] = impl
    return gs


def build_dynamic_gateset(
    nm: NoiseModel,
    n_qubits: int,
    min_duration: int = 32,
    max_duration: int = 128,
    dt_ns: float = DEFAULT_DT_NS,
) -> GateSet:
    """Calibrate Rabi interpolation tables only; pulses are derived per request."""
    gs = GateSet(
        mode=DYNAMIC,
        min_duration=min_duration,
        max_duration=max_duration,
        dt_ns=dt_ns,
    )
    for q in range(n_qubits):
        gs.rabi[q] = calibrate_rabi_table(nm, q, dt_ns=dt_ns)
    return gs
