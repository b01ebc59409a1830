"""Per-qubit pulse timelines with virtual-Z frame shifts.

Times are integer dt counts.  A frame shift is the zero-duration virtual Rz:
hardware realizes it by adding ``phase_frame`` to the phase of every later
pulse on that qubit, the simulator applies it as an instantaneous Z rotation
at its recorded position; the two pictures agree for Z-basis measurement.

``Schedule.frames`` holds the circuit's own virtual Rz gates; a calibrated
pulse carries the frames its implementation plays around it as its
``pre_frame`` and ``post_frame``.  The JSON document lists both kinds in each
qubit's ``frames`` and derives every ``phase_frame`` from them.

Waveforms are parametric: each pulse carries its envelope's ``ShapeSpec``
as its ``shape``, and ``Schedule.waveforms`` derives from the pulses each
waveform id's one shape.  The JSON document writes each as the spec's
fields, so ``synthesize(ShapeSpec(**entry))`` gives its samples, and the
simulator synthesizes a pulse only when it first builds its channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ScheduleOverlapError, is_real
from .pulses import DT_NS, ShapeSpec

#: the largest frame angle a schedule holds: the period ``normalize_angle``
#: wraps by.  Every frame lowering or calibration makes lies within it, and
#: the simulator's running frame phase stays finite.
MAX_FRAME_ANGLE = 4.0 * math.pi


@dataclass(frozen=True)
class PulsePlacement:
    qubits: tuple[int, ...]
    start: int
    duration: int
    kind: str
    angle: float
    waveform_id: str
    shape: ShapeSpec  # the envelope it plays; one shape per waveform id in a schedule
    seq: int  # program position, for stable ordering of simultaneous events
    pre_frame: float = 0.0  # calibration Rz on a 1q pulse's qubit just before its start
    post_frame: float = 0.0  # ... and just after its end

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class FrameShift:
    qubit: int
    time: int
    angle: float  # Rz angle; applied pulse-phase shift is -angle
    seq: int


@dataclass
class Schedule:
    width: int
    makespan: int
    placements: list[PulsePlacement] = field(default_factory=list)
    frames: list[FrameShift] = field(default_factory=list)
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        self.validate()

    def validate(self):
        """One walk over ``events()``: the width, the makespan and every
        qubit, time, start and duration is a plain non-negative int, every
        pulse angle a finite number and every frame angle (pre/post frames
        included) a finite number within ``MAX_FRAME_ANGLE``, none of them a
        bool; each event lies on one of the schedule's qubits within [0,
        makespan], and no two pulses overlap on a qubit.  A pulse's string
        waveform id names one ``ShapeSpec`` in the whole schedule.  An
        ``ecr`` acts on two distinct qubits; any other kind acts on one,
        fills its slot with its shape, and alone may carry pre/post frames.
        ``measured_qubits`` is a tuple of ascending schedule qubits.  Fields
        that cannot be ordered or compared raise ``ScheduleOverlapError``."""
        width, makespan, measured = self.width, self.makespan, self.measured_qubits
        # integer fields are plain ints: not bools, nor numpy integers, which to_json cannot write
        if not (type(width) is int and type(makespan) is int and width >= 0 and makespan >= 0):
            raise ScheduleOverlapError(f"width {width!r} and makespan {makespan!r} must be non-negative ints")
        if not (type(measured) is tuple and all(type(q) is int and 0 <= q < width for q in measured)
                and all(a < b for a, b in zip(measured, measured[1:]))):
            raise ScheduleOverlapError(f"measured qubits {measured!r} must ascend on {width} qubits")
        busy = [(0, None)] * width  # each qubit's last pulse end and waveform id
        shapes = {}  # waveform id -> the shape of its first pulse
        try:
            for ev in self.events():
                if type(ev) is FrameShift:
                    q, t = ev.qubit, ev.time
                    if not (type(q) is int and type(t) is int and 0 <= q < width and 0 <= t <= makespan
                            and is_real(ev.angle, MAX_FRAME_ANGLE)):
                        raise ScheduleOverlapError(f"frame {ev.angle!r} on qubit {q!r} at {t!r} is out of range")
                    continue
                qubits, start, duration, pre, post = ev.qubits, ev.start, ev.duration, ev.pre_frame, ev.post_frame
                wid, shape = ev.waveform_id, ev.shape
                if not (type(start) is int and type(duration) is int and duration >= 0 and is_real(ev.angle)):
                    raise ScheduleOverlapError(f"{wid} at {start!r} lasts {duration!r} dt at angle {ev.angle!r}")
                if not all(type(q) is int and 0 <= q < width for q in qubits) or start + duration > makespan:
                    raise ScheduleOverlapError(f"{wid} on qubits {qubits!r} at {ev.end} is out of range")
                named = shapes.setdefault(wid, shape) if type(wid) is str else None
                if type(shape) is not ShapeSpec or named is not shape and named != shape:
                    raise ScheduleOverlapError(f"waveform id {wid!r} cannot name shape {shape!r}: it names {named!r}")
                # the simulator plays a 1q pulse's shape and moves the clock by its duration
                playable = (len(qubits) == 2 and qubits[0] != qubits[1] if ev.kind == "ecr"
                            else len(qubits) == 1 and shape.duration == duration)
                if not playable:
                    raise ScheduleOverlapError(f"{wid} on qubits {qubits} cannot be played in {duration} dt")
                frames_ok = is_real(pre, MAX_FRAME_ANGLE) and is_real(post, MAX_FRAME_ANGLE)
                if not frames_ok or (len(qubits) > 1 and (pre or post)):
                    raise ScheduleOverlapError(f"{wid} on qubits {qubits} cannot play frames {(pre, post)}")
                for q in qubits:
                    if start < busy[q][0]:
                        raise ScheduleOverlapError(f"qubit {q}: {wid} at {start} overlaps {busy[q][1]}")
                    busy[q] = (start + duration, wid)
        except (TypeError, OverflowError) as exc:
            raise ScheduleOverlapError(f"events cannot be checked in time order: {exc}") from exc

    @property
    def waveforms(self) -> dict[str, ShapeSpec]:
        """Each waveform id -> the one shape its pulses play, in order of first use."""
        return {p.waveform_id: p.shape for p in self.placements}

    def events(self):
        """All placements and frame shifts merged in global time order.

        Frame shifts sort before pulses that start at the same time; ties
        beyond that follow program order.
        """
        tagged = [((f.time, 0, f.seq), f) for f in self.frames]
        tagged += [((p.start, 1, p.seq), p) for p in self.placements]
        return [ev for _, ev in sorted(tagged, key=lambda kv: kv[0])]

    def to_json(self) -> dict:
        """The schedule document, written in one walk over ``events()``.

        A pulse's pre/post frames join its qubit's ``frames`` at its start
        and end, and its ``phase_frame`` on each operand is minus the sum of
        that qubit's frame angles so far, in event order.
        """
        qubits = [[] for _ in range(self.width)]
        frames = [[] for _ in range(self.width)]
        phase = [0.0] * self.width

        def shift(q, time, angle):
            frames[q].append({"time_dt": time, "angle": angle})
            phase[q] -= angle

        for ev in self.events():
            if isinstance(ev, FrameShift):
                shift(ev.qubit, ev.time, ev.angle)
                continue
            if ev.pre_frame:
                shift(ev.qubits[0], ev.start, ev.pre_frame)
            for q in ev.qubits:
                qubits[q].append({"start_dt": ev.start, "duration_dt": ev.duration,
                                  "waveform_id": ev.waveform_id, "phase_frame": phase[q]})
            if ev.post_frame:
                shift(ev.qubits[0], ev.end, ev.post_frame)
        return {
            "dt_ns": DT_NS,
            "width": self.width,
            "makespan_dt": self.makespan,
            "measured_qubits": list(self.measured_qubits),
            "qubits": qubits,
            "frames": frames,
            # a frozen dataclass's __dict__ is its fields in declaration order
            "waveforms": {wid: dict(vars(spec)) for wid, spec in self.waveforms.items()},
        }

    def write_json(self, path):
        """Write ``to_json()`` as compact JSON, waveform shapes included.

        The text is built in one ``json.dumps`` call without ``indent``:
        only that call reaches the C encoder, while ``json.dump``, indented
        or not, streams through the slower pure-Python one.  Floats print as
        ``repr`` either way, so every shape parameter round-trips exactly.
        """
        text = json.dumps(self.to_json())
        with open(path, "w") as fh:
            fh.write(text)
