"""Per-qubit pulse timelines with virtual-Z frame shifts.

Times are integer dt counts.  A frame shift is the zero-duration virtual Rz:
hardware realizes it by adding ``phase_frame`` to the phase of every later
pulse on that qubit, the simulator applies it as an instantaneous Z rotation
at its recorded position; the two pictures agree for Z-basis measurement.

``Schedule.frames`` holds the circuit's own virtual Rz gates; a calibrated
pulse carries the frames its implementation plays around it as its
``pre_frame`` and ``post_frame``.  The JSON document lists both kinds in each
qubit's ``frames`` and derives every ``phase_frame`` from them.

Waveforms are parametric: ``Schedule.waveforms`` maps each waveform id to
the ``ShapeSpec`` of its envelope, never to samples.  The JSON document
writes each one as the spec's fields, so ``synthesize(ShapeSpec(**entry))``
gives its samples, and the simulator synthesizes a pulse only when it first
builds that pulse's channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ScheduleOverlapError, is_integer
from .pulses import DT_NS, ShapeSpec


_start_seq = attrgetter("start", "seq")


@dataclass(frozen=True)
class PulsePlacement:
    qubits: tuple[int, ...]
    start: int
    duration: int
    kind: str
    angle: float
    waveform_id: str
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
    waveforms: dict[str, ShapeSpec] = field(default_factory=dict)
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Every event lies on one of the schedule's qubits within
        [0, makespan], every frame angle is finite, and no two pulses
        overlap on a qubit.  Every pulse is one the simulator can play: its
        start and duration are integers (and start and seq order it among
        the others) and the duration is not negative; an
        ``ecr`` acts on two distinct qubits; any other kind acts on one qubit,
        names a waveform in ``waveforms``, and alone may carry pre/post
        frames."""
        for f in self.frames:
            if not (0 <= f.qubit < self.width and 0 <= f.time <= self.makespan and math.isfinite(f.angle)):
                raise ScheduleOverlapError(f"frame {f.angle} on qubit {f.qubit} at {f.time} is out of range")
        width, waveforms = self.width, self.waveforms
        busy = [(0, None)] * width  # each qubit's last pulse end and waveform id
        try:
            placements = sorted(self.placements, key=_start_seq)
        except TypeError as exc:
            raise ScheduleOverlapError(f"placements cannot be put in time order: {exc}") from exc
        for p in placements:
            qubits, start, duration, pre, post = p.qubits, p.start, p.duration, p.pre_frame, p.post_frame
            if not (is_integer(start) and is_integer(duration) and duration >= 0):
                raise ScheduleOverlapError(f"{p.waveform_id} at {start!r} lasts {duration!r} dt")
            if not all(0 <= q < width for q in qubits) or start + duration > self.makespan:
                raise ScheduleOverlapError(f"{p.waveform_id} on qubits {qubits} at {p.end} is out of range")
            if p.kind == "ecr":
                playable = len(qubits) == 2 and qubits[0] != qubits[1]
            else:
                playable = len(qubits) == 1 and p.waveform_id in waveforms
            if not playable:
                raise ScheduleOverlapError(f"{p.kind} {p.waveform_id} on qubits {qubits} cannot be played")
            if not (math.isfinite(pre) and math.isfinite(post)) or (len(qubits) > 1 and (pre or post)):
                raise ScheduleOverlapError(f"{p.waveform_id} on qubits {qubits} cannot play frames {(pre, post)}")
            for q in qubits:
                if start < busy[q][0]:
                    raise ScheduleOverlapError(f"qubit {q}: {p.waveform_id} at {start} overlaps {busy[q][1]}")
                busy[q] = (start + duration, p.waveform_id)

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
