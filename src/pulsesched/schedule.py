"""Per-qubit pulse timelines with virtual-Z frame shifts.

Times are integer dt counts.  A frame shift is the zero-duration virtual Rz:
hardware realizes it by adding ``phase_frame`` to the phase of every later
pulse on that qubit, the simulator applies it as an instantaneous Z rotation
at its recorded position; the two pictures agree for Z-basis measurement.

Waveforms are parametric: ``Schedule.waveforms`` maps each waveform id to
the ``ShapeSpec`` of its envelope, never to samples.  The JSON document
writes each one as the spec's fields, so ``synthesize(ShapeSpec(**entry))``
gives its samples, and the simulator synthesizes a pulse only when it first
builds that pulse's channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ScheduleOverlapError
from .pulses import DT_NS, ShapeSpec


@dataclass(frozen=True)
class PulsePlacement:
    qubits: tuple[int, ...]
    start: int
    duration: int
    kind: str
    angle: float
    waveform_id: str
    phase_frames: tuple[float, ...]  # cumulative frame per operand qubit at start
    seq: int  # program position, for stable ordering of simultaneous events

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
        for q, line in enumerate(self.timelines()):
            prev_end, prev_id = 0, None
            for p in line:
                if p.start < prev_end:
                    raise ScheduleOverlapError(
                        f"qubit {q}: {p.waveform_id} at {p.start} overlaps {prev_id}"
                    )
                prev_end, prev_id = p.end, p.waveform_id
                if p.end > self.makespan:
                    raise ScheduleOverlapError(
                        f"{p.waveform_id} ends at {p.end} past makespan {self.makespan}"
                    )

    def events(self):
        """All placements and frame shifts merged in global time order.

        Frame shifts sort before pulses that start at the same time; ties
        beyond that follow program order.
        """
        tagged = [((f.time, 0, f.seq), f) for f in self.frames]
        tagged += [((p.start, 1, p.seq), p) for p in self.placements]
        return [ev for _, ev in sorted(tagged, key=lambda kv: kv[0])]

    def timelines(self) -> list[list[PulsePlacement]]:
        """Every qubit's placements in (start, seq) order, bucketed in one pass."""
        lines: list[list[PulsePlacement]] = [[] for _ in range(self.width)]
        for p in self.placements:
            for q in p.qubits:
                lines[q].append(p)
        for line in lines:
            line.sort(key=lambda p: (p.start, p.seq))
        return lines

    def to_json(self) -> dict:
        qubits = [
            [
                {
                    "start_dt": p.start,
                    "duration_dt": p.duration,
                    "waveform_id": p.waveform_id,
                    "phase_frame": p.phase_frames[p.qubits.index(q)],
                }
                for p in line
            ]
            for q, line in enumerate(self.timelines())
        ]
        frames = [[] for _ in range(self.width)]
        for f in sorted(self.frames, key=lambda f: (f.time, f.seq)):
            frames[f.qubit].append({"time_dt": f.time, "angle": f.angle})
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
