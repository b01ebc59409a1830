"""Per-qubit pulse timelines with virtual-Z frame shifts.

Times are integer dt counts.  A frame shift is the zero-duration virtual Rz:
hardware realizes it by adding ``phase_frame`` to the phase of every later
pulse on that qubit, the simulator applies it as an instantaneous Z rotation
at its recorded position; the two pictures agree for Z-basis measurement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ScheduleOverlapError
from .pulses import Waveform


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
    waveforms: dict[str, Waveform] = field(default_factory=dict)
    dt_ns: float = 0.5
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        self.validate()

    def validate(self):
        for q in range(self.width):
            prev_end, prev_id = 0, None
            for p in self.timeline(q):
                if p.start < prev_end:
                    raise ScheduleOverlapError(
                        f"qubit {q}: {p.waveform_id} at {p.start} overlaps {prev_id}"
                    )
                prev_end, prev_id = p.end, p.waveform_id
                if p.end > self.makespan:
                    raise ScheduleOverlapError(
                        f"{p.waveform_id} ends at {p.end} past makespan {self.makespan}"
                    )

    @property
    def makespan_ns(self) -> float:
        return self.makespan * self.dt_ns

    def events(self):
        """All placements and frame shifts merged in global time order.

        Frame shifts sort before pulses that start at the same time; ties
        beyond that follow program order.
        """
        tagged = [((f.time, 0, f.seq), f) for f in self.frames]
        tagged += [((p.start, 1, p.seq), p) for p in self.placements]
        return [ev for _, ev in sorted(tagged, key=lambda kv: kv[0])]

    def timeline(self, qubit: int) -> list[PulsePlacement]:
        return sorted(
            (p for p in self.placements if qubit in p.qubits),
            key=lambda p: (p.start, p.seq),
        )

    def to_json(self, include_waveforms: bool = True) -> dict:
        qubits = []
        for q in range(self.width):
            qubits.append(
                [
                    {
                        "start_dt": p.start,
                        "duration_dt": p.duration,
                        "waveform_id": p.waveform_id,
                        "phase_frame": p.phase_frames[p.qubits.index(q)],
                    }
                    for p in self.timeline(q)
                ]
            )
        frames = [[] for _ in range(self.width)]
        for f in sorted(self.frames, key=lambda f: (f.time, f.seq)):
            frames[f.qubit].append({"time_dt": f.time, "angle": f.angle})
        doc = {
            "dt_ns": self.dt_ns,
            "width": self.width,
            "makespan_dt": self.makespan,
            "measured_qubits": list(self.measured_qubits),
            "qubits": qubits,
            "frames": frames,
        }
        if include_waveforms:
            doc["waveforms"] = {
                wid: {"i": w.i.tolist(), "q": w.q.tolist()}
                for wid, w in self.waveforms.items()
            }
        return doc

    def write_json(self, path, include_waveforms: bool = True):
        with open(path, "w") as fh:
            json.dump(self.to_json(include_waveforms), fh, indent=1)
