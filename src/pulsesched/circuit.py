"""Circuit IR, text/JSON parsing, and single-qubit basis decomposition.

A circuit is an ordered gate list over indexed qubits.  Two decomposition
modes rewrite arbitrary U3 gates into the physical basis:

* static  -> virtual Rz plus calibrated Sx / Sx^-1 pulses,
* dynamic -> virtual Rz plus one arbitrary Rx pulse.

Both sequences are emitted in circuit order (first gate applied first) and
were fixed by checking the composed 2x2 matrix against the U3 matrix; the
matrix-product reading of the same sequences does not reproduce U3.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CircuitSyntaxError

U3 = "u3"
RZ = "rz"
SX = "sx"
SXDG = "sxdg"
RX = "rx"
ECR = "ecr"
MEASURE = "measure"
BARRIER = "barrier"

KINDS = (U3, RZ, SX, SXDG, RX, ECR, MEASURE, BARRIER)

#: number of angle parameters each kind carries
_N_ANGLES = {U3: 3, RZ: 1, RX: 1, SX: 0, SXDG: 0, ECR: 0, MEASURE: 0, BARRIER: 0}

#: gate kinds that occupy a dependency-graph node (everything but virtual Rz)
PHYSICAL_KINDS = (SX, SXDG, RX, ECR, MEASURE, BARRIER)

#: gate kinds that emit an actual drive pulse
PULSE_KINDS = (SX, SXDG, RX, ECR)

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0

_QUBIT_RE = re.compile(r"^q(\d+)$")


def normalize_angle(a: float) -> float:
    """Wrap an angle into (-2*pi, 2*pi]; exact for the underlying SU(2) element."""
    a = math.fmod(a, 2.0 * TWO_PI)
    if a > TWO_PI:
        a -= 2.0 * TWO_PI
    elif a <= -TWO_PI:
        a += 2.0 * TWO_PI
    return a


def snap_angle(a: float, tol: float = 1e-9) -> float:
    """Snap to the nearest multiple of pi/2 when within tol (transpiled circuits
    carry only 0, pi/2, pi rotations up to float noise)."""
    k = round(a / HALF_PI)
    snapped = k * HALF_PI
    if abs(a - snapped) < tol:
        return snapped
    return a


@dataclass(frozen=True)
class Gate:
    """One operation: kind, operand qubits, and up to three Euler angles."""

    id: int
    kind: str
    qubits: tuple[int, ...]
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(
            self, "angles", tuple(normalize_angle(float(a)) for a in self.angles)
        )
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.id}: duplicate qubit operands")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"gate {self.id}: negative qubit index")
        arity = len(self.qubits)
        if self.kind == ECR and arity != 2:
            raise ValueError("ecr takes exactly two qubits")
        if self.kind == BARRIER and arity not in (1, 2):
            raise ValueError("barrier takes one or two qubits")
        if self.kind not in (ECR, BARRIER) and arity != 1:
            raise ValueError(f"{self.kind} takes exactly one qubit")
        if len(self.angles) != _N_ANGLES[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_N_ANGLES[self.kind]} angle(s), got {len(self.angles)}"
            )


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``width`` qubits (program order)."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for pos, g in enumerate(self.gates):
            if g.id != pos:
                raise ValueError("gate ids must be dense 0..n-1 in program order")
            if any(q >= self.width for q in g.qubits):
                raise ValueError(f"gate {g.id}: qubit index beyond circuit width")

    def __len__(self):
        return len(self.gates)


def _make_circuit(specs, width=None):
    """Build a Circuit from (kind, qubits, angles) triples, assigning dense ids."""
    gates = tuple(
        Gate(id=i, kind=k, qubits=tuple(qs), angles=tuple(angles))
        for i, (k, qs, angles) in enumerate(specs)
    )
    inferred = 1 + max((q for g in gates for q in g.qubits), default=-1)
    return Circuit(width=max(inferred, width or 0), gates=gates)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented format ``<kind> q<i> [q<j>] [angle[,angle,angle]]``.

    Angles are radians; ``#`` starts a comment.  Width is one past the highest
    qubit index mentioned.
    """
    specs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0].lower()
        if kind not in KINDS:
            raise CircuitSyntaxError(line_no, f"unknown gate kind {tokens[0]!r}")
        qubits = []
        angles = []
        for tok in tokens[1:]:
            m = _QUBIT_RE.match(tok)
            if m:
                if angles:
                    raise CircuitSyntaxError(line_no, "qubit after angle list")
                qubits.append(int(m.group(1)))
            elif tok.startswith("q"):
                raise CircuitSyntaxError(line_no, f"bad qubit token {tok!r}")
            else:
                if angles:
                    raise CircuitSyntaxError(line_no, "multiple angle lists")
                try:
                    angles = [float(p) for p in tok.split(",")]
                except ValueError:
                    raise CircuitSyntaxError(line_no, f"bad angle list {tok!r}") from None
        if not qubits:
            raise CircuitSyntaxError(line_no, "gate needs at least one qubit")
        try:
            specs.append((kind, qubits, angles))
            Gate(id=0, kind=kind, qubits=tuple(qubits), angles=tuple(angles))
        except ValueError as exc:
            specs.pop()
            raise CircuitSyntaxError(line_no, str(exc)) from None
    return _make_circuit(specs)


def circuit_to_text(c: Circuit) -> str:
    """Serialize back to the line format; round-trips through parse_circuit."""
    lines = []
    for g in c.gates:
        parts = [g.kind] + [f"q{q}" for q in g.qubits]
        if g.angles:
            parts.append(",".join(repr(a) for a in g.angles))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def circuit_from_json(data) -> Circuit:
    """Accept either a bare gate list or {"width": n, "gates": [...]}

    with gate objects {"kind", "qubits", "angles"}."""
    if isinstance(data, str):
        data = json.loads(data)
    width = None
    if isinstance(data, dict):
        width = data.get("width")
        data = data["gates"]
    specs = [
        (g["kind"].lower(), g["qubits"], g.get("angles", []) or []) for g in data
    ]
    return _make_circuit(specs, width=width)


def circuit_to_json(c: Circuit) -> dict:
    return {
        "width": c.width,
        "gates": [
            {"kind": g.kind, "qubits": list(g.qubits), "angles": list(g.angles)}
            for g in c.gates
        ],
    }


def u3_angles(u) -> tuple[float, float, float]:
    """(theta, phi, lam) with U3(theta, phi, lam) equal to the 2x2 block u up to
    global phase and scale, so a sub-unitary block (a qubit block of a leaky
    propagator) decomposes too.  theta = 0 puts the relative phase in lam,
    theta = pi puts it in phi."""
    a00, a01, a10 = u[0, 0], u[0, 1], u[1, 0]
    if abs(a10) < 1e-12:
        return 0.0, 0.0, float(np.angle(u[1, 1]) - np.angle(a00))
    if abs(a00) < 1e-12:
        return math.pi, float(np.angle(a10) - np.angle(-a01)), 0.0
    theta = 2.0 * math.atan2(abs(a10), abs(a00))
    return theta, float(np.angle(a10) - np.angle(a00)), float(np.angle(-a01) - np.angle(a00))


def _theta_cases(theta):
    """Classify a (snapped) U3 polar angle modulo 2*pi.

    Returns ("zero" | "sx" | "sxdg" | "general", theta_mod) where theta_mod
    is theta reduced into [0, 2*pi); the mod-2*pi reduction only changes the
    global phase of the gate.
    """
    tm = math.fmod(theta, TWO_PI)
    if tm < 0:
        tm += TWO_PI
    if abs(tm) < 1e-12 or abs(tm - TWO_PI) < 1e-12:
        return "zero", 0.0
    if abs(tm - HALF_PI) < 1e-12:
        return "sx", tm
    if abs(tm - 3 * HALF_PI) < 1e-12:
        return "sxdg", tm
    return "general", tm


def _rz(q, angle):
    angle = normalize_angle(angle)
    return (RZ, (q,), (angle,))


def decompose_static(c: Circuit) -> Circuit:
    """Rewrite every U3 (and Rx) into virtual Rz plus Sx / Sx^-1 pulses.

    theta = 0 becomes a pure phase gate; theta = +-pi/2 needs a single pulse;
    anything else uses the two-pulse chain rz, sx, rz(theta), sxdg, rz.
    """
    specs = []
    for g in c.gates:
        if g.kind == RX:
            g = replace(g, kind=U3, angles=(g.angles[0], -HALF_PI, HALF_PI))
        if g.kind != U3:
            specs.append((g.kind, g.qubits, g.angles))
            continue
        (q,) = g.qubits
        theta, phi, lam = (snap_angle(a) for a in g.angles)
        case, tm = _theta_cases(theta)
        if case == "zero":
            specs.append(_rz(q, phi + lam))
        elif case == "sx":
            specs.append(_rz(q, lam - HALF_PI))
            specs.append((SX, (q,), ()))
            specs.append(_rz(q, phi + HALF_PI))
        elif case == "sxdg":
            specs.append(_rz(q, lam - HALF_PI))
            specs.append((SXDG, (q,), ()))
            specs.append(_rz(q, phi + HALF_PI))
        else:
            specs.append(_rz(q, lam))
            specs.append((SX, (q,), ()))
            specs.append(_rz(q, tm))
            specs.append((SXDG, (q,), ()))
            specs.append(_rz(q, phi))
    return _make_circuit(specs, width=c.width)


def decompose_dynamic(c: Circuit) -> Circuit:
    """Rewrite every U3 into rz, rx(theta), rz with a single arbitrary-x pulse.

    theta is reduced to the minimal rotation in (-pi, pi]; theta = 0 gates
    collapse to virtual Rz only (zero physical duration).  Fixed Sx / Sx^-1
    gates become rx(+-pi/2) so the whole circuit shares one pulse family.
    """
    specs = []
    for g in c.gates:
        if g.kind == SX:
            specs.append((RX, g.qubits, (HALF_PI,)))
            continue
        if g.kind == SXDG:
            specs.append((RX, g.qubits, (-HALF_PI,)))
            continue
        if g.kind != U3:
            specs.append((g.kind, g.qubits, g.angles))
            continue
        (q,) = g.qubits
        theta, phi, lam = (snap_angle(a) for a in g.angles)
        case, tm = _theta_cases(theta)
        if case == "zero":
            specs.append(_rz(q, phi + lam))
            continue
        # minimal-rotation convention: the pulse plays |theta_c| <= pi
        theta_c = tm if tm <= math.pi + 1e-12 else tm - TWO_PI
        specs.append(_rz(q, lam - HALF_PI))
        specs.append((RX, (q,), (theta_c,)))
        specs.append(_rz(q, phi + HALF_PI))
    return _make_circuit(specs, width=c.width)


def merge_virtual_z(c: Circuit) -> Circuit:
    """Fuse adjacent same-qubit Rz gates and drop Rz that is identity mod 2*pi."""
    merged: list[list] = []  # [kind, qubits, [angles...]] kept mutable for fusion
    last_on_qubit: dict[int, int] = {}
    for g in c.gates:
        if g.kind == RZ:
            (q,) = g.qubits
            prev = last_on_qubit.get(q)
            if prev is not None and merged[prev][0] == RZ:
                merged[prev][2][0] = normalize_angle(merged[prev][2][0] + g.angles[0])
                continue
        merged.append([g.kind, g.qubits, list(g.angles)])
        for q in g.qubits:
            last_on_qubit[q] = len(merged) - 1

    def is_identity_rz(entry):
        if entry[0] != RZ:
            return False
        rem = math.fmod(entry[2][0], TWO_PI)
        return min(abs(rem), abs(abs(rem) - TWO_PI)) < 1e-12

    specs = [(k, qs, tuple(a)) for k, qs, a in merged if not is_identity_rz([k, qs, a])]
    return _make_circuit(specs, width=c.width)


def count_pulses(c: Circuit) -> int:
    """Number of physical drive pulses (excludes virtual Rz, barriers, measures)."""
    return sum(1 for g in c.gates if g.kind in PULSE_KINDS)


def pulse_angle(gate: Gate) -> float:
    """Signed x-rotation a lowered gate's pulse plays: theta for Rx, +pi/2 for
    Sx, -pi/2 for Sx^-1, and 0 for everything else (ECR, measure, barrier)."""
    if gate.kind == RX:
        return gate.angles[0]
    if gate.kind == SX:
        return HALF_PI
    if gate.kind == SXDG:
        return -HALF_PI
    return 0.0


def pulse_rotation(gate: Gate) -> float:
    """Implemented rotation magnitude used for scheduling priority."""
    return abs(pulse_angle(gate))
