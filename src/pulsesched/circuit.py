"""Circuit IR, text parsing, and lowering into the physical basis.

A circuit is an ordered gate list over indexed qubits.  Lowering rewrites
arbitrary U3 gates into one of two physical bases:

* static  -> virtual Rz plus calibrated Sx pulses,
* dynamic -> virtual Rz plus one arbitrary Rx pulse.

Both sequences are emitted in circuit order (first gate applied first) and
were fixed by checking the composed 2x2 matrix against the U3 matrix; the
matrix-product reading of the same sequences does not reproduce U3.

Lowering alone owns the x-rotation rule: both modes read ``rx theta`` as
U3(theta, -pi/2, pi/2) and Sx / Sx^-1 as rx(+-pi/2), and static mode plays
Sx^-1 as Rz(pi), Sx, Rz(pi) (virtual Z, McKay et al., PRA 96, 022330
(2017)).  So each mode plays one pulse kind.

Lowering works on (kind, qubits, angles) specs, not on Gates.  One streaming
pass (`_lowered_specs`) decomposes each input gate for the mode, normalizing
every Rz angle it emits.  A second pass (`_fused_rz`) fuses each run of
same-qubit Rz into the run's first position and drops the Rz left as the
identity mod 2*pi.  Only then is each output Gate built and validated, once,
with dense ids in output order (`lower_circuit`).  `decompose_static`,
`decompose_dynamic` and `merge_virtual_z` run one of the two passes alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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

#: operand counts each kind accepts
_ARITY = {
    U3: (1,), RZ: (1,), RX: (1,), SX: (1,), SXDG: (1,), ECR: (2,), MEASURE: (1,), BARRIER: (1, 2)
}

#: single-qubit drive pulses, all x rotations (Sx static, Rx dynamic)
X_PULSE_KINDS = (SX, RX)

#: gate kinds that emit an actual drive pulse
PULSE_KINDS = X_PULSE_KINDS + (ECR,)

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


def snap_angle(a: float) -> float:
    """Snap to the nearest multiple of pi/2 when within 1e-9 (transpiled circuits
    carry only 0, pi/2, pi rotations up to float noise)."""
    k = round(a / HALF_PI)
    snapped = k * HALF_PI
    if abs(a - snapped) < 1e-9:
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
        kind, qubits, angles = self.kind, self.qubits, self.angles
        # a tuple of plain ints, and one of plain floats in (-2*pi, 2*pi], is
        # already what the conversions make of it, bit for bit
        if type(qubits) is not tuple or not all(type(q) is int for q in qubits):
            qubits = tuple(map(int, qubits))
            object.__setattr__(self, "qubits", qubits)
        if type(angles) is not tuple or not all(type(a) is float and -TWO_PI < a <= TWO_PI for a in angles):
            angles = tuple(map(float, angles))
            if not all(map(math.isfinite, angles)):
                raise ValueError(f"gate {self.id}: angle list {angles} is not finite")
            angles = tuple(map(normalize_angle, angles))
            object.__setattr__(self, "angles", angles)
        if kind not in KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = len(qubits)
        if arity > 1 and len(set(qubits)) != arity:
            raise ValueError(f"gate {self.id}: duplicate qubit operands")
        if arity and min(qubits) < 0:
            raise ValueError(f"gate {self.id}: negative qubit index")
        if arity not in _ARITY[kind]:
            if kind == ECR:
                raise ValueError("ecr takes exactly two qubits")
            if kind == BARRIER:
                raise ValueError("barrier takes one or two qubits")
            raise ValueError(f"{kind} takes exactly one qubit")
        if len(angles) != _N_ANGLES[kind]:
            raise ValueError(f"{kind} takes {_N_ANGLES[kind]} angle(s), got {len(angles)}")


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
            if max(g.qubits) >= self.width:
                raise ValueError(f"gate {g.id}: qubit index beyond circuit width")


def _make_circuit(specs, width):
    """Build a Circuit from (kind, qubits, angles) triples, assigning dense ids."""
    gates = tuple(Gate(i, k, qs, angles) for i, (k, qs, angles) in enumerate(specs))
    return Circuit(width=width, gates=gates)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented format ``<kind> q<i> [q<j>] [angle[,angle,angle]]``.

    Angles are radians; ``#`` starts a comment.  Width is one past the highest
    qubit index mentioned.
    """
    gates = []
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
                if not all(map(math.isfinite, angles)):
                    raise CircuitSyntaxError(line_no, f"angle list {tok!r} is not finite")
        if not qubits:
            raise CircuitSyntaxError(line_no, "gate needs at least one qubit")
        try:
            gates.append(Gate(id=len(gates), kind=kind, qubits=tuple(qubits), angles=tuple(angles)))
        except ValueError as exc:
            raise CircuitSyntaxError(line_no, str(exc)) from None
    width = 1 + max((q for g in gates for q in g.qubits), default=-1)
    return Circuit(width=width, gates=tuple(gates))


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


def _x_pulse(qs, tm, dynamic: bool):
    """Specs of the pulses that rotate by ``tm`` in (0, 2*pi) about x.  Dynamic
    mode plays one rx of the minimal rotation in (-pi, pi]; static mode only
    meets tm = pi/2, one sx, and tm = 3*pi/2, Sx^-1, which it plays as
    rz(pi), sx, rz(pi): conjugating by Z flips an x rotation."""
    if dynamic:
        return ((RX, qs, (tm if tm <= math.pi + 1e-12 else tm - TWO_PI,)),)
    if tm < math.pi:
        return ((SX, qs, ()),)
    return (RZ, qs, (math.pi,)), (SX, qs, ()), (RZ, qs, (math.pi,))


def _lowered_specs(gates, dynamic: bool):
    """Yield the (kind, qubits, angles) specs that replace ``gates`` in the
    physical basis of the static (``dynamic=False``) or dynamic mode.

    Every Rz angle this emits is normalized, as a Gate would store it (the
    reduced theta of the static chain already lies in [0, 2*pi)).  Rx reads
    as U3(theta, -pi/2, pi/2); U3 angles are snapped first.  A theta = 0 gate
    becomes one phase gate, any other one rz, `_x_pulse`, rz, except that
    static mode plays a theta off +-pi/2 as the chain rz, sx, rz(theta),
    Sx^-1, rz.  Sx and Sx^-1 read as rx(+-pi/2) without its zero outer
    frames: an Rz(0) would pull a later Rz run on its qubit ahead of other
    qubits' gates.  Other gates pass unchanged.
    """
    for g in gates:
        kind, qs = g.kind, g.qubits
        if kind in (SX, SXDG):
            yield from _x_pulse(qs, HALF_PI if kind == SX else 3 * HALF_PI, dynamic)
            continue
        if kind == U3:
            angles = g.angles
        elif kind == RX:
            angles = (g.angles[0], -HALF_PI, HALF_PI)
        else:
            yield kind, qs, g.angles
            continue
        theta, phi, lam = map(snap_angle, angles)
        case, tm = _theta_cases(theta)
        if case == "zero":
            yield RZ, qs, (normalize_angle(phi + lam),)
        elif case == "general" and not dynamic:
            yield RZ, qs, (normalize_angle(lam),)
            yield SX, qs, ()
            yield RZ, qs, (tm,)
            yield from _x_pulse(qs, 3 * HALF_PI, False)
            yield RZ, qs, (normalize_angle(phi),)
        else:
            yield RZ, qs, (normalize_angle(lam - HALF_PI),)
            yield from _x_pulse(qs, tm, dynamic)
            yield RZ, qs, (normalize_angle(phi + HALF_PI),)


def _fused_rz(specs):
    """Fuse each run of same-qubit Rz specs into the run's first position,
    then drop the Rz that is identity mod 2*pi.

    A run ends at the next spec that touches its qubit.  Each fused angle is
    normalized after every addition.
    """
    merged = []
    last_on_qubit = {}
    for spec in specs:
        kind, qubits, angles = spec
        if kind == RZ:
            q = qubits[0]
            prev = last_on_qubit.get(q)
            if prev is not None and merged[prev][0] == RZ:
                merged[prev] = (RZ, qubits, (normalize_angle(merged[prev][2][0] + angles[0]),))
                continue
            last_on_qubit[q] = len(merged)
        else:
            for q in qubits:
                last_on_qubit[q] = len(merged)
        merged.append(spec)
    return [spec for spec in merged if spec[0] != RZ or not _is_identity_rz(spec[2][0])]


def _is_identity_rz(angle):
    rem = math.fmod(angle, TWO_PI)
    return min(abs(rem), abs(abs(rem) - TWO_PI)) < 1e-12


def lower_circuit(c: Circuit, dynamic: bool) -> Circuit:
    """Decompose into the static or dynamic physical basis and fuse virtual
    Rz, streaming specs from the first pass into the second; builds and
    validates one Gate per output gate."""
    return _make_circuit(_fused_rz(_lowered_specs(c.gates, dynamic)), c.width)


def decompose_static(c: Circuit) -> Circuit:
    """Rewrite every U3, Rx and Sx^-1 into virtual Rz plus Sx pulses.

    theta = 0 becomes a pure phase gate; theta = +-pi/2 needs a single pulse;
    anything else uses the two-pulse chain rz, sx, rz(theta), Sx^-1, rz, and
    each Sx^-1 plays as rz(pi), sx, rz(pi).
    """
    return _make_circuit(_lowered_specs(c.gates, False), c.width)


def decompose_dynamic(c: Circuit) -> Circuit:
    """Rewrite every U3 (and Rx) into rz, rx(theta), rz: one arbitrary-x pulse.

    theta is reduced to the minimal rotation in (-pi, pi]; theta = 0 gates
    collapse to virtual Rz only (zero physical duration).  Sx / Sx^-1 gates
    read as rx(+-pi/2), so the whole circuit shares one pulse family.
    """
    return _make_circuit(_lowered_specs(c.gates, True), c.width)


def merge_virtual_z(c: Circuit) -> Circuit:
    """Fuse adjacent same-qubit Rz gates and drop Rz that is identity mod 2*pi."""
    return _make_circuit(_fused_rz((g.kind, g.qubits, g.angles) for g in c.gates), c.width)


def pulse_angle(gate: Gate) -> float:
    """Signed x-rotation a gate's pulse plays: theta for Rx, +pi/2 for Sx,
    -pi/2 for an unlowered Sx^-1, and 0 for everything else (ECR, measure,
    barrier)."""
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
