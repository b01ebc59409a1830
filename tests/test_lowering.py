"""`scheduler.lower` against the three-pass lowering it replaced.

The oracle below is the decompose / build Gates / merge virtual Z pipeline
that `lower` ran before it became one pass over specs, kept here verbatim as
the reference: the one-pass lowering must give the same gates, kinds,
qubits and angle bits in both modes.  Two readings have changed since: the
dynamic oracle, like the static one, now takes Rx as U3(theta, -pi/2, pi/2),
and static mode plays each Sx^-1 as rz(pi), sx, rz(pi), so the static
oracle's first pass is rewritten that way (`_sxdg_as_framed_sx`) before its
fuse pass runs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_circuit
from pulsesched import circuit as circ
from pulsesched.circuit import (
    ECR,
    HALF_PI,
    PULSE_KINDS,
    RX,
    RZ,
    SX,
    SXDG,
    TWO_PI,
    U3,
    Circuit,
    Gate,
    _theta_cases,
    normalize_angle,
    snap_angle,
)
from pulsesched.gateset import DYNAMIC, STATIC, GateSet
from pulsesched.scheduler import lower

# -- oracle: the three-pass lowering, verbatim ---------------------------------


def _make_circuit(specs, width):
    """Build a Circuit from (kind, qubits, angles) triples, assigning dense ids."""
    gates = tuple(
        Gate(id=i, kind=k, qubits=tuple(qs), angles=tuple(angles))
        for i, (k, qs, angles) in enumerate(specs)
    )
    return Circuit(width=width, gates=gates)


def _rz(q, angle):
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
    """Rewrite every U3 (and Rx) into rz, rx(theta), rz with a single arbitrary-x pulse.

    theta is reduced to the minimal rotation in (-pi, pi]; theta = 0 gates
    collapse to virtual Rz only (zero physical duration).  Fixed Sx / Sx^-1
    gates become rx(+-pi/2) so the whole circuit shares one pulse family.
    """
    specs = []
    for g in c.gates:
        if g.kind == RX:
            g = replace(g, kind=U3, angles=(g.angles[0], -HALF_PI, HALF_PI))
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


def _sxdg_as_framed_sx(c: Circuit) -> Circuit:
    """Each Sx^-1 of ``c`` rewritten as rz(pi), sx, rz(pi), the one-pulse-kind
    form static lowering plays."""
    specs = []
    for g in c.gates:
        if g.kind == SXDG:
            (q,) = g.qubits
            specs += [_rz(q, math.pi), (SX, (q,), ()), _rz(q, math.pi)]
        else:
            specs.append((g.kind, g.qubits, g.angles))
    return _make_circuit(specs, width=c.width)


# -- circuits that reach every branch -----------------------------------------

#: offsets from a multiple of pi/2 on both sides of the 1e-12 theta-case and
#: 1e-9 snap tolerances, plus the signed zeros
_OFFSETS = (0.0, -0.0, 5e-13, -5e-13, 2e-12, -2e-12, 5e-10, -5e-10, 2e-9, -2e-9, 1e-6)
_NEAR_QUARTER = st.builds(
    lambda k, off: k * HALF_PI + off,
    st.integers(-9, 9),
    st.sampled_from(_OFFSETS) | st.floats(-3e-9, 3e-9),
)
_ANGLE = (
    _NEAR_QUARTER
    | st.floats(-20.0, 20.0)
    | st.sampled_from((0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI))
)


@st.composite
def _gate_specs(draw, width):
    """One gate of any kind, then a run of Rz on its first qubit; an Rz run
    may close to a multiple of 2*pi."""
    q = draw(st.integers(0, width - 1))
    kind = draw(st.sampled_from(circ.KINDS))
    qubits = (q,)
    if kind in (circ.ECR, circ.BARRIER) and width > 1 and (kind == circ.ECR or draw(st.booleans())):
        other = draw(st.integers(0, width - 2))
        qubits = (q, other + (other >= q))
    elif kind == circ.ECR:
        kind = SX
    n_angles = {U3: 3, RZ: 1, RX: 1}.get(kind, 0)
    gate = (kind, qubits, tuple(draw(_ANGLE) for _ in range(n_angles)))
    run = draw(st.lists(_ANGLE, max_size=3))
    if draw(st.booleans()):
        head = run + list(gate[2]) if kind == RZ else run
        run.append(draw(st.integers(-2, 2)) * TWO_PI - sum(head))
    return [gate] + [(RZ, (q,), (a,)) for a in run]


@st.composite
def _circuits(draw):
    width = draw(st.integers(1, 3))
    runs = draw(st.lists(_gate_specs(width), max_size=25))
    return _make_circuit([spec for run in runs for spec in run], width)


def _bits(c: Circuit):
    return c.width, [(g.id, g.kind, g.qubits, tuple(map(repr, g.angles))) for g in c.gates]


_GATE_SETS = {mode: GateSet.ideal(mode, 3) for mode in (STATIC, DYNAMIC)}
_ORACLES = {STATIC: lambda c: _sxdg_as_framed_sx(decompose_static(c)), DYNAMIC: decompose_dynamic}


class TestLowerMatchesThreePassOracle:
    @pytest.mark.parametrize("mode", (STATIC, DYNAMIC))
    @settings(max_examples=150, deadline=None)
    @given(c=_circuits())
    def test_gate_for_gate(self, mode, c):
        assert _bits(lower(c, _GATE_SETS[mode])) == _bits(merge_virtual_z(_ORACLES[mode](c)))

    @pytest.mark.parametrize("mode", (STATIC, DYNAMIC))
    @settings(max_examples=50, deadline=None)
    @given(c=_circuits())
    def test_each_pass_alone(self, mode, c):
        one = circ.decompose_static if mode == STATIC else circ.decompose_dynamic
        assert _bits(one(c)) == _bits(_ORACLES[mode](c))
        assert _bits(circ.merge_virtual_z(c)) == _bits(merge_virtual_z(c))

    @pytest.mark.parametrize("mode", (STATIC, DYNAMIC))
    def test_signed_zeros_full_turns_and_angles_snapped_to_minus_two_pi(self, mode):
        """An angle within the snap tolerance above -2*pi snaps to -2*pi, and
        phi + pi/2 leaves (-2*pi, 2*pi] for phi > 3*pi/2; the Rz they feed must
        be normalized before it fuses with its neighbours, or the fused
        angle's last bits change."""
        near = -TWO_PI + 5e-10
        specs = [
            (RZ, (0,), (-0.0,)),
            (SX, (0,), ()),
            (RZ, (0,), (math.pi,)),
            (RZ, (0,), (math.pi,)),
            (RZ, (0,), (0.3,)),
            (U3, (0,), (-0.0, -0.0, -0.0)),
            (RX, (0,), (near,)),
        ]
        for a, b in np.random.default_rng(3).uniform(-TWO_PI, TWO_PI, (40, 2)):
            for theta in (1.0, HALF_PI, -HALF_PI, 0.0):
                for phi in (near, 5.5):
                    specs += [(RZ, (0,), (a,)), (U3, (0,), (theta, phi, near)), (RZ, (0,), (b,))]
        c = _make_circuit(specs, 1)
        assert _bits(lower(c, _GATE_SETS[mode])) == _bits(merge_virtual_z(_ORACLES[mode](c)))


class TestOnePulseKindPerMode:
    """Static lowering plays only Sx and ECR pulses, dynamic lowering only Rx
    and ECR, and each plays as many pulses as the three-pass oracle did
    before Sx^-1 became rz(pi), sx, rz(pi)."""

    @pytest.mark.parametrize("mode, x_pulse", ((STATIC, SX), (DYNAMIC, RX)))
    @settings(max_examples=100, deadline=None)
    @given(c=_circuits())
    def test_pulse_kinds_and_count(self, mode, x_pulse, c):
        lowered = lower(c, _GATE_SETS[mode])
        pulses = [g.kind for g in lowered.gates if g.kind in PULSE_KINDS + (SXDG,)]
        assert set(pulses) <= {x_pulse, ECR}
        oracle = merge_virtual_z(decompose_static(c) if mode == STATIC else decompose_dynamic(c))
        assert len(pulses) == sum(g.kind in PULSE_KINDS + (SXDG,) for g in oracle.gates)


class TestLowerBuildsEachGateOnce:
    @pytest.mark.parametrize("mode", (STATIC, DYNAMIC))
    def test_one_gate_construction_per_output_gate(self, mode, monkeypatch):
        c = random_circuit(np.random.default_rng(14), 3, 200)
        built = []
        post_init = Gate.__post_init__

        def counted(self):
            built.append(self.id)
            post_init(self)

        monkeypatch.setattr(Gate, "__post_init__", counted)
        lowered = lower(c, _GATE_SETS[mode])
        assert len(built) == len(lowered.gates) > len(c.gates)


class TestOneXRotationRule:
    """Lowering reads every ``rx theta`` as U3(theta, -pi/2, pi/2) in both
    modes, so an x rotation plays exactly the pulse of its U3 twin."""

    @pytest.mark.parametrize("mode", (STATIC, DYNAMIC))
    @settings(max_examples=150, deadline=None)
    @given(theta=_ANGLE)
    @example(theta=0.0)
    @example(theta=math.pi)
    @example(theta=-math.pi)
    @example(theta=TWO_PI)
    @example(theta=6.0)
    @example(theta=HALF_PI + 5e-10)
    @example(theta=-HALF_PI - 2e-9)
    def test_rx_lowers_like_its_u3_twin(self, mode, theta):
        rx = _make_circuit([(RX, (0,), (theta,))], 1)
        u3 = _make_circuit([(U3, (0,), (theta, -HALF_PI, HALF_PI))], 1)
        assert _bits(lower(rx, _GATE_SETS[mode])) == _bits(lower(u3, _GATE_SETS[mode]))
