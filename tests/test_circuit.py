"""Parser, serializer, and decomposition tests against dense-matrix oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIG2_TEXT,
    circuit_unitary,
    equal_up_to_phase,
    random_circuit,
    rz_matrix,
    rx_matrix,
    u3_matrix,
    SX_MATRIX,
    SXDG_MATRIX,
    gate_matrix,
)
from pulsesched.circuit import (
    Circuit,
    Gate,
    circuit_from_json,
    circuit_to_json,
    circuit_to_text,
    count_pulses,
    decompose_dynamic,
    decompose_static,
    merge_virtual_z,
    normalize_angle,
    parse_circuit,
    pulse_angle,
    pulse_rotation,
    u3_angles,
)
from pulsesched.errors import CircuitSyntaxError
from pulsesched.gateset import _zxz_angles

HALF_PI = math.pi / 2


class TestParser:
    def test_two_gate_program(self):
        c = parse_circuit("sx q0\necr q0 q1")
        assert c.width == 2
        assert len(c.gates) == 2
        assert c.gates[0].kind == "sx" and c.gates[0].qubits == (0,)
        assert c.gates[1].kind == "ecr" and c.gates[1].qubits == (0, 1)

    def test_empty_program(self):
        c = parse_circuit("")
        assert c.width == 0 and len(c.gates) == 0

    def test_fig2_has_ten_gates(self, fig2_circuit):
        assert len(fig2_circuit.gates) == 10
        assert fig2_circuit.width == 2
        assert sum(1 for g in fig2_circuit.gates if g.kind == "ecr") == 2

    def test_angles_and_comments(self):
        c = parse_circuit("# leading comment\nu3 q2 0.1,0.2,0.3  # trailing\nrz q0 -1.5\n")
        assert c.width == 3
        assert c.gates[0].angles == pytest.approx((0.1, 0.2, 0.3))
        assert c.gates[1].angles == pytest.approx((-1.5,))

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse_circuit("sx q0\nbogus q1\n")
        assert exc.value.line_no == 2
        assert "bogus" in str(exc.value)

    def test_unknown_kind_and_bad_tokens(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("hadamard q0")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("sx q-1")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("rz q0 notanumber")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("sx")

    def test_arity_errors(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("ecr q0")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("sx q0 q1")
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("u3 q0 0.1,0.2")

    def test_round_trip_random_circuits(self):
        # serialize(parse(text)) must reparse to an identical circuit
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(0, 25)))
            parsed = parse_circuit(circuit_to_text(c))
            assert tuple(parsed.gates) == tuple(c.gates)
            again = parse_circuit(circuit_to_text(parsed))
            assert again == parsed

    def test_json_round_trip(self):
        rng = np.random.default_rng(12)
        c = random_circuit(rng, 3, 20)
        again = circuit_from_json(circuit_to_json(c))
        assert tuple(again.gates) == tuple(c.gates)
        bare = circuit_from_json(circuit_to_json(c)["gates"])
        assert tuple(bare.gates) == tuple(c.gates)


class TestGateInvariants:
    def test_angle_normalization_window(self):
        g = Gate(id=0, kind="rz", qubits=(0,), angles=(7.5 * math.pi,))
        assert -2 * math.pi < g.angles[0] <= 2 * math.pi
        # wrap-around by 4*pi leaves the SU(2) element intact
        assert normalize_angle(-2 * math.pi) == pytest.approx(2 * math.pi)

    def test_duplicate_and_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate(id=0, kind="ecr", qubits=(1, 1))
        with pytest.raises(ValueError):
            Gate(id=0, kind="sx", qubits=(-1,))

    def test_circuit_id_density_enforced(self):
        g0 = Gate(id=0, kind="sx", qubits=(0,))
        g2 = Gate(id=2, kind="sx", qubits=(0,))
        with pytest.raises(ValueError):
            Circuit(width=1, gates=(g0, g2))

    def test_width_bound_enforced(self):
        with pytest.raises(ValueError):
            Circuit(width=1, gates=(Gate(id=0, kind="sx", qubits=(3,)),))


def _single_qubit_unitary(c: Circuit):
    u = np.eye(2, dtype=complex)
    for g in c.gates:
        m = gate_matrix(g)
        if m is not None:
            u = m @ u
    return u


class TestStaticDecomposition:
    def test_identity_u3_is_pure_rz(self):
        c = parse_circuit("u3 q0 0,0,0")
        out = decompose_static(c)
        assert all(g.kind == "rz" for g in out.gates)
        assert equal_up_to_phase(_single_qubit_unitary(out), np.eye(2))

    def test_sx_like_u3_uses_one_pulse(self):
        c = parse_circuit(f"u3 q0 {HALF_PI},{-HALF_PI},{HALF_PI}")
        out = merge_virtual_z(decompose_static(c))
        assert count_pulses(out) == 1
        assert out.gates[0].kind == "sx" and len(out.gates) == 1
        assert equal_up_to_phase(_single_qubit_unitary(out), SX_MATRIX, tol=1e-12)

    def test_sxdg_like_u3_uses_one_pulse(self):
        c = parse_circuit(f"u3 q0 {-HALF_PI},{HALF_PI},{-HALF_PI}")
        out = merge_virtual_z(decompose_static(c))
        assert count_pulses(out) == 1
        assert any(g.kind == "sxdg" for g in out.gates)

    def test_random_triples_match_u3_matrix(self):
        rng = np.random.default_rng(517)
        for _ in range(1000):
            theta, phi, lam = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            c = Circuit(width=1, gates=(Gate(id=0, kind="u3", qubits=(0,), angles=(theta, phi, lam)),))
            out = decompose_static(c)
            assert {g.kind for g in out.gates} <= {"rz", "sx", "sxdg"}
            assert equal_up_to_phase(_single_qubit_unitary(out), u3_matrix(theta, phi, lam), tol=1e-12)

    def test_rx_input_accepted(self):
        c = parse_circuit("rx q0 0.7")
        out = decompose_static(c)
        assert equal_up_to_phase(_single_qubit_unitary(out), rx_matrix(0.7), tol=1e-12)

    def test_multi_qubit_gates_untouched(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            c = random_circuit(rng, 3, 30)
            out = decompose_static(c)
            assert [g.qubits for g in c.gates if g.kind == "ecr"] == [
                g.qubits for g in out.gates if g.kind == "ecr"
            ]


class TestDynamicDecomposition:
    def test_theta_zero_is_virtual_only(self):
        c = parse_circuit("u3 q0 0,0.7,0.3")
        out = decompose_dynamic(c)
        assert all(g.kind == "rz" for g in out.gates)
        assert equal_up_to_phase(_single_qubit_unitary(out), u3_matrix(0, 0.7, 0.3), tol=1e-12)

    def test_pi_rotation_single_rx(self):
        c = parse_circuit(f"u3 q0 {math.pi},0,0")
        out = decompose_dynamic(c)
        rx_gates = [g for g in out.gates if g.kind == "rx"]
        assert len(rx_gates) == 1
        assert rx_gates[0].angles[0] == pytest.approx(math.pi)
        assert equal_up_to_phase(_single_qubit_unitary(out), u3_matrix(math.pi, 0, 0), tol=1e-12)

    def test_random_triples_match_u3_matrix(self):
        rng = np.random.default_rng(518)
        for _ in range(1000):
            theta, phi, lam = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            c = Circuit(width=1, gates=(Gate(id=0, kind="u3", qubits=(0,), angles=(theta, phi, lam)),))
            out = decompose_dynamic(c)
            assert {g.kind for g in out.gates} <= {"rz", "rx"}
            assert equal_up_to_phase(_single_qubit_unitary(out), u3_matrix(theta, phi, lam), tol=1e-12)

    def test_rx_angles_are_minimal_rotations(self):
        rng = np.random.default_rng(519)
        for _ in range(200):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            c = Circuit(width=1, gates=(Gate(id=0, kind="u3", qubits=(0,), angles=(theta, 0.0, 0.0)),))
            out = decompose_dynamic(c)
            for g in out.gates:
                if g.kind == "rx":
                    assert abs(g.angles[0]) <= math.pi + 1e-12

    def test_sx_converted_to_rx(self):
        out = decompose_dynamic(parse_circuit("sx q0\nsxdg q0"))
        assert [g.kind for g in out.gates] == ["rx", "rx"]
        assert out.gates[0].angles[0] == pytest.approx(HALF_PI)
        assert out.gates[1].angles[0] == pytest.approx(-HALF_PI)


class TestMergeVirtualZ:
    def test_adjacent_rz_fused(self):
        out = merge_virtual_z(parse_circuit("rz q0 0.25\nrz q0 0.5"))
        assert len(out.gates) == 1
        assert out.gates[0].angles[0] == pytest.approx(0.75)

    def test_full_turn_removed(self):
        out = merge_virtual_z(parse_circuit(f"rz q0 {2 * math.pi}"))
        assert len(out.gates) == 0

    def test_fusion_blocked_by_other_gate(self):
        out = merge_virtual_z(parse_circuit("rz q0 0.25\nsx q0\nrz q0 0.5"))
        assert [g.kind for g in out.gates] == ["rz", "sx", "rz"]

    def test_cross_qubit_rz_do_not_fuse(self):
        out = merge_virtual_z(parse_circuit("rz q0 0.25\nrz q1 0.5"))
        assert len(out.gates) == 2

    def test_unitary_preserved_on_random_circuits(self):
        rng = np.random.default_rng(520)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            c = random_circuit(rng, n, int(rng.integers(1, 20)), with_measure=False)
            lowered = decompose_static(c)
            merged = merge_virtual_z(lowered)
            assert equal_up_to_phase(circuit_unitary(merged), circuit_unitary(lowered), tol=1e-9)

    def test_per_qubit_order_of_multiqubit_gates_stable(self):
        rng = np.random.default_rng(521)
        for _ in range(20):
            c = random_circuit(rng, 3, 25)
            out = merge_virtual_z(decompose_dynamic(c))
            assert [g.qubits for g in c.gates if g.kind == "ecr"] == [
                g.qubits for g in out.gates if g.kind == "ecr"
            ]


class TestRotationAttribute:
    def test_rotation_values(self):
        assert pulse_rotation(Gate(id=0, kind="sx", qubits=(0,))) == pytest.approx(HALF_PI)
        assert pulse_rotation(Gate(id=0, kind="sxdg", qubits=(0,))) == pytest.approx(HALF_PI)
        assert pulse_rotation(Gate(id=0, kind="rx", qubits=(0,), angles=(-1.2,))) == pytest.approx(1.2)
        assert pulse_rotation(Gate(id=0, kind="measure", qubits=(0,))) == 0.0
        assert pulse_rotation(Gate(id=0, kind="barrier", qubits=(0,))) == 0.0

    def test_pulse_angle_is_signed(self):
        assert pulse_angle(Gate(id=0, kind="sx", qubits=(0,))) == HALF_PI
        assert pulse_angle(Gate(id=0, kind="sxdg", qubits=(0,))) == -HALF_PI
        assert pulse_angle(Gate(id=0, kind="rx", qubits=(0,), angles=(-1.2,))) == -1.2
        assert pulse_angle(Gate(id=0, kind="rx", qubits=(0,), angles=(2.5,))) == 2.5

    def test_pulse_angle_zero_without_a_rotation(self):
        for kind, qubits in (("ecr", (0, 1)), ("measure", (0,)), ("barrier", (0, 1))):
            assert pulse_angle(Gate(id=0, kind=kind, qubits=qubits)) == 0.0
        assert pulse_rotation(Gate(id=0, kind="ecr", qubits=(0, 1))) == 0.0


_QUATERNION = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 1e-3
)
_PHASE = st.floats(-math.pi, math.pi)


def _su2(q):
    a, b, c, d = np.asarray(q) / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


class TestU3Angles:
    """u3_angles, and _zxz_angles on top of it, reproduce any 2x2 block up to
    global phase and scale."""

    @staticmethod
    def assert_reproduces(u, scale=1.0):
        target = u / scale
        assert equal_up_to_phase(u3_matrix(*u3_angles(u)), target, tol=1e-9)
        a, b, c = _zxz_angles(u)
        assert equal_up_to_phase(rz_matrix(a) @ rx_matrix(b) @ rz_matrix(c), target, tol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(_QUATERNION)
    def test_random_su2(self, q):
        self.assert_reproduces(_su2(q))

    @settings(deadline=None)
    @given(_QUATERNION, st.floats(0.05, 1.0))
    def test_scaled_sub_unitary_block(self, q, scale):
        self.assert_reproduces(scale * _su2(q), scale)

    @settings(deadline=None)
    @given(_PHASE, _PHASE)
    def test_theta_zero_branch(self, alpha, beta):
        u = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
        assert u3_angles(u)[0] == 0.0
        self.assert_reproduces(u)

    @settings(deadline=None)
    @given(_PHASE, _PHASE)
    def test_theta_pi_branch(self, alpha, beta):
        u = np.array([[0.0, np.exp(1j * alpha)], [np.exp(1j * beta), 0.0]])
        assert u3_angles(u)[0] == math.pi
        self.assert_reproduces(u)
