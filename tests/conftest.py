"""Shared test helpers: independent dense-matrix oracles and circuit generators.

The matrix builders here are deliberately written from the textbook formulas
(not imported from the package) so decomposition and simulator tests check
against an independent reference.
"""

import math

import numpy as np
import pytest

from pulsesched.circuit import Circuit, Gate
from pulsesched.scheduler import FREE_FLOAT, create_schedule, minimum_duration_graph, optimize_durations, stretched_schedule
from pulsesched.sim import ScheduleSimulator

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# independent 2x2 / dense references


def u3_matrix(theta, phi, lam):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def rz_matrix(a):
    return np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])


def rx_matrix(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
SXDG_MATRIX = SX_MATRIX.conj().T

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
ECR_MATRIX = (np.kron(np.eye(2), _X) - np.kron(_X, _Y)) / math.sqrt(2)


def gate_matrix(gate: Gate):
    if gate.kind == "u3":
        return u3_matrix(*gate.angles)
    if gate.kind == "rz":
        return rz_matrix(gate.angles[0])
    if gate.kind == "rx":
        return rx_matrix(gate.angles[0])
    if gate.kind == "sx":
        return SX_MATRIX
    if gate.kind == "sxdg":
        return SXDG_MATRIX
    if gate.kind == "ecr":
        return ECR_MATRIX
    if gate.kind in ("measure", "barrier"):
        return None
    raise ValueError(gate.kind)


def _embed(op, qubits, width):
    """Dense embedding of a 1- or 2-qubit operator; qubit 0 is the leftmost factor."""
    if len(qubits) == 1:
        mats = [op if q == qubits[0] else np.eye(2) for q in range(width)]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out
    a, b = qubits
    dim = 2**width
    out = np.zeros((dim, dim), dtype=complex)
    for row_bits in range(dim):
        bits = [(row_bits >> (width - 1 - q)) & 1 for q in range(width)]
        for ra in range(2):
            for rb in range(2):
                amp = op[2 * ra + rb, 2 * bits[a] + bits[b]]
                if amp == 0:
                    continue
                new_bits = list(bits)
                new_bits[a], new_bits[b] = ra, rb
                col = sum(v << (width - 1 - q) for q, v in enumerate(new_bits))
                out[col, row_bits] += amp
    return out


def circuit_unitary(c: Circuit):
    """Dense unitary of a circuit (measure/barrier treated as identity)."""
    dim = 2**c.width
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        m = gate_matrix(g)
        if m is None:
            continue
        u = _embed(m, list(g.qubits), c.width) @ u
    return u


def apply_superop(s, rho):
    """Apply a row-major superoperator: vec(A X B) = kron(A, B.T) vec(X)."""
    d = rho.shape[0]
    return (s @ rho.reshape(d * d)).reshape(d, d)


def choi(s):
    """Choi matrix sum_{k,l} E(|k><l|) (x) |k><l| of the channel E with superoperator s."""
    d = math.isqrt(s.shape[0])
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            out += np.kron(apply_superop(s, unit), unit)
    return out


def equal_up_to_phase(a, b, tol=1e-12):
    """max |c*a - b| <= tol for the best unit-modulus phase c."""
    a = np.asarray(a)
    b = np.asarray(b)
    overlap = np.sum(a.conj() * b)
    if abs(overlap) < 1e-14:
        return False
    c = overlap / abs(overlap)
    return bool(np.max(np.abs(c * a - b)) <= tol)


# ---------------------------------------------------------------------------
# circuit generators


def random_circuit(rng, n_qubits, n_gates, u3_only=False, with_measure=True):
    """Random well-formed circuit over the compiler's input kinds."""
    specs = []
    kinds = ["u3"] if u3_only else ["u3", "rz", "sx", "sxdg", "ecr", "barrier"]
    for _ in range(n_gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "ecr" and n_qubits < 2:
            kind = "sx"
        if kind == "u3":
            specs.append(("u3", (int(rng.integers(n_qubits)),), tuple(rng.uniform(-2 * np.pi, 2 * np.pi, 3))))
        elif kind == "rz":
            specs.append(("rz", (int(rng.integers(n_qubits)),), (float(rng.uniform(-2 * np.pi, 2 * np.pi)),)))
        elif kind == "ecr":
            a, b = rng.choice(n_qubits, size=2, replace=False)
            specs.append(("ecr", (int(a), int(b)), ()))
        elif kind == "barrier":
            if n_qubits >= 2 and rng.integers(2):
                a, b = rng.choice(n_qubits, size=2, replace=False)
                specs.append(("barrier", (int(a), int(b)), ()))
            else:
                specs.append(("barrier", (int(rng.integers(n_qubits)),), ()))
        else:
            specs.append((kind, (int(rng.integers(n_qubits)),), ()))
    if with_measure and rng.integers(2):
        specs.append(("measure", (int(rng.integers(n_qubits)),), ()))
    gates = tuple(Gate(id=i, kind=k, qubits=q, angles=a) for i, (k, q, a) in enumerate(specs))
    return Circuit(width=n_qubits, gates=gates)


def stretched_pair(c, gs):
    """The FIXED and OPTIMIZED arms of a lowered circuit, built as ``run_rb`` builds them."""
    g = minimum_duration_graph(c, gs)
    fixed = create_schedule(g, gs)
    optimize_durations(g, gs, FREE_FLOAT)
    return fixed, stretched_schedule(fixed, g, gs)


def assert_arms_equal_runs(simulator, arms, validate_states=False):
    """``run_arms`` gives each arm the bits that a fresh simulator's ``run`` of it alone gives."""
    seeds = tuple(range(11, 11 + len(arms)))
    got = simulator.run_arms(arms, 64, seeds, validate_states)
    alone = ScheduleSimulator(simulator.nm, ideal_pulses=simulator.ideal_pulses)
    want = [alone.run(sch, 64, seed, validate_states) for sch, seed in zip(arms, seeds)]
    assert [repr(r) for r in got] == [repr(r) for r in want]


def schedule_fields_of(sch):
    """Every field of a schedule, waveforms in insertion order: ``to_json()``
    equality ignores the order of the waveform dict."""
    return sch.width, sch.makespan, sch.placements, sch.frames, list(sch.waveforms.items()), sch.measured_qubits


#: transcription of the worked two-qubit example: a three-gate chain runs on
#: qubit 0 against one gate on qubit 1 before the first ECR (idle 128 dt),
#: then a two-gate chain against one gate before the second ECR (idle 64 dt)
FIG2_TEXT = """\
sx q0
sx q0
sx q0
sx q1      # first stretchable gate on qubit 1
ecr q0 q1
sx q0
sx q0
sx q1      # second stretchable gate on qubit 1
ecr q0 q1
sx q0
"""


@pytest.fixture
def fig2_circuit():
    from pulsesched.circuit import parse_circuit

    return parse_circuit(FIG2_TEXT)
