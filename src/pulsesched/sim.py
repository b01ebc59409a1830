"""Three-level (qutrit) density-matrix pulse simulator with decoherence.

Drive samples act through the transmon-ladder control Hamiltonian

    H_k = alpha |2><2| + (w_I/2)(X01 + sqrt2 X12) + (w_Q/2)(Y01 + sqrt2 Y12)

with w_{I,Q} = 4*pi * rabi_coefficient * sample (rad/s); the 4*pi matches the
cos^2 Rabi-fit convention, so a fit at amplitude a returns rabi_coefficient*a
in Hz.  Decoherence is applied per whole gate/idle segment as the exact
exponential of a Lindblad generator (amplitude damping 1->0 and 2->1 at the
same T1, pure dephasing on the 0-1 subspace at 1/Tphi = 1/T2 - 1/(2 T1)).

Between pulses a qubit evolves under the bare anharmonicity alpha |2><2|
(the undriven H_k) as well as decoherence, so leaked population keeps the
phase it would gain under a zero-amplitude pulse of the same length.  The
dissipative generator commutes with the bare anharmonicity term, so an idle
is exactly decoherence composed with that phase, and segment granularity
loses nothing.  ``idle_channel`` is the decoherence part alone, and it is
both the idle decay and the in-gate decay: inside a gate the phase is
already in the propagated waveform.

Channels are plain superoperator arrays (9x9 for one qutrit, 81x81 for a
pair) in the row-major vec convention, so composing two is ``@``; the
builders form their Kronecker products by broadcasting.

The state holds rho interleaved: one axis of nine (r_q, c_q) entries per
qubit, in qubit order, so qubit q's row and column index sit side by side.
A 9x9 superop in the row-major vec convention acts on that axis as it
stands, and a 1q channel is one matmul on the (9**q, 9, rest) view of the
state, with no transpose.  A pair channel is permuted into the layout
once, when the simulator caches it; an adjacent pair is then one 81x81
matmul, and a non-adjacent pair keeps one transpose.

``ScheduleSimulator.run_arms`` walks k schedules that share one skeleton
(the fixed and stretched arms of one circuit) in one pass.  The state then
carries a leading arm axis, shape (k, 9**width), and ``contract_arms``
contracts a channel into every arm at once: one channel broadcast over the
axis where the arms agree, a (k, ...) stack of per-arm channels where they
do not.  Each arm's slice takes the product a lone state would take, so
every arm gets the bits a run of its schedule alone gives.

Virtual Z rotations are diagonal superops.  A calibrated pulse's pre/post
frames are fixed by its gate-set row, so they are multiplied into the
pulse's channel once, when it is cached; the circuit's own frame shifts
sum per qubit and fold into that qubit's next channel.  The frame sum is
then one float that every arm shares, and the only per-arm state of the
walk is a qubit's clock and its pending channel.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.linalg import expm

from .errors import ConfigError, NoiseConfigError, SimulationError, check_count
from .pulses import DT_NS, ShapeSpec, Waveform, synthesize
from .schedule import FrameShift, PulsePlacement, Schedule

# ---------------------------------------------------------------------------
# operators

X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
X12 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
Y01 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
Y12 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
P2 = np.diag([0.0, 0.0, 1.0]).astype(complex)

_I3 = np.eye(3, dtype=complex)

#: one sample, in seconds
_DT_S = DT_NS * 1e-9

#: widest schedule the dense qutrit simulator runs (rho holds 9**w entries)
MAX_SIM_QUBITS = 5

#: ideal echoed cross-resonance unitary on the two-qubit subspace,
#: (1/sqrt2) (I(x)X - X(x)Y), control qubit in the first tensor slot.
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
ECR_2Q = (np.kron(np.eye(2), _X) - np.kron(_X, _Y)) / math.sqrt(2)


def ideal_rx(theta: float) -> np.ndarray:
    """2x2 x-rotation, the fine-tune target for drive pulses."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def embed_qubit_pair(u4: np.ndarray) -> np.ndarray:
    """Embed a two-qubit unitary into the qutrit pair space, identity on leakage."""
    out = np.eye(9, dtype=complex)
    idx = [0, 1, 3, 4]  # |00>,|01>,|10>,|11> in base-3 pair labels
    out[np.ix_(idx, idx)] = u4
    return out


# ---------------------------------------------------------------------------
# noise model


def _is_number(value) -> bool:
    """An int or float (numpy's float64 is one) that ``float`` takes: not a
    bool, nor an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _per_qubit(value, qubit):
    if qubit < 0:
        raise NoiseConfigError(f"no qubit {qubit}: qubit indices start at 0")
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        return float(value)
    if qubit >= len(value):
        raise NoiseConfigError(f"per-qubit noise list of {len(value)} has no entry for qubit {qubit}")
    return None if value[qubit] is None else float(value[qubit])


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit decoherence and drive parameters.

    T1/T2 are in ns; ``None`` (or inf) disables the corresponding decay.
    ``rabi_coefficient_hz`` is the fitted Rabi frequency per unit drive
    amplitude.  ``ecr_fidelity`` sets the depolarizing strength proxy
    1 - fidelity applied around the ideal two-qubit unitary.  Each
    per-qubit field is None, a number, or a list or tuple of those, one
    per qubit; ``ecr_fidelity`` is a number.  A bool or a string is no
    number, and any other value raises ``NoiseConfigError``.
    """

    t1_ns: object = 180_000.0
    t2_ns: object = 120_000.0
    anharmonicity_hz: object = -330e6
    rabi_coefficient_hz: object = 1.05e8
    ecr_fidelity: float = 0.99

    def __post_init__(self):
        if not _is_number(self.ecr_fidelity):
            raise NoiseConfigError(f"ecr_fidelity must be a number, got {self.ecr_fidelity!r:.80}")
        if not 0.0 <= self.ecr_fidelity <= 1.0:
            raise NoiseConfigError("ecr_fidelity must lie in [0, 1]")
        n = 1
        for name in ("t1_ns", "t2_ns", "anharmonicity_hz", "rabi_coefficient_hz"):
            v = getattr(self, name)
            if isinstance(v, (list, tuple)) and all(x is None or _is_number(x) for x in v):
                n = max(n, len(v))
            elif not (v is None or _is_number(v)):
                raise NoiseConfigError(f"{name} must be a number, null or a list of those, got {v!r:.80}")
        for q in range(n):
            t1, t2 = self.t1(q), self.t2(q)
            for name, t in (("T1", t1), ("T2", t2)):
                if not t > 0:
                    raise NoiseConfigError(f"qubit {q}: {name}={t} ns must be positive (None for no decay)")
            if math.isfinite(t2) and t2 > 2.0 * t1 + 1e-9:
                raise NoiseConfigError(f"qubit {q}: T2={t2} exceeds 2*T1={2*t1}")
            alpha, kappa = self.anharmonicity(q), self.rabi_coefficient(q)
            if alpha is None or not math.isfinite(alpha) or alpha == 0.0:
                raise NoiseConfigError(f"qubit {q}: anharmonicity {alpha} Hz must be finite and nonzero")
            if kappa is None or not (math.isfinite(kappa) and kappa > 0):
                raise NoiseConfigError(f"qubit {q}: Rabi coefficient {kappa} Hz must be finite and positive")

    def t1(self, qubit: int) -> float:
        v = _per_qubit(self.t1_ns, qubit)
        return math.inf if v is None else v

    def t2(self, qubit: int) -> float:
        v = _per_qubit(self.t2_ns, qubit)
        return math.inf if v is None else v

    def anharmonicity(self, qubit: int) -> float:
        return _per_qubit(self.anharmonicity_hz, qubit)

    def rabi_coefficient(self, qubit: int) -> float:
        return _per_qubit(self.rabi_coefficient_hz, qubit)

    @classmethod
    def noiseless(cls, anharmonicity_hz=-330e6, rabi_coefficient_hz=1.05e8):
        return cls(
            t1_ns=None,
            t2_ns=None,
            anharmonicity_hz=anharmonicity_hz,
            rabi_coefficient_hz=rabi_coefficient_hz,
            ecr_fidelity=1.0,
        )

    @classmethod
    def from_json(cls, data) -> "NoiseModel":
        """Model from a JSON object of field names; missing fields keep their defaults."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise NoiseConfigError("noise model must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise NoiseConfigError(f"unknown noise model keys: {', '.join(sorted(unknown))}")
        return cls(**data)


# ---------------------------------------------------------------------------
# unitary propagation

_SQRT2 = math.sqrt(2)
_HX = X01 + _SQRT2 * X12
_HY = Y01 + _SQRT2 * Y12


def hamiltonian_sample(sample, rabi_coefficient_hz: float, anharmonicity_hz: float):
    w_i = 4.0 * math.pi * rabi_coefficient_hz * sample.real
    w_q = 4.0 * math.pi * rabi_coefficient_hz * sample.imag
    return (
        2.0 * math.pi * anharmonicity_hz * P2 + 0.5 * w_i * _HX + 0.5 * w_q * _HY
    )


def propagate_waveform(w: Waveform, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Product of per-sample matrix exponentials; exact for piecewise-constant drive.

    ``hamiltonian_sample`` of the (n, 1, 1) sample array builds every
    sample's H_k, and one stacked ``eigh`` diagonalizes them.  The steps
    then multiply pairwise, later step on the left: an odd head folds into
    its neighbour, and ``steps[1::2] @ steps[0::2]`` halves the stack until
    one step is left, so n samples take about log2(n) stacked matmuls.
    """
    if w.duration == 0:
        return _I3.copy()
    h = hamiltonian_sample(w.samples[:, None, None], nm.rabi_coefficient(qubit), nm.anharmonicity(qubit))
    evals, evecs = np.linalg.eigh(h)
    steps = (evecs * np.exp(-1j * evals * _DT_S)[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    while len(steps) > 1:
        if len(steps) % 2:
            steps[1] = steps[1] @ steps[0]
            steps = steps[1:]
        steps = steps[1::2] @ steps[0::2]
    return steps[0]


# ---------------------------------------------------------------------------
# superoperators (row-major vec: vec(A X B) = kron(A, B.T) vec(X))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices as one broadcast product.

    Every entry is the same single product a[i, j] * b[k, l] that
    ``np.kron`` forms, without its per-call shape handling.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def unitary_superop(u: np.ndarray) -> np.ndarray:
    return _kron(u, u.conj())


def _lindblad_superop(jumps):
    """Dissipator of the given qutrit jump operators."""
    gen = np.zeros((9, 9), dtype=complex)
    for L in jumps:
        ldl = L.conj().T @ L
        gen += _kron(L, L.conj())
        gen -= 0.5 * (_kron(ldl, _I3) + _kron(_I3, ldl.T))
    return gen


def _jump_operators(t1_ns: float, t2_ns: float):
    jumps = []
    if math.isfinite(t1_ns):
        t1_s = t1_ns * 1e-9
        l10 = np.zeros((3, 3), dtype=complex)
        l10[0, 1] = 1.0
        l21 = np.zeros((3, 3), dtype=complex)
        l21[1, 2] = 1.0
        jumps += [l10 / math.sqrt(t1_s), l21 / math.sqrt(t1_s)]
    gamma_phi = 0.0
    if math.isfinite(t2_ns):
        gamma_phi = 1.0 / (t2_ns * 1e-9)
        if math.isfinite(t1_ns):
            gamma_phi -= 1.0 / (2.0 * t1_ns * 1e-9)
    if gamma_phi > 0:
        jumps.append(math.sqrt(gamma_phi / 2.0) * np.diag([1.0, -1.0, 0.0]).astype(complex))
    return jumps


def dissipative_generator(nm: NoiseModel, qubit: int) -> np.ndarray:
    """Decoherence-only Lindblad generator: amplitude damping down the ladder
    plus pure dephasing.  Both idle periods and the in-gate decay use it, so
    idle channels form an exact one-parameter semigroup in the duration."""
    return _lindblad_superop(_jump_operators(nm.t1(qubit), nm.t2(qubit)))


def idle_channel(duration_dt: float, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Pure decoherence over duration_dt samples, with no Hamiltonian phase.

    It is also the in-gate decay.  A full idle carries the anharmonic phase
    of ``anharmonic_unitary`` too; ``ScheduleSimulator`` composes the two.
    """
    if duration_dt < 0:
        raise ValueError("idle duration must be non-negative")
    return expm(duration_dt * _DT_S * dissipative_generator(nm, qubit))


def anharmonic_unitary(duration_dt: float, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Undriven evolution exp(-i 2 pi alpha t |2><2|) over duration_dt samples."""
    phase = 2.0 * math.pi * nm.anharmonicity(qubit) * duration_dt * _DT_S
    return np.diag([1.0, 1.0, np.exp(-1j * phase)])


def gate_channel(w: Waveform, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Unitary conjugation by the propagated waveform, then segment decoherence."""
    u = propagate_waveform(w, nm, qubit)
    return idle_channel(w.duration, nm, qubit) @ unitary_superop(u)


def _pair_superop(s_a: np.ndarray, s_b: np.ndarray) -> np.ndarray:
    """Tensor two single-qutrit superops into one pair superop."""
    ra = s_a.reshape(3, 3, 3, 3)
    rb = s_b.reshape(3, 3, 3, 3)
    return np.einsum("abij,cdkl->acbdikjl", ra, rb).reshape(81, 81)


#: n - m for each (n, m) level pair, in row-major vec order.  A virtual Rz
#: advances level n by n*angle, so its superop is the diagonal
#: exp(1j * angle * _LEVEL_GAPS).
_LEVEL_GAPS = np.subtract.outer(np.arange(3), np.arange(3)).ravel()
_EYE9 = np.eye(9, dtype=complex)


_PAULI3 = [
    np.diag([1.0, 1.0, 1.0]).astype(complex),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 1]], dtype=complex),
    np.diag([1.0, -1.0, 1.0]).astype(complex),
]


def _pauli_twirl_sum() -> np.ndarray:
    """Sum of P ⊗ conj(P) over the 16 two-qubit Paulis P, identity on leakage levels."""
    mix = np.zeros((81, 81), dtype=complex)
    for pa in _PAULI3:
        for pb in _PAULI3:
            p = _kron(pa, pb)
            mix += _kron(p, p.conj())
    return mix


#: the noise-independent part of every ECR's depolarizing proxy, built once
_PAULI_TWIRL_SUM = _pauli_twirl_sum()


def _depolarizing_pair_superop(strength: float) -> np.ndarray:
    """Two-qubit Pauli twirl of given strength, identity on leakage levels."""
    return (1.0 - strength) * np.eye(81) + (strength / 16.0) * _PAULI_TWIRL_SUM


def ecr_channel(nm: NoiseModel, qubits: tuple[int, int], duration_dt: int) -> np.ndarray:
    """Ideal embedded ECR unitary, depolarizing proxy, and segment decoherence."""
    unit = unitary_superop(embed_qubit_pair(ECR_2Q))
    dep = _depolarizing_pair_superop(1.0 - nm.ecr_fidelity)
    dec = _pair_superop(
        idle_channel(duration_dt, nm, qubits[0]),
        idle_channel(duration_dt, nm, qubits[1]),
    )
    return dec @ dep @ unit


def pair_layout(superop: np.ndarray, qubits: tuple[int, int]) -> np.ndarray:
    """A row-major vec pair superop on ``qubits`` in the state layout.

    ``superop`` indexes (r_a r_b c_a c_b) for ``qubits = (a, b)``; the
    result indexes (r c of the lower qubit, r c of the higher one) on both
    sides, as ``contract_arms`` takes it with the operands in ascending
    order.
    """
    p = (0, 2, 1, 3) if qubits[0] < qubits[1] else (1, 3, 0, 2)
    return superop.reshape((3,) * 8).transpose(*p, *(4 + i for i in p)).reshape(81, 81)


# ---------------------------------------------------------------------------
# state and schedule execution


@lru_cache(maxsize=None)
def _bitstrings(width: int) -> tuple[str, ...]:
    return tuple("".join(bits) for bits in product("01", repeat=width))


def contract_arms(data: np.ndarray, superop: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Contract a 9**m superop in the state layout into ``qubits`` of k states.

    ``data`` holds one state of ``width`` qubits per arm, shape (k,
    9**width).  ``superop`` is one (9**m, 9**m) channel, broadcast over the
    arm axis, or a (k, 9**m, 9**m) stack of one channel per arm.  The
    operands ascend, and ``superop`` indexes their (row, col) axes in that
    order (``pair_layout`` permutes a pair channel into it).  One qubit or
    an adjacent pair is one matmul on the (k, outer, 9**m, inner) view of
    the states, or a right multiply when nothing follows the operands; a
    non-adjacent pair transposes its second axis next to its first and back.
    Every arm's slice is the product one state alone would take.
    """
    k, n = len(data), superop.shape[-1]
    lo, hi = qubits[0], qubits[-1]
    gap = 9 ** max(hi - lo - 1, 0)
    inner = 9 ** (width - hi - 1)
    if gap == 1 and inner == 1:
        return (data.reshape(k, -1, n) @ superop.swapaxes(-1, -2)).reshape(k, -1)
    s = superop[:, None] if superop.ndim == 3 else superop
    if gap == 1:
        return (s @ data.reshape(k, -1, n, inner)).reshape(k, -1)
    rho = data.reshape(k, 9**lo, 9, gap, 9, inner).transpose(0, 1, 2, 4, 3, 5)
    rho = s @ rho.reshape(k, 9**lo, 81, gap * inner)
    return rho.reshape(k, 9**lo, 9, 9, gap, inner).transpose(0, 1, 2, 4, 3, 5).reshape(k, -1)


@dataclass
class DensityState:
    """Density operator over the tensor product of per-qubit 3-level spaces.

    ``data`` is rho in the interleaved layout: a flat array of 9**width
    entries whose axes, in qubit order, each run over one qubit's nine
    (row, col) level pairs in row-major order.  ``from_matrix`` and
    ``matrix`` convert to and from the usual 3**width square matrix.
    """

    width: int
    data: np.ndarray = None

    def __post_init__(self):
        if self.data is None:
            self.data = np.zeros(9**self.width, dtype=complex)
            self.data[0] = 1.0

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "DensityState":
        width = round(math.log(len(rho), 3))
        if rho.shape != (3**width, 3**width):
            raise ValueError(f"a density matrix over qutrits is 3**w square, got {rho.shape}")
        perm = [a for q in range(width) for a in (q, width + q)]
        return cls(width, rho.reshape((3,) * (2 * width)).transpose(perm).reshape(-1))

    def matrix(self) -> np.ndarray:
        w = self.width
        perm = [*range(0, 2 * w, 2), *range(1, 2 * w, 2)]
        return self.data.reshape((3,) * (2 * w)).transpose(perm).reshape(3**w, 3**w)

    def validate(self):
        rho = self.matrix()
        if not np.isfinite(rho).all():
            raise SimulationError("state holds a non-finite entry")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise SimulationError("state lost Hermiticity")
        evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if evals.min() < -1e-8:
            raise SimulationError(f"state not PSD (min eigenvalue {evals.min():.3e})")
        trace = rho.trace().real
        if abs(trace - 1.0) > 1e-10:
            raise SimulationError(f"state trace {trace!r} is not 1")

    def apply_local_unitary(self, u: np.ndarray, qubits: tuple[int, ...]):
        s = unitary_superop(u)
        if len(qubits) == 2:
            s, qubits = pair_layout(s, qubits), tuple(sorted(qubits))
        self.apply_local_superop(s, qubits)

    def apply_local_superop(self, superop: np.ndarray, qubits: tuple[int, ...]):
        """Contract a 9**k superop in the state layout into ``qubits``
        (``contract_arms`` on this one state)."""
        self.data = contract_arms(self.data[None], superop, qubits, self.width)[0]

    def probabilities(self) -> dict[str, float]:
        """Bitstring distribution; leakage level 2 reads out as 'not |0>' = 1.

        The diagonal is entries 0, 4 and 8 (the (n, n) level pairs) of
        every qubit's axis; levels 1 and 2 are summed into bit 1 one axis
        at a time.
        """
        w = self.width
        p = self.data.real.reshape((9,) * w)[(slice(None, None, 4),) * w]
        for axis in range(w):
            p = np.add.reduceat(p, [0, 1], axis=axis)
        return dict(zip(_bitstrings(w), p.ravel().tolist()))

    def p_zero(self) -> float:
        return float(self.data[0].real)


@dataclass(frozen=True)
class RunResult:
    p0: float
    probabilities: dict[str, float]
    counts: dict[str, int]
    shots: int


class ScheduleSimulator:
    """Caches channels across many runs, keyed by (spec number, qubit, None,
    pre, post) for pulses, (gap, qubit) for idles and (qubits, duration)
    for ECRs.

    A schedule carries each pulse as its ``ShapeSpec``; the pulse channel
    builder synthesizes the samples, so a pulse is sampled once per cache
    miss and never on a hit.  A pulse's key is built from what its channel
    is built from, not from its waveform id: each run numbers its
    schedules' specs once, one number per distinct spec this simulator has
    seen, so two schedules that name different pulses alike each play
    their own.  A pulse's channel is Z(post) G Z(pre): its placement's
    calibration frames ride in the cached channel, and the walk never adds
    them to a frame sum.

    A gap of t dt between a qubit's pulses acts as ``idle_channel`` (decay)
    after ``anharmonic_unitary`` (the level-2 phase of bare evolution), the
    same map as playing a zero-amplitude waveform of t samples.

    With ideal_pulses=True every drive pulse acts as its exact nominal
    rotation over its duration (decoherence still applies, and nothing is
    synthesized), and each placement's ``pre_frame`` and ``post_frame`` are
    skipped (its key holds 0 for both), since they only null the integrated
    pulse's phase error; the circuit's own virtual Rz frames
    (``Schedule.frames``) still apply.  A pulse's key then holds its
    placement's angle in place of None.  This isolates decoherence and
    scheduling effects from pulse-integration error, and makes noiseless
    randomized-benchmarking sequences compose to the identity exactly.

    Operations on different qubits commute, so each qubit's idles and
    pulses fold into one pending 9x9 channel in that qubit's event order.
    The state is only formed when an ECR flushes its operands' channels and
    applies itself, and at the final flush; ``validate_states`` checks the
    state after each of those contractions.  A frame shift settles its
    qubit's clock (folds the idle up to its time, as a pulse or ECR does
    at its start) and adds its angle to the qubit's frame sum, which folds
    into the qubit's next channel as one diagonal.  The frames behind a
    qubit's last pulse cannot change Z-basis populations and leave the
    walk first, so every frame kept is consumed by a later pulse or ECR.
    A frame that falls inside a pulse leaves that pulse's clock as it is,
    and so acts after it.  ECR channels are cached already permuted into
    the state layout (``pair_layout``).

    ``run_arms`` walks k schedules in one pass, and ``run`` is its one-arm
    case.  The arms must share one skeleton: equal width, makespan and
    event count, and ``events()`` (less their trailing frames) that zip
    step by step.  A step equal in every arm is shared: it folds one
    channel or makes one contraction, broadcast over the state's arm axis,
    and a pulse it names must be the same ``ShapeSpec`` in every arm.  Every
    frame shift must be shared.  A step that differs, such as a stretched
    pulse, must be a 1q pulse that agrees on ``seq``, qubits, start and kind
    (an ECR never stretches, so it must be one step of every arm); each arm
    folds its own channel, after the frame sum all arms share.  That
    qubit's clock is then per-arm until its next event settles it, and its
    pending channel per-arm until the next flush; a frame that falls inside
    the stretched pulse of some arm raises.  Zipped steps keep every
    qubit's event order, so each arm gets the bits a run of its schedule
    alone gives.  Any other difference raises ``SimulationError``.
    """

    def __init__(self, nm: NoiseModel, *, ideal_pulses: bool = False):
        self.nm = nm
        self.ideal_pulses = ideal_pulses
        self._channels: dict = {}
        self._spec_numbers: dict[ShapeSpec, int] = {}

    def _channel(self, key, build, *args) -> np.ndarray:
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = build(*args)
        return ch

    def _spec_keys(self, sch: Schedule) -> dict[str, int]:
        """Each waveform id of ``sch`` -> the number of its ShapeSpec."""
        numbers = self._spec_numbers
        return {wid: numbers.setdefault(spec, len(numbers)) for wid, spec in sch.waveforms.items()}

    def _pulse_superop(self, spec: ShapeSpec, qubit: int, angle: float, pre: float, post: float) -> np.ndarray:
        """The pulse's channel between its calibration frames: Z(post) G Z(pre)."""
        if self.ideal_pulses:
            u = np.eye(3, dtype=complex)
            u[:2, :2] = ideal_rx(angle)
            g = idle_channel(spec.duration, self.nm, qubit) @ unitary_superop(u)
        else:
            g = gate_channel(synthesize(spec), self.nm, qubit)
        return np.exp(1j * post * _LEVEL_GAPS)[:, None] * g * np.exp(1j * pre * _LEVEL_GAPS)

    def _idle_superop(self, gap: int, qubit: int) -> np.ndarray:
        decay = idle_channel(gap, self.nm, qubit)
        return decay @ unitary_superop(anharmonic_unitary(gap, self.nm, qubit))

    def _ecr_superop(self, qubits: tuple[int, int], duration: int) -> np.ndarray:
        return pair_layout(ecr_channel(self.nm, qubits, duration), qubits)

    def run(self, sch: Schedule, shots: int = 1024, seed=None, validate_states: bool = False) -> RunResult:
        """Propagate one schedule and sample ``shots`` outcomes: ``run_arms`` of one arm."""
        return self.run_arms((sch,), shots, (seed,), validate_states)[0]

    def run_arms(self, schedules, shots: int, seeds, validate_states: bool = False) -> list[RunResult]:
        """Propagate k schedules of one skeleton in one walk, and sample
        ``shots`` outcomes of each from its own seed; one result per arm, in order."""
        check_count("shots", shots, 0)
        k = len(schedules)
        if k == 0 or len(seeds) != k:
            raise ConfigError(f"{k} schedule(s) need one seed each, got {len(seeds)}")
        width, makespan = schedules[0].width, schedules[0].makespan
        if any(sch.width != width or sch.makespan != makespan for sch in schedules):
            raise SimulationError("arms differ in width or makespan")
        if width > MAX_SIM_QUBITS:
            raise SimulationError(f"dense qutrit simulation capped at {MAX_SIM_QUBITS} qubits, got {width}")
        if width == 0:
            return [RunResult(p0=1.0, probabilities={"": 1.0}, counts={"": shots}, shots=shots) for _ in schedules]
        # the frames behind each qubit's last pulse cannot change Z-basis
        # populations, and a stretched arm retimes them: they leave the walk
        walks = [_without_trailing_frames(sch.events(), width) for sch in schedules]
        if any(len(walk) != len(walks[0]) for walk in walks):
            raise SimulationError("arms differ in event count")
        keys = [self._spec_keys(sch) for sch in schedules]
        specs = [sch.waveforms for sch in schedules]
        # waveform ids that name another spec in some arm than in arm 0
        clash = {wid for arm in keys[1:] for wid, n in arm.items() if keys[0].get(wid, n) != n}
        ideal = self.ideal_pulses
        data = np.zeros((k, 9**width), dtype=complex)
        data[:, 0] = 1.0
        # per qubit: the clock, one time or (after a stretched pulse) a tuple
        # of one per arm; the frame sum every arm shares; the pending channel
        t_last: list = [0] * width
        frame = [0.0] * width
        pending: list[np.ndarray | None] = [None] * width  # (9, 9) for every arm, or (k, 9, 9)

        def fold(q, s):
            """Fold channel s, or a list of one per arm (None: nothing), after q's frame sum.

            A list comes with a stretched pulse, or with the idles after
            one; a None only with the idles, when every arm holds a pending
            channel and no frame sum is left.
            """
            f, p = frame[q], pending[q]
            if f:
                z = np.exp(1j * f * _LEVEL_GAPS)
                s = [x * z for x in s] if type(s) is list else s * z
                frame[q] = 0.0
            if type(s) is not list:
                pending[q] = s if p is None else s @ p
                return
            ps = [None] * k if p is None else p if p.ndim == 3 else [p] * k
            pending[q] = np.array([y if x is None else x if y is None else x @ y for x, y in zip(s, ps)])

        def contract(s, qubits):
            nonlocal data
            data = contract_arms(data, s, qubits, width)
            if validate_states:
                for rho in data:
                    DensityState(width, rho).validate()

        def flush(q):
            if pending[q] is not None:
                contract(pending[q], (q,))
                pending[q] = None

        def idle(q, gap):
            return self._channel((gap, q), self._idle_superop, gap, q)

        def idle_to(q, t):
            """Fold q's idle up to t.  A frame inside a pulse every arm
            shares leaves the clock as it is; inside a stretched one it raises."""
            last = t_last[q]
            if type(last) is tuple:
                if max(last) > t:
                    raise SimulationError(f"qubit {q}: a frame at {t} falls inside a stretched pulse")
                fold(q, [idle(q, t - x) if t > x else None for x in last])
                t_last[q] = t
            elif t > last:
                fold(q, idle(q, t - last))
                t_last[q] = t

        def pulse(a, ev):
            q, wid = ev.qubits[0], ev.waveform_id
            pre, post = (0.0, 0.0) if ideal else (ev.pre_frame, ev.post_frame)
            key = (keys[a][wid], q, ev.angle if ideal else None, pre, post)
            return self._channel(key, self._pulse_superop, specs[a][wid], q, ev.angle, pre, post)

        for evs in zip(*walks):
            ev = evs[0]
            shared = evs.count(ev) == k
            if not shared:
                _check_skeleton(evs)
            if type(ev) is FrameShift:
                idle_to(ev.qubit, ev.time)
                frame[ev.qubit] += ev.angle
                continue
            for q in ev.qubits:
                idle_to(q, ev.start)
            if ev.kind == "ecr":
                for q in ev.qubits:
                    if frame[q]:
                        fold(q, _EYE9)
                    flush(q)
                s = self._channel((ev.qubits, ev.duration), self._ecr_superop, ev.qubits, ev.duration)
                contract(s, tuple(sorted(ev.qubits)))
            elif shared:
                if ev.waveform_id in clash:
                    raise SimulationError(f"arms name different pulses {ev.waveform_id!r}")
                fold(ev.qubits[0], pulse(0, ev))
            else:
                fold(ev.qubits[0], [pulse(a, e) for a, e in enumerate(evs)])
            end = ev.start + ev.duration if shared else tuple(e.start + e.duration for e in evs)
            for q in ev.qubits:
                t_last[q] = end
        for q in range(width):
            idle_to(q, makespan)
            flush(q)

        results = []
        for rho, seed in zip(data, seeds):
            state = DensityState(width, rho)
            probs = state.probabilities()
            pvec = np.clip(np.array(list(probs.values())), 0.0, None)
            total = pvec.sum()
            if total <= 0:
                raise SimulationError("state has no measurable population")
            draws = np.random.default_rng(seed).multinomial(shots, pvec / total)
            counts = {key: int(n) for key, n in zip(probs, draws) if n > 0}
            results.append(RunResult(p0=state.p_zero(), probabilities=probs, counts=counts, shots=shots))
        return results


def _without_trailing_frames(events, width):
    """``events`` less the frame shifts behind their qubit's last pulse."""
    pulsed = [False] * width
    kept = []
    for ev in reversed(events):
        if type(ev) is not FrameShift:
            for q in ev.qubits:
                pulsed[q] = True
        elif not pulsed[ev.qubit]:
            continue
        kept.append(ev)
    return kept[::-1]


def _check_skeleton(evs):
    """Raise unless zipped steps that differ are one 1q pulse of every arm,
    alike in ``seq``, qubits, start and kind."""
    ev = evs[0]
    if not (type(ev) is PulsePlacement and ev.kind != "ecr" and all(
            type(e) is PulsePlacement and (e.seq, e.qubits, e.start, e.kind) == (ev.seq, ev.qubits, ev.start, ev.kind)
            for e in evs)):
        raise SimulationError(f"arms do not share one skeleton: {evs}")


# ---------------------------------------------------------------------------
# Rabi characterization data


@dataclass(frozen=True)
class RabiData:
    amplitude: float
    times_s: np.ndarray
    p0: np.ndarray


def simulate_rabi(amplitudes, nm: NoiseModel, qubit: int = 0, window_dt: int | None = None) -> list[RabiData]:
    """Drive a square pulse at each amplitude and record the |0> population.

    Without an explicit window each amplitude is observed over the
    4*pi-rotation time of its magnitude (two full population oscillations);
    -a gives the same window and curve as a.

    Decay is lumped as in ``gate_channel``: the state at time t is the
    square pulse's unitary U(t)|0>, then ``expm(t * gen)`` of the
    dissipative generator.  The 201 times are evenly spaced, so each
    amplitude takes one ``eigh`` of H for every U(t) and one ``expm`` of
    the time step E; the rows e0^T E^i for all i come from repeated
    squaring, and P(0) is one contraction of those rows with vec(rho(t)).
    The generator is not diagonalized: equal 1->0 and 2->1 decay rates make
    it defective.
    """
    if window_dt is not None and window_dt <= 0:
        raise ConfigError(f"Rabi window must be a positive dt count, got {window_dt}")
    for a in amplitudes:
        if not (math.isfinite(a) and abs(a) <= 1.0):
            raise ConfigError(f"Rabi amplitude {a!r} must be finite with magnitude at most 1")
    points = 201
    out = []
    gen = dissipative_generator(nm, qubit)
    kappa = nm.rabi_coefficient(qubit)
    alpha = nm.anharmonicity(qubit)
    for a in amplitudes:
        if window_dt is not None:
            n_dt = int(window_dt)
        elif a != 0:
            n_dt = max(int(math.ceil(1.0 / (kappa * abs(a) * _DT_S))), points)
        else:
            n_dt = points
        times_s = np.linspace(0.0, n_dt, points) * _DT_S
        evals, evecs = np.linalg.eigh(hamiltonian_sample(complex(a), kappa, alpha))
        # U(t)|0> for every t, stacked: (points, 3)
        psi = (evecs * np.exp(-1j * np.multiply.outer(times_s, evals))[:, None, :]) @ evecs[0].conj()
        # rows e0^T E^i, i < points, doubling the prefix with E^(2^k)
        rows = np.eye(1, 9, dtype=complex)
        power = expm(times_s[1] * gen)
        while len(rows) < points:
            rows = np.concatenate([rows, rows @ power])
            power = power @ power
        p0s = np.einsum("tij,ti,tj->t", rows[:points].reshape(points, 3, 3), psi, psi.conj()).real
        out.append(RabiData(amplitude=float(a), times_s=times_s, p0=p0s))
    return out


def write_rabi_csv(datasets: list[RabiData], path):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["amplitude", "time_ns", "p0"])
        for d in datasets:
            for t, y in zip(d.times_s, d.p0):
                out.writerow([repr(d.amplitude), repr(float(t * 1e9)), repr(float(y))])
