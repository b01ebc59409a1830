"""Three-level (qutrit) density-matrix pulse simulator with decoherence.

Drive samples act through the transmon-ladder control Hamiltonian

    H_k = alpha |2><2| + (w_I/2)(X01 + sqrt2 X12) + (w_Q/2)(Y01 + sqrt2 Y12)

with w_{I,Q} = 4*pi * rabi_coefficient * sample (rad/s); the 4*pi matches the
cos^2 Rabi-fit convention, so a fit at amplitude a returns rabi_coefficient*a
in Hz.  Decoherence is applied per whole gate/idle segment as the exact
exponential of a Lindblad generator (amplitude damping 1->0 and 2->1 at the
same T1, pure dephasing on the 0-1 subspace at 1/Tphi = 1/T2 - 1/(2 T1)).
That exponential has a closed form (amplitude and phase damping, Nielsen &
Chuang section 8.3), and ``idle_channel`` writes it down with no ``expm``.
``dissipative_generator`` is the definition: the tests check the closed
form against its ``expm``, and ``simulate_rabi`` exponentiates it.

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

``ScheduleSimulator.run_arms`` runs k schedules of one circuit (the fixed
and stretched arms) in one pass.  Each schedule compiles to its program,
the ordered contraction steps a run of it alone takes, and the state
carries a leading arm axis, shape (k, 9**width).  ``contract_arms``
contracts each step into every arm at once: one channel broadcast over the
axis where the arms' steps are equal, a (k, ...) stack of per-arm channels
where they are not.  Each arm's slice takes the product a lone state would
take, so every arm gets the bits a run of its schedule alone gives.

Virtual Z rotations are diagonal superops.  A calibrated pulse's pre/post
frames are fixed by its gate-set row, so they are multiplied into the
pulse's channel once, when it is cached; the circuit's own frame shifts
sum per qubit and fold into that qubit's next channel.
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
from .schedule import FrameShift, Schedule

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
                # a positive T so short that its rate 1/T overflows is refused too
                if not t * 1e-9 > 1.0 / sys.float_info.max:
                    raise NoiseConfigError(f"qubit {q}: {name}={t} ns must be positive (None for no decay)")
            if math.isfinite(t2) and t2 > 2.0 * t1 + 1e-9:
                raise NoiseConfigError(f"qubit {q}: T2={t2} exceeds 2*T1={2*t1}")
            alpha, kappa = self.anharmonicity(q), self.rabi_coefficient(q)
            if alpha is None or not math.isfinite(alpha) or alpha == 0.0:
                raise NoiseConfigError(f"qubit {q}: anharmonicity {alpha} Hz must be finite and nonzero")
            if kappa is None or not (math.isfinite(kappa) and kappa > 0):
                raise NoiseConfigError(f"qubit {q}: Rabi coefficient {kappa} Hz must be finite and positive")
            # H_k's eigenvalues are bounded by its absolute row sums; where one
            # overflows at a sample of magnitude 1, eigh fails, so refuse it
            with np.errstate(over="ignore", invalid="ignore"):
                h = hamiltonian_sample(np.array([1.0, 1j])[:, None, None], kappa, alpha)
                bounded = np.isfinite(np.abs(h).sum(axis=-1)).all()
            if not bounded:
                raise NoiseConfigError(f"qubit {q}: anharmonicity {alpha} Hz and Rabi coefficient {kappa} Hz"
                                       " overflow the drive Hamiltonian")

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


def _dephasing_rate(t1_ns: float, t2_ns: float) -> float:
    """Pure dephasing rate 1/T2 - 1/(2 T1) in 1/s, or 0 where that is not positive."""
    gamma_phi = 0.0
    if math.isfinite(t2_ns):
        gamma_phi = 1.0 / (t2_ns * 1e-9)
        if math.isfinite(t1_ns):
            gamma_phi -= 1.0 / (2.0 * t1_ns * 1e-9)
    return gamma_phi if gamma_phi > 0 else 0.0


def _jump_operators(t1_ns: float, t2_ns: float):
    jumps = []
    if math.isfinite(t1_ns):
        t1_s = t1_ns * 1e-9
        l10 = np.zeros((3, 3), dtype=complex)
        l10[0, 1] = 1.0
        l21 = np.zeros((3, 3), dtype=complex)
        l21[1, 2] = 1.0
        jumps += [l10 / math.sqrt(t1_s), l21 / math.sqrt(t1_s)]
    gamma_phi = _dephasing_rate(t1_ns, t2_ns)
    if gamma_phi > 0:
        jumps.append(math.sqrt(gamma_phi / 2.0) * np.diag([1.0, -1.0, 0.0]).astype(complex))
    return jumps


def dissipative_generator(nm: NoiseModel, qubit: int) -> np.ndarray:
    """Decoherence-only Lindblad generator: amplitude damping down the ladder
    plus pure dephasing.  ``idle_channel`` is its exact exponential in
    closed form; ``simulate_rabi`` calls ``expm`` on it."""
    return _lindblad_superop(_jump_operators(nm.t1(qubit), nm.t2(qubit)))


def _check_duration(duration_dt):
    if not 0 <= duration_dt < math.inf:
        raise SimulationError(f"duration {duration_dt!r} dt must be finite and non-negative")


def idle_channel(duration_dt: float, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Pure decoherence over duration_dt samples, with no Hamiltonian phase:
    exp(t * ``dissipative_generator``), written in closed form.

    With e = exp(-gamma t), gamma = 1/T1, level 1 decays to 0 as e and
    level 2 feeds level 1 at the same rate, so rho_22 keeps e, rho_11 gains
    gamma t e from it (the generator is defective there) and rho_00 takes
    the rest.  Each coherence decays as one exponential: half the summed
    level decay rates plus the dephasing of diag(1, -1, 0) between the two
    levels.  It is also the in-gate decay.  A full idle carries the
    anharmonic phase of ``anharmonic_unitary`` too; ``ScheduleSimulator``
    composes the two.
    """
    _check_duration(duration_dt)
    t1_ns, t2_ns = nm.t1(qubit), nm.t2(qubit)
    t = duration_dt * _DT_S
    gt = t / (t1_ns * 1e-9) if math.isfinite(t1_ns) else 0.0
    phi_t = _dephasing_rate(t1_ns, t2_ns) * t
    e = math.exp(-gt)
    c01 = math.exp(-(gt / 2 + phi_t))
    c02 = math.exp(-(gt / 2 + phi_t / 4))
    c12 = math.exp(-(gt + phi_t / 4))
    ch = np.diag([1.0, c01, c02, c01, e, c12, c02, c12, e]).astype(complex)
    fed = gt * e if e else 0.0  # no inf * 0 when gamma t overflows
    ch[0, 4] = -math.expm1(-gt)
    ch[0, 8] = ch[0, 4] - fed
    ch[4, 8] = fed
    return ch


def anharmonic_unitary(duration_dt: float, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Undriven evolution exp(-i 2 pi alpha t |2><2|) over duration_dt samples."""
    _check_duration(duration_dt)
    phase = 2.0 * math.pi * nm.anharmonicity(qubit) * duration_dt * _DT_S
    if not math.isfinite(phase):
        raise SimulationError(f"qubit {qubit}: the anharmonic phase over {duration_dt} dt overflows")
    return np.diag([1.0, 1.0, np.exp(-1j * phase)])


def gate_channel(w: Waveform, nm: NoiseModel, qubit: int = 0) -> np.ndarray:
    """Unitary conjugation by the propagated waveform, then segment decoherence."""
    u = propagate_waveform(w, nm, qubit)
    return idle_channel(w.duration, nm, qubit) @ unitary_superop(u)


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


#: the noise-independent parts of every ECR channel, built once: the twirl
#: sum T, the ideal ECR's superop U and the twirled ECR T U
_PAULI_TWIRL_SUM = _pauli_twirl_sum()
_ECR_SUPEROP = unitary_superop(embed_qubit_pair(ECR_2Q))
_TWIRLED_ECR = _PAULI_TWIRL_SUM @ _ECR_SUPEROP


def ecr_channel(nm: NoiseModel, qubits: tuple[int, int], duration_dt: int) -> np.ndarray:
    """Ideal embedded ECR unitary, depolarizing proxy, and segment decoherence.

    The proxy is the two-qubit Pauli twirl of strength s = 1 - fidelity,
    (1 - s) I + (s/16) T, identity on leakage levels; after U it is the mix
    (1 - s) U + (s/16) T U of two constants.  The decay pair tensors the two
    qubits' idle channels, rows and columns both (r_a r_b c_a c_b).
    """
    s = 1.0 - nm.ecr_fidelity
    dep_unit = (1.0 - s) * _ECR_SUPEROP + (s / 16.0) * _TWIRLED_ECR
    dec_a = idle_channel(duration_dt, nm, qubits[0]).reshape(3, 1, 3, 1, 3, 1, 3, 1)
    dec_b = idle_channel(duration_dt, nm, qubits[1]).reshape(1, 3, 1, 3, 1, 3, 1, 3)
    return (dec_a * dec_b).reshape(81, 81) @ dep_unit


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
    calibration frames ride in the cached channel, and a segment's fold
    never adds them to a frame sum.

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
    pulses between two of its ECRs fold into one 9x9 channel in that qubit's
    event order, and the state is only formed when that channel and the ECR
    are contracted into it.  A schedule compiles to its program
    (``_program``): each ECR is one step, and before it each operand has
    one step for its segment since its last ECR; after the last ECR each
    qubit has one for its segment up to the makespan.  Folding a segment
    walks its frames and pulses: a frame shift folds the idle up to its
    time, as a pulse does at its start, and adds its angle to the frame sum,
    which folds into the next channel as one diagonal.  A frame that falls
    inside a pulse leaves the clock at that pulse's end, and so acts after
    it.  The frames behind a qubit's last pulse cannot change Z-basis
    populations and leave its last segment.  ECR channels are cached
    already permuted into the state layout (``pair_layout``), and
    ``validate_states`` checks the state after each contraction.

    ``run_arms`` zips k programs step by step, and ``run`` is its one-arm
    case.  The arms must have one width and one operand sequence, or it
    raises ``SimulationError``; any other difference is simulated exactly.
    A step equal in every arm (shared placements are the same objects, so
    this is mostly an identity check) folds or looks up one channel, which
    is broadcast over the arm axis; any other step stacks one channel per
    arm.  Arms that map one waveform id to different specs fold every
    segment per arm.
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
        """Decay after the anharmonic phase.  The phase's superop is the
        diagonal u_m conj(u_n), so the product scales the decay's columns."""
        u = anharmonic_unitary(gap, self.nm, qubit).diagonal()
        return idle_channel(gap, self.nm, qubit) * np.outer(u, u.conj()).ravel()

    def _ecr_superop(self, qubits: tuple[int, int], duration: int) -> np.ndarray:
        return pair_layout(ecr_channel(self.nm, qubits, duration), qubits)

    def run(self, sch: Schedule, shots: int = 1024, seed=None, validate_states: bool = False) -> RunResult:
        """Propagate one schedule and sample ``shots`` outcomes: ``run_arms`` of one arm."""
        return self.run_arms((sch,), shots, (seed,), validate_states)[0]

    def run_arms(self, schedules, shots: int, seeds, validate_states: bool = False) -> list[RunResult]:
        """Propagate k schedules of one width and operand sequence in one
        pass, and sample ``shots`` outcomes of each from its own seed; one
        result per arm, in order."""
        check_count("shots", shots, 0)
        k = len(schedules)
        if k == 0 or len(seeds) != k:
            raise ConfigError(f"{k} schedule(s) need one seed each, got {len(seeds)}")
        width = schedules[0].width
        if any(sch.width != width for sch in schedules):
            raise SimulationError("arms differ in width")
        if width > MAX_SIM_QUBITS:
            raise SimulationError(f"dense qutrit simulation capped at {MAX_SIM_QUBITS} qubits, got {width}")
        if width == 0:
            return [RunResult(p0=1.0, probabilities={"": 1.0}, counts={"": shots}, shots=shots) for _ in schedules]
        programs = [_program(sch) for sch in schedules]
        operands = programs[0][0]
        if any(ops != operands for ops, _ in programs):
            raise SimulationError("arms differ in operand sequence")
        keys = [self._spec_keys(sch) for sch in schedules]
        specs = [sch.waveforms for sch in schedules]
        # arms that map one waveform id to different specs share no segment
        clash = any(keys[0].get(wid, n) != n for arm in keys[1:] for wid, n in arm.items())
        channel, ideal = self._channel, self.ideal_pulses

        def fold(q, segment, a):
            """Arm a's segment on q (start, end, frames and pulses) as one
            channel, folded in event order: each channel after the frame sum so far."""
            t, end, events = segment
            f, p = 0.0, None
            for ev in events:
                frame = type(ev) is FrameShift
                at = ev.time if frame else ev.start
                if at > t:  # a frame inside a pulse acts after it
                    p, f = _fold(p, f, channel((at - t, q), self._idle_superop, at - t, q))
                    t = at
                if frame:
                    f += ev.angle
                    continue
                wid = ev.waveform_id
                pre, post = (0.0, 0.0) if ideal else (ev.pre_frame, ev.post_frame)
                key = (keys[a][wid], q, ev.angle if ideal else None, pre, post)
                p, f = _fold(p, f, channel(key, self._pulse_superop, specs[a][wid], q, ev.angle, pre, post))
                t = ev.start + ev.duration
            if end > t:
                p, f = _fold(p, f, channel((end - t, q), self._idle_superop, end - t, q))
            return _fold(p, f, _EYE9)[0] if f else p

        data = np.zeros((k, 9**width), dtype=complex)
        data[:, 0] = 1.0
        for qubits, steps in zip(operands, zip(*(payloads for _, payloads in programs))):
            step = steps[0]
            shared = steps.count(step) == k
            if len(qubits) == 2:  # an ECR: its step is its channel's key
                if shared:
                    s = channel(step, self._ecr_superop, *step)
                else:
                    s = np.array([channel(e, self._ecr_superop, *e) for e in steps])
            elif shared and not clash:
                s = fold(qubits[0], step, 0)
            else:
                s = np.array([fold(qubits[0], seg, a) for a, seg in enumerate(steps)])
            data = contract_arms(data, s, qubits, width)
            if validate_states:
                for rho in data:
                    DensityState(width, rho).validate()

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


def _fold(pending, frame, s):
    """Channel s after the frame sum ``frame`` and the ``pending`` channel
    (None: nothing), and the frame sum left, 0.0."""
    if frame:
        s = s * np.exp(1j * frame * _LEVEL_GAPS)
    return (s if pending is None else s @ pending), 0.0


def _program(sch: Schedule):
    """The schedule's contraction steps in order: (operands, payloads).

    An ECR is one step on its operands in ascending order, and its payload
    is its channel's key (qubits, duration).  Before it, each operand gets
    one step for its segment since its last ECR, and after every ECR each
    qubit gets one for its last segment up to the makespan.  A segment's
    payload is (start, end, its frames and pulses in event order); the last
    one leaves out the frames behind the qubit's last pulse, which cannot
    change Z-basis populations.  A segment that folds nothing (no time, no
    pulse and a zero frame sum) is no step.
    """
    operands, payloads = [], []
    start = [0] * sch.width
    events = [[] for _ in range(sch.width)]

    def segment(q, end):
        evs = events[q]
        if end > start[q] or any(type(ev) is not FrameShift for ev in evs) or sum(ev.angle for ev in evs):
            operands.append((q,))
            payloads.append((start[q], end, evs))

    for ev in sch.events():
        if type(ev) is FrameShift:
            events[ev.qubit].append(ev)
        elif ev.kind != "ecr":
            events[ev.qubits[0]].append(ev)
        else:
            for q in ev.qubits:
                segment(q, ev.start)
                start[q], events[q] = ev.start + ev.duration, []
            operands.append(tuple(sorted(ev.qubits)))
            payloads.append((ev.qubits, ev.duration))
    for q, evs in enumerate(events):
        while evs and type(evs[-1]) is FrameShift:
            evs.pop()
        segment(q, sch.makespan)
    return operands, payloads


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
