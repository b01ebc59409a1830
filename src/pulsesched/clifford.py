"""Stabilizer tableau, the 24 single-qubit Cliffords, and inversion synthesis.

The tableau tracks the Pauli conjugation action of the circuit built so far
(rows are the images of X_i and Z_i with sign bits).  Appending the gate
sequence returned by ``synthesize_identity`` drives the tableau back to the
identity, which is exactly the inversion block a randomized-benchmarking
sequence needs; tableau identity means unitary identity up to global phase.

The two-qubit entangler is the echoed cross-resonance gate; a CX is the ECR
conjugated by fixed single-qubit Cliffords (dressing derived numerically from
the ECR matrix and verified in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit as circ

HALF_PI = math.pi / 2.0

# ---------------------------------------------------------------------------
# dense 2x2 references used to derive tables at import time

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = (_X + _Z) / math.sqrt(2)
_S = np.diag([1.0, 1j]).astype(complex)

_PAULI_BY_NAME = {"x": _X, "y": _Y, "z": _Z}


def _pauli_image(u, p):
    m = u @ p @ u.conj().T
    for name, q in _PAULI_BY_NAME.items():
        for sign in (1, -1):
            if np.allclose(m, sign * q, atol=1e-9):
                return name, sign
    raise ValueError("matrix is not a Clifford")


def _clifford_key(u):
    return (_pauli_image(u, _X), _pauli_image(u, _Z))


def _snap_quarter(a):
    return circ.normalize_angle(round(a / HALF_PI) * HALF_PI)


def _build_clifford_table():
    """Enumerate the 24 single-qubit Cliffords as shortest h/s words, each with
    a pi/2-grid U3 angle triple.  Deterministic: BFS in (h, s) order."""
    mats = {(): _I2}
    seen = {_clifford_key(_I2): ()}
    frontier = [()]
    gates = {"h": _H, "s": _S}
    while frontier:
        nxt = []
        for word in frontier:
            for g in ("h", "s"):
                cand = gates[g] @ mats[word]
                key = _clifford_key(cand)
                if key not in seen:
                    new_word = word + (g,)
                    seen[key] = new_word
                    mats[new_word] = cand
                    nxt.append(new_word)
        frontier = nxt
    words = sorted(seen.values(), key=lambda w: (len(w), w))
    table = []
    for word in words:
        u = mats[word]
        theta, phi, lam = (_snap_quarter(a) for a in circ.u3_angles(u))
        table.append((word, (theta, phi, lam)))
    assert len(table) == 24
    return tuple(table)


#: 24 entries of (h/s word in circuit order, U3 angles)
CLIFFORD_1Q = _build_clifford_table()

#: CX = (post_c (x) post_t) . ECR . (pre_c (x) pre_t), words in circuit order
CX_DRESSING = {
    "pre_c": ("h",),
    "pre_t": ("s", "s", "h"),
    "post_c": ("h", "s"),
    "post_t": ("s", "h"),
}


def _invert_word(word):
    inv = {"h": ("h",), "s": ("s", "s", "s")}
    out = []
    for g in reversed(word):
        out.extend(inv[g])
    return tuple(out)


#: ECR as a circuit around a CX: undo the CX dressing on the way in and out,
#: i.e. apply the inverted pre-words, the CX, then the inverted post-words
ECR_AS_CX_WORDS = {part: _invert_word(word) for part, word in CX_DRESSING.items()}


# ---------------------------------------------------------------------------
# tableau


@dataclass
class Tableau:
    """Conjugation tableau over n qubits: 2n rows of x|z bits plus sign bits.

    Row i < n is the image of X_i, row n+i the image of Z_i.
    """

    n: int
    x: np.ndarray = None
    z: np.ndarray = None
    r: np.ndarray = None

    def __post_init__(self):
        if self.x is None:
            self.x = np.zeros((2 * self.n, self.n), dtype=bool)
            self.z = np.zeros((2 * self.n, self.n), dtype=bool)
            self.r = np.zeros(2 * self.n, dtype=bool)
            for i in range(self.n):
                self.x[i, i] = True
                self.z[self.n + i, i] = True

    def copy(self) -> "Tableau":
        t = Tableau(self.n, self.x.copy(), self.z.copy(), self.r.copy())
        return t

    def is_identity(self) -> bool:
        ref = Tableau(self.n)
        return (
            np.array_equal(self.x, ref.x)
            and np.array_equal(self.z, ref.z)
            and np.array_equal(self.r, ref.r)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.n == other.n
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.r, other.r)
        )

    # -- primitive gate updates (standard Aaronson-Gottesman rules) -------

    def h(self, q: int):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int):
        self.s(q)
        self.s(q)
        self.s(q)

    def zgate(self, q: int):
        self.s(q)
        self.s(q)

    def xgate(self, q: int):
        self.h(q)
        self.zgate(q)
        self.h(q)

    def cx(self, c: int, t: int):
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def ecr(self, c: int, t: int):
        for g in ECR_AS_CX_WORDS["pre_c"]:
            getattr(self, g)(c)
        for g in ECR_AS_CX_WORDS["pre_t"]:
            getattr(self, g)(t)
        self.cx(c, t)
        for g in ECR_AS_CX_WORDS["post_c"]:
            getattr(self, g)(c)
        for g in ECR_AS_CX_WORDS["post_t"]:
            getattr(self, g)(t)

    def apply_word(self, word, q: int):
        for g in word:
            getattr(self, g)(q)

    def apply_gate(self, name: str, qubits):
        if name == "cx":
            self.cx(*qubits)
        elif name == "ecr":
            self.ecr(*qubits)
        else:
            getattr(self, name if name not in ("x", "z") else name + "gate")(qubits[0])


#: x-rotation by pi/2 as a conjugation word: fixes X, maps Y -> Z, Z -> -Y
_SX_WORD = ("sdg", "h", "sdg")


def synthesize_identity(t: Tableau) -> list[tuple[str, tuple[int, ...]]]:
    """Gate sequence (circuit order) driving a copy of the tableau to identity.

    Appending these gates to the circuit the tableau tracks realizes its
    inverse Clifford, which is exactly the RB inversion block.  Per-qubit
    Gaussian elimination: pin the X_q image to +X_q, then the Z_q image to
    +Z_q using only operations that fix the already-pinned rows (processed
    images have no support beyond their own column, so gates on qubits >= q
    cannot disturb them).
    """
    work = t.copy()
    ops: list[tuple[str, tuple[int, ...]]] = []
    n = work.n

    def emit(name, *qubits):
        ops.append((name, tuple(qubits)))
        work.apply_gate(name, qubits)

    for q in range(n):
        xrow, zrow = q, n + q

        # --- reduce the X_q image to +-X_q ---
        if not any(work.x[xrow, j] for j in range(q, n)):
            j = next(j for j in range(q, n) if work.z[xrow, j])
            emit("h", j)
        if not work.x[xrow, q]:
            j = next(j for j in range(q + 1, n) if work.x[xrow, j])
            emit("cx", j, q)
            emit("cx", q, j)
            emit("cx", j, q)
        for j in range(q + 1, n):
            if work.z[xrow, j]:
                # Y factor: S strips the z part; lone Z factor: H makes it X
                emit("s" if work.x[xrow, j] else "h", j)
        for j in range(q + 1, n):
            if work.x[xrow, j]:
                emit("cx", q, j)
        if work.z[xrow, q]:
            emit("s", q)

        # --- reduce the Z_q image to +-Z_q without touching X_q ---
        # anticommutation with the pinned X_q guarantees z bit at column q
        for j in range(q + 1, n):
            if work.x[zrow, j] and work.z[zrow, j]:
                emit("s", j)
        for j in range(q + 1, n):
            if work.x[zrow, j]:
                emit("h", j)
        for j in range(q + 1, n):
            if work.z[zrow, j]:
                emit("cx", j, q)
        if work.x[zrow, q]:
            # Y at q: rotate about x (fixes the X_q image) to turn it into Z
            for g in _SX_WORD:
                emit(g, q)

        # --- signs: Z flips the X_q image, X flips the Z_q image ---
        if work.r[xrow]:
            emit("z", q)
        if work.r[zrow]:
            emit("x", q)

    if not work.is_identity():
        raise AssertionError("tableau elimination failed to reach identity")
    return ops
