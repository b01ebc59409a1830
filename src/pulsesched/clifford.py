"""Stabilizer tableau, the 24 single-qubit Cliffords, and inversion synthesis.

The tableau tracks the Pauli conjugation action of the circuit built so far
(rows are the images of X_i and Z_i with sign bits).  Appending the gate
sequence returned by ``synthesize_identity`` drives the tableau back to the
identity, which is exactly the inversion block a randomized-benchmarking
sequence needs; tableau identity means unitary identity up to global phase.

The two-qubit entangler is the echoed cross-resonance gate; a CX is the ECR
conjugated by fixed single-qubit Cliffords (dressing derived numerically from
the ECR matrix and verified in the test suite).

A single-qubit Clifford maps each tableau row's (x_q, z_q) bits to new bits
plus a sign flip that depends on those two bits alone (Aaronson & Gottesman,
PRA 70, 052328 (2004)), and the ECR does the same on (x_c, z_c, x_t, z_t).
So each of the 24 ``CLIFFORD_1Q`` words, each gate name that
``synthesize_identity`` emits, and the ECR is a lookup table, read off at
import time by replaying the h/s/cx rules on a probe tableau whose rows hold
every bit pattern; a tableau applies one with a single indexing per column.
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

    Row i < n is the image of X_i, row n+i the image of Z_i.  ``h``, ``s``
    and ``cx`` are the primitive column rules.  Every other gate is a lookup
    table indexed by the operand columns' bits of each row (x_q, z_q per
    operand, in operand order) that gives their new bits and the row's sign
    flip, built from those rules at import time.
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

    def cx(self, c: int, t: int):
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    # -- table lookups ----------------------------------------------------

    def _lookup(self, table: np.ndarray, qubits):
        index = [slice(None)]
        for q in qubits:
            index += self.x[:, q].view(np.uint8), self.z[:, q].view(np.uint8)
        *bits, flip = table[tuple(index)]
        for i, q in enumerate(qubits):
            self.x[:, q], self.z[:, q] = bits[2 * i], bits[2 * i + 1]
        self.r ^= flip

    def ecr(self, c: int, t: int):
        self._lookup(_ECR_TABLE, (c, t))

    def apply_word(self, word, q: int):
        """Apply one of the 24 ``CLIFFORD_1Q`` words to qubit q."""
        self._lookup(_WORD_TABLES[word], (q,))

    def apply_gate(self, name: str, qubits):
        if name == "cx":
            self.cx(*qubits)
        elif name == "ecr":
            self.ecr(*qubits)
        else:
            self._lookup(_GATE_TABLES[name], qubits)


def _lookup_table(n_cols: int, ops) -> np.ndarray:
    """Table of the Clifford that the (rule, columns) ``ops`` apply to
    columns 0..n_cols-1, with rule one of ``h``, ``s`` and ``cx``.

    The probe's 4**n_cols rows hold every (x, z) bit pattern of those
    columns; since each row updates on its own, the replayed rows are the
    table.  Shape (2 n_cols + 1,) + (2,) * 2 n_cols: ``table[:, x_0, z_0,
    x_1, ...]`` gives the new bits in the same order, then the sign flip.
    """
    rules = {"h": Tableau.h, "s": Tableau.s, "cx": Tableau.cx}
    bits = np.array(list(np.ndindex(*(2,) * (2 * n_cols))), dtype=bool)
    probe = Tableau(n_cols, bits[:, 0::2].copy(), bits[:, 1::2].copy(), np.zeros(len(bits), dtype=bool))
    for rule, cols in ops:
        rules[rule](probe, *cols)
    out = np.empty((2 * n_cols + 1, len(bits)), dtype=bool)
    out[0:-1:2] = probe.x.T
    out[1:-1:2] = probe.z.T
    out[-1] = probe.r
    return out.reshape((2 * n_cols + 1,) + (2,) * (2 * n_cols))


#: every single-qubit gate name that ``apply_gate`` takes, as an h/s word
_GATE_WORDS = {
    "h": ("h",),
    "s": ("s",),
    "sdg": ("s", "s", "s"),
    "z": ("s", "s"),
    "x": ("h", "s", "s", "h"),
}


def _on(word, q: int):
    return [(g, (q,)) for g in word]


_WORD_TABLES = {word: _lookup_table(1, _on(word, 0)) for word, _ in CLIFFORD_1Q}
_GATE_TABLES = {name: _lookup_table(1, _on(word, 0)) for name, word in _GATE_WORDS.items()}
_ECR_TABLE = _lookup_table(2, [
    *_on(ECR_AS_CX_WORDS["pre_c"], 0),
    *_on(ECR_AS_CX_WORDS["pre_t"], 1),
    ("cx", (0, 1)),
    *_on(ECR_AS_CX_WORDS["post_c"], 0),
    *_on(ECR_AS_CX_WORDS["post_t"], 1),
])


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
