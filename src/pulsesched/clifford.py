"""Stabilizer tableau, the 24 single-qubit Cliffords, and inversion synthesis.

The tableau tracks the Pauli conjugation action of the circuit built so far
(rows are the images of X_i and Z_i with sign bits).  Appending the gate
sequence returned by ``synthesize_identity`` drives the tableau back to the
identity, which is exactly the inversion block a randomized-benchmarking
sequence needs; tableau identity means unitary identity up to global phase.

The two-qubit entangler is the echoed cross-resonance gate; a CX is the ECR
conjugated by fixed single-qubit Cliffords (dressing derived numerically from
the ECR matrix and verified in the test suite).

The tableau packs its bits by column, one Python int per qubit's x and z
bits and one for the signs, so the Aaronson-Gottesman rules (PRA 70, 052328
(2004)) for h, s and cx update every row of a column in a few bitwise
operations (bit packing as in Stim: Gidney, Quantum 5, 497 (2021)).  Every
other gate is replayed through those three rules: the ``CLIFFORD_1Q`` words
and gate names as h/s words, and the ECR as its CX dressing.
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

#: every single-qubit gate name that ``apply_gate`` takes, as an h/s word
_GATE_WORDS = {
    "h": ("h",),
    "s": ("s",),
    "sdg": ("s", "s", "s"),
    "z": ("s", "s"),
    "x": ("h", "s", "s", "h"),
}


@dataclass
class Tableau:
    """Conjugation tableau over n qubits: 2n rows of x|z bits plus sign bits.

    Row i < n is the image of X_i, row n+i the image of Z_i.  The bits are
    packed by column: ``x[q]`` and ``z[q]`` are Python ints whose bit i is
    row i's x or z bit on qubit q, and ``r`` holds the sign bits the same
    way.  ``h``, ``s`` and ``cx`` are the only rules, each a few bitwise
    operations on whole columns; every other gate replays its h/s word, and
    the ECR its CX dressing, through them.
    """

    n: int
    x: list[int] = None
    z: list[int] = None
    r: int = 0

    def __post_init__(self):
        if self.x is None:
            self.x = [1 << q for q in range(self.n)]
            self.z = [1 << (self.n + q) for q in range(self.n)]

    @classmethod
    def from_arrays(cls, x, z, r) -> "Tableau":
        """Tableau from row-major bits: ``x[row][q]``, ``z[row][q]``, ``r[row]``."""
        n = len(r) // 2

        def pack(bits):
            return sum(1 << row for row, bit in enumerate(bits) if bit)

        return cls(n, [pack(row[q] for row in x) for q in range(n)],
                   [pack(row[q] for row in z) for q in range(n)], pack(r))

    def arrays(self) -> tuple[list[list[bool]], list[list[bool]], list[bool]]:
        """The row-major bits ``from_arrays`` takes, as nested lists of bools."""
        rows = range(2 * self.n)
        x = [[bool(col >> row & 1) for col in self.x] for row in rows]
        z = [[bool(col >> row & 1) for col in self.z] for row in rows]
        return x, z, [bool(self.r >> row & 1) for row in rows]

    def copy(self) -> "Tableau":
        return Tableau(self.n, list(self.x), list(self.z), self.r)

    def is_identity(self) -> bool:
        return self == Tableau(self.n)

    # -- the rules (Aaronson-Gottesman, one column of every row at once) --

    def h(self, q: int):
        x, z = self.x[q], self.z[q]
        self.r ^= x & z
        self.x[q], self.z[q] = z, x

    def s(self, q: int):
        x = self.x[q]
        self.r ^= x & self.z[q]
        self.z[q] ^= x

    def cx(self, c: int, t: int):
        xs, zs = self.x, self.z
        self.r ^= xs[c] & zs[t] & ~(xs[t] ^ zs[c])
        xs[t] ^= xs[c]
        zs[c] ^= zs[t]

    # -- replayed gates ---------------------------------------------------

    def apply_word(self, word, q: int):
        """Apply an h/s word (one of the 24 ``CLIFFORD_1Q`` words) to qubit q."""
        for g in word:
            if g == "h":
                self.h(q)
            else:
                self.s(q)

    def ecr(self, c: int, t: int):
        w = ECR_AS_CX_WORDS
        self.apply_word(w["pre_c"], c)
        self.apply_word(w["pre_t"], t)
        self.cx(c, t)
        self.apply_word(w["post_c"], c)
        self.apply_word(w["post_t"], t)

    def apply_gate(self, name: str, qubits):
        if name == "cx":
            self.cx(*qubits)
        elif name == "ecr":
            self.ecr(*qubits)
        else:
            self.apply_word(_GATE_WORDS[name], *qubits)


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
    n, x, z = work.n, work.x, work.z  # the rules update these lists in place

    def emit(name, *qubits):
        ops.append((name, tuple(qubits)))
        work.apply_gate(name, qubits)

    for q in range(n):
        xrow, zrow = q, n + q

        # --- reduce the X_q image to +-X_q ---
        if not any(x[j] >> xrow & 1 for j in range(q, n)):
            j = next(j for j in range(q, n) if z[j] >> xrow & 1)
            emit("h", j)
        if not x[q] >> xrow & 1:
            j = next(j for j in range(q + 1, n) if x[j] >> xrow & 1)
            emit("cx", j, q)
            emit("cx", q, j)
            emit("cx", j, q)
        for j in range(q + 1, n):
            if z[j] >> xrow & 1:
                # Y factor: S strips the z part; lone Z factor: H makes it X
                emit("s" if x[j] >> xrow & 1 else "h", j)
        for j in range(q + 1, n):
            if x[j] >> xrow & 1:
                emit("cx", q, j)
        if z[q] >> xrow & 1:
            emit("s", q)

        # --- reduce the Z_q image to +-Z_q without touching X_q ---
        # anticommutation with the pinned X_q guarantees z bit at column q
        for j in range(q + 1, n):
            if (x[j] & z[j]) >> zrow & 1:
                emit("s", j)
        for j in range(q + 1, n):
            if x[j] >> zrow & 1:
                emit("h", j)
        for j in range(q + 1, n):
            if z[j] >> zrow & 1:
                emit("cx", j, q)
        if x[q] >> zrow & 1:
            # Y at q: rotate about x (fixes the X_q image) to turn it into Z
            for g in _SX_WORD:
                emit(g, q)

        # --- signs: Z flips the X_q image, X flips the Z_q image ---
        if work.r >> xrow & 1:
            emit("z", q)
        if work.r >> zrow & 1:
            emit("x", q)

    if not work.is_identity():
        raise AssertionError("tableau elimination failed to reach identity")
    return ops
