"""Tableau correctness against dense Pauli-conjugation oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ECR_MATRIX, equal_up_to_phase, u3_matrix
from pulsesched.clifford import (
    CLIFFORD_1Q,
    CX_DRESSING,
    ECR_AS_CX_WORDS,
    Tableau,
    synthesize_identity,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
H = (X + Z) / math.sqrt(2)
S = np.diag([1.0, 1j]).astype(complex)
SDG = S.conj().T
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)

GATE_MATS = {"h": H, "s": S, "sdg": SDG, "x": X, "z": Z}


def word_matrix(word):
    u = I2
    for g in word:
        u = GATE_MATS[g] @ u
    return u


def embed(m, qubits, n):
    if len(qubits) == 1:
        out = np.array([[1.0]], dtype=complex)
        for q in range(n):
            out = np.kron(out, m if q == qubits[0] else I2)
        return out
    # 2-qubit embed via index juggling
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    a, b = qubits
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        for ra in range(2):
            for rb in range(2):
                amp = m[2 * ra + rb, 2 * bits[a] + bits[b]]
                if amp == 0:
                    continue
                nb = list(bits)
                nb[a], nb[b] = ra, rb
                row = sum(v << (n - 1 - q) for q, v in enumerate(nb))
                out[row, col] += amp
    return out


def circuit_matrix(ops, n):
    dim = 2**n
    u = np.eye(dim, dtype=complex)
    for name, qubits in ops:
        m = CX if name == "cx" else ECR_MATRIX if name == "ecr" else GATE_MATS[name]
        u = embed(m, list(qubits), n) @ u
    return u


def tableau_from_unitary(u, n):
    """Oracle: read the Pauli conjugation action off the dense unitary."""
    paulis = [I2, X, Y, Z]
    x = np.zeros((2 * n, n), dtype=bool)
    z = np.zeros((2 * n, n), dtype=bool)
    r = np.zeros(2 * n, dtype=bool)
    strings = []
    for combo in np.ndindex(*(4,) * n):
        p = np.array([[1.0]], dtype=complex)
        for k in combo:
            p = np.kron(p, paulis[k])
        strings.append((combo, p))
    for row in range(2 * n):
        q = row % n
        base = X if row < n else Z
        m = embed(base, [q], n)
        img = u @ m @ u.conj().T
        # match img against +-(pauli string); distinct strings are orthogonal,
        # so only the one with a large overlap can match
        found = None
        for combo, p in strings:
            if abs(np.vdot(p, img)) < 2**n / 2:
                continue
            for sign in (1, -1):
                if np.allclose(img, sign * p, atol=1e-8):
                    found = (combo, sign)
        assert found is not None, "conjugation image is not a Pauli"
        combo, sign = found
        for q2, k in enumerate(combo):
            x[row, q2] = k in (1, 2)
            z[row, q2] = k in (2, 3)
        r[row] = sign < 0
    return Tableau.from_arrays(x, z, r)


def random_ops(rng, n, count):
    names = ["h", "s", "sdg", "x", "z"] + (["cx", "ecr"] if n > 1 else [])
    ops = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        if name in ("cx", "ecr"):
            a, b = rng.choice(n, size=2, replace=False)
            ops.append((name, (int(a), int(b))))
        else:
            ops.append((name, (int(rng.integers(n)),)))
    return ops


def apply_ops(t, ops):
    for name, qubits in ops:
        t.apply_gate(name, qubits)


class TestCliffordTable:
    def test_24_distinct_elements(self):
        keys = set()
        for word, _ in CLIFFORD_1Q:
            u = word_matrix(word)
            keys.add(
                (
                    tuple(np.round(u @ X @ u.conj().T, 6).ravel()),
                    tuple(np.round(u @ Z @ u.conj().T, 6).ravel()),
                )
            )
        assert len(CLIFFORD_1Q) == 24 and len(keys) == 24

    def test_u3_angles_match_words(self):
        for word, angles in CLIFFORD_1Q:
            assert equal_up_to_phase(u3_matrix(*angles), word_matrix(word), tol=1e-9)

    def test_angles_on_quarter_grid(self):
        for _, angles in CLIFFORD_1Q:
            for a in angles:
                assert abs(a / (math.pi / 2) - round(a / (math.pi / 2))) < 1e-12


class TestEcrDressing:
    def test_cx_identity(self):
        w = CX_DRESSING
        pre = embed(word_matrix(w["pre_c"]), [0], 2) @ embed(word_matrix(w["pre_t"]), [1], 2)
        post = embed(word_matrix(w["post_c"]), [0], 2) @ embed(word_matrix(w["post_t"]), [1], 2)
        assert equal_up_to_phase(post @ ECR_MATRIX @ pre, CX, tol=1e-12)

    def test_inverse_words_give_ecr_from_cx(self):
        w = ECR_AS_CX_WORDS
        pre = embed(word_matrix(w["pre_c"]), [0], 2) @ embed(word_matrix(w["pre_t"]), [1], 2)
        post = embed(word_matrix(w["post_c"]), [0], 2) @ embed(word_matrix(w["post_t"]), [1], 2)
        assert equal_up_to_phase(post @ CX @ pre, ECR_MATRIX, tol=1e-12)


class TestTableau:
    def test_identity_initial(self):
        assert Tableau(3).is_identity()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_unitary_conjugation_oracle(self, n):
        rng = np.random.default_rng(23 + n)
        for _ in range(40):
            ops = random_ops(rng, n, int(rng.integers(1, 12)))
            t = Tableau(n)
            apply_ops(t, ops)
            expected = tableau_from_unitary(circuit_matrix(ops, n), n)
            assert t == expected

    def test_ecr_pauli_action(self):
        # images derived from the ECR matrix: XI->XI, ZI->YZ, IX->-XY, IZ->-IZ
        t = Tableau(2)
        t.ecr(0, 1)
        expected = tableau_from_unitary(circuit_matrix([("ecr", (0, 1))], 2), 2)
        assert t == expected


#: each gate name as an h/s word
REPLAY_WORDS = {
    "h": ("h",),
    "s": ("s",),
    "sdg": ("s", "s", "s"),
    "z": ("s", "s"),
    "x": ("h", "s", "s", "h"),
}


class NumpyTableau:
    """Oracle: the Aaronson-Gottesman h/s/cx rules on dense bool arrays,
    rows by columns, with no packing; words and the ECR replay through them."""

    def __init__(self, x, z, r):
        self.x, self.z, self.r = x.copy(), z.copy(), r.copy()

    def h(self, q):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q):
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def cx(self, c, t):
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ True)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def word(self, word, q):
        for g in word:
            {"h": self.h, "s": self.s}[g](q)

    def ecr(self, c, t):
        w = ECR_AS_CX_WORDS
        self.word(w["pre_c"], c)
        self.word(w["pre_t"], t)
        self.cx(c, t)
        self.word(w["post_c"], c)
        self.word(w["post_t"], t)


@st.composite
def tableau_bits(draw, min_n=1, max_n=5):
    """Any bits at all, as (x, z, r) arrays: every row updates on its own,
    so the packed rules must match the oracle on arbitrary rows, not only on
    valid tableaux."""
    n = draw(st.integers(min_n, max_n))
    return (draw(arrays(bool, (2 * n, n))), draw(arrays(bool, (2 * n, n))), draw(arrays(bool, 2 * n)))


def assert_same_bits(t, ref, what):
    x, z, r = t.arrays()
    assert np.array_equal(x, ref.x) and np.array_equal(z, ref.z) and np.array_equal(r, ref.r), what


class TestPackedRulesMatchNumpyOracle:
    @settings(max_examples=60, deadline=None)
    @given(tableau_bits())
    def test_every_clifford_word_matches_oracle(self, bits):
        t = Tableau.from_arrays(*bits)
        assert_same_bits(t, NumpyTableau(*bits), "round trip")
        for word, _ in CLIFFORD_1Q:
            for q in range(t.n):
                got, ref = t.copy(), NumpyTableau(*bits)
                got.apply_word(word, q)
                ref.word(word, q)
                assert_same_bits(got, ref, (word, q))

    @settings(max_examples=60, deadline=None)
    @given(tableau_bits())
    def test_every_gate_name_matches_oracle(self, bits):
        t = Tableau.from_arrays(*bits)
        for name, word in REPLAY_WORDS.items():
            for q in range(t.n):
                got, ref = t.copy(), NumpyTableau(*bits)
                got.apply_gate(name, (q,))
                ref.word(word, q)
                assert_same_bits(got, ref, (name, q))

    @settings(max_examples=60, deadline=None)
    @given(tableau_bits(min_n=2))
    def test_cx_and_ecr_on_every_ordered_pair_match_oracle(self, bits):
        t = Tableau.from_arrays(*bits)
        for c in range(t.n):
            for tgt in range(t.n):
                if c == tgt:
                    continue
                for name in ("cx", "ecr"):
                    got, ref = t.copy(), NumpyTableau(*bits)
                    got.apply_gate(name, (c, tgt))
                    getattr(ref, name)(c, tgt)
                    assert_same_bits(got, ref, (name, c, tgt))


class TestSynthesizeIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_cliffords_inverted(self, n):
        rng = np.random.default_rng(31 + n)
        for _ in range(60):
            ops = random_ops(rng, n, int(rng.integers(0, 20)))
            t = Tableau(n)
            apply_ops(t, ops)
            inv_ops = synthesize_identity(t)
            apply_ops(t, inv_ops)
            assert t.is_identity()

    def test_unitary_identity_up_to_phase(self):
        rng = np.random.default_rng(37)
        for n in (1, 2):
            for _ in range(20):
                ops = random_ops(rng, n, int(rng.integers(1, 10)))
                t = Tableau(n)
                apply_ops(t, ops)
                inv_ops = synthesize_identity(t)
                full = circuit_matrix(list(ops) + list(inv_ops), n)
                assert equal_up_to_phase(full, np.eye(2**n), tol=1e-9)

    def test_empty_for_identity(self):
        assert synthesize_identity(Tableau(2)) == []

    def test_does_not_mutate_input(self):
        t = Tableau(2)
        t.h(0)
        t.cx(0, 1)
        snapshot = t.arrays()
        synthesize_identity(t)
        assert t.arrays() == snapshot
