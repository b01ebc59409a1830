"""Pure helpers of the benchmark: input generators, statistics, output checks.

Nothing here imports pulsesched, so the tests of this file run without the
program and the checks stay independent of the code they judge.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

#: a tail percentile needs this many samples strictly beyond it
TAIL_BEYOND = 10

COMPILE_QUBITS = 5
#: compile-large files per round, with input gate counts spread evenly over
#: COMPILE_GATES; they lower to about 1.0k-2.1k gates
COMPILE_FILES = 30
COMPILE_GATES = (400, 800)


# ---------------------------------------------------------------------------
# seeded inputs


def derive_seed(*parts: int) -> int:
    """A 31-bit program seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


def compile_sizes(seed: int, files: int = COMPILE_FILES, gates: tuple[int, int] = COMPILE_GATES) -> list[int]:
    """Input gate counts of one seed's files: evenly spaced over `gates` from
    a seeded offset, in seeded order, so every seed covers the range alike."""
    rng = np.random.default_rng([seed, files])
    offset = rng.random()
    lo, hi = gates
    sizes = [lo + int((hi - lo) * (j + offset) / files) for j in range(files)]
    return [sizes[i] for i in rng.permutation(files)]


def compile_circuit_text(seed: int, index: int, n_gates: int, n_qubits: int = COMPILE_QUBITS) -> str:
    """One compile-large circuit file: `n_gates` uniform-angle u3, rz and
    ecr gates in random order, then a measure on every qubit."""
    rng = np.random.default_rng([seed, index])
    lines = []
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.5:
            q = int(rng.integers(n_qubits))
            t, p, l = (float(a) for a in rng.uniform(-math.pi, math.pi, 3))
            lines.append(f"u3 q{q} {t!r},{p!r},{l!r}")
        elif r < 0.7:
            q = int(rng.integers(n_qubits))
            lines.append(f"rz q{q} {float(rng.uniform(-math.pi, math.pi))!r}")
        else:
            a, b = (int(x) for x in rng.choice(n_qubits, 2, replace=False))
            lines.append(f"ecr q{a} q{b}")
    lines += [f"measure q{q}" for q in range(n_qubits)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# machine speed

#: reported times are scaled to the machine speed at which speed_probe()
#: takes this long; on a shared 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
#: OpenBLAS 0.3.31) it took 1.6 ms when idle and up to 2.9 ms under
#: co-tenant load
PROBE_NOMINAL_S = 0.002


def _probe_kernel(rho, gen, h) -> float:
    """A fixed mix of the program's kinds of work: small complex tensor
    contractions, a 3x3 eigendecomposition, and interpreted Python."""
    t0 = perf_counter()
    for i in range(40):
        r = np.tensordot(gen, rho, axes=([2, 3], [0, 3]))
        rho = np.moveaxis(r, [0, 1], [0, 3]) * 0.5
        np.linalg.eigh(h + i * 1e-3 * np.eye(3))
        table = {}
        for k in range(60):
            table[k % 7] = table.get(k % 7, 0.0) + math.sin(k)
    return perf_counter() - t0


def speed_probe(repeats: int = 3) -> float:
    """Seconds the probe kernel takes now: the fastest of a few runs."""
    rng = np.random.default_rng(0)
    gen = (rng.standard_normal((3, 3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3, 3))) * 0.1
    rho = np.ones((3,) * 6, dtype=complex)
    a = rng.standard_normal((3, 3))
    h = a + a.T
    return min(_probe_kernel(rho, gen, h) for _ in range(repeats))


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that has at least
    `beyond` samples above it, by the nearest-rank rule.

    With n samples that is the (n - beyond)-th smallest, at percentile
    100 * (n - beyond) / n.  Raises ValueError below beyond + 1 samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < beyond + 1:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on a nonzero
    exit or on any failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output holds


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit {code}"]


def read_rbresult(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_rbresult(rows: list[dict], lengths, circuits: int, shots: int) -> list[str]:
    """Paired fixed/optimized rows with equal latency, P(0) in [0, 1], the
    requested shots, and one pair per (length, circuit)."""
    problems = []
    pairs: dict[tuple, dict] = defaultdict(dict)
    for r in rows:
        try:
            key = (int(r["length"]), int(r["circuit"]))
            p0 = float(r["p0"])
            latency = int(r["latency_dt"])
            row_shots = int(r["shots"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unreadable row {r}: {exc}")
            continue
        if r["policy"] in pairs[key]:
            problems.append(f"duplicate {r['policy']} row for {key}")
        pairs[key][r["policy"]] = latency
        if not 0.0 <= p0 <= 1.0:
            problems.append(f"P(0) {p0} outside [0, 1] at {key}")
        if row_shots != shots:
            problems.append(f"{row_shots} shots at {key}, expected {shots}")
    expected = {(l, c) for l in lengths for c in range(circuits)}
    if set(pairs) != expected:
        problems.append(f"rows cover {len(pairs)} (length, circuit) keys, expected {len(expected)}")
    for key, by_policy in sorted(pairs.items()):
        if set(by_policy) != {"fixed", "optimized"}:
            problems.append(f"{key} has policies {sorted(by_policy)}")
        elif by_policy["fixed"] != by_policy["optimized"]:
            problems.append(f"latency differs at {key}: {by_policy}")
    return problems


def check_counts(count_totals, shots: int) -> list[str]:
    """Every simulated circuit's sampled counts sum to the shots."""
    return [f"counts sum to {t}, expected {shots}" for t in count_totals if t != shots]


def p0_means(rows: list[dict]) -> dict[int, dict[str, float]]:
    """length -> policy -> mean exact P(0)."""
    acc: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in rows:
        acc[int(r["length"])][r["policy"]].append(float(r["p0"]))
    return {l: {p: sum(v) / len(v) for p, v in by.items()} for l, by in acc.items()}


def count_pulses(durations_csv) -> int:
    with open(durations_csv, newline="") as fh:
        return sum(int(r["count"]) for r in csv.DictReader(fh))


def check_schedule_doc(doc: dict) -> list[str]:
    """No two placements on a qubit overlap and none ends past the makespan."""
    problems = []
    try:
        makespan = int(doc["makespan_dt"])
        timelines = doc["qubits"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"schedule JSON lacks {exc}"]
    for q, placements in enumerate(timelines):
        prev_end = 0
        for p in sorted(placements, key=lambda p: p["start_dt"]):
            start, end = p["start_dt"], p["start_dt"] + p["duration_dt"]
            if start < prev_end:
                problems.append(f"qubit {q}: {p['waveform_id']} at {start} overlaps the pulse ending {prev_end}")
            if end > makespan:
                problems.append(f"qubit {q}: {p['waveform_id']} ends at {end} past makespan {makespan}")
            prev_end = max(prev_end, end)
    return problems


def check_same_makespan(optimized: dict, fixed: dict) -> list[str]:
    a, b = optimized.get("makespan_dt"), fixed.get("makespan_dt")
    return [] if a == b else [f"optimized makespan {a} != fixed makespan {b}"]


# ---------------------------------------------------------------------------
# run environment


def environment(root: Path) -> dict:
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "platform": platform.platform(),
        "argv": sys.argv,
    }
