"""Golden P(0): exact simulator outputs pinned as literals.

The literals were computed before the simulator's state layout and frame
handling last changed, at seeds fixed before the values were seen.  Any
restructuring of the simulator core must reproduce every row within
1e-12, the tolerance the roadmap sets for P(0).
"""

import pytest

from pulsesched.bench import RBConfig, random_clifford_circuit, run_rb
from pulsesched.gateset import GateSet
from pulsesched.scheduler import FREE_FLOAT, lower, run_framework
from pulsesched.sim import NoiseModel, ScheduleSimulator

TOL = 1e-12

#: (mode, qubits, length, seed) -> P(0) per row, in run_rb's row order
#: (circuit 0 fixed, circuit 0 optimized, circuit 1 fixed, circuit 1 optimized)
RB_GOLDEN = {
    ("static", 2, 41, 11): [0.5532872404025604, 0.5513663328654823, 0.5668604757759143, 0.5675743726991812],
    ("static", 3, 5, 12): [0.8023828183019598, 0.8016013277007467, 0.8675954350479875, 0.8717708556375209],
    ("dynamic", 3, 5, 13): [0.7587476020021274, 0.7632596937364516, 0.8211201793043158, 0.8259111720098594],
}

#: 5-qubit RB circuit (3 Cliffords, seed 14), optimized arm: ideal_pulses -> P(0)
WIDE_GOLDEN = {False: 0.9019509991295472, True: 0.9152231459338355}


@pytest.mark.parametrize("key", list(RB_GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_rb_rows(key):
    mode, n, length, seed = key
    cfg = RBConfig(n, (length,), circuits_per_length=2, seed=seed, shots=8)
    rows = run_rb(cfg, GateSet.ideal(mode, n), NoiseModel()).rows
    assert [r.p0 for r in rows] == pytest.approx(RB_GOLDEN[key], abs=TOL, rel=0)


def test_five_qubit_schedule():
    gs = GateSet.ideal("static", 5)
    _, sch = run_framework(lower(random_clifford_circuit(5, 3, 14), gs), gs, FREE_FLOAT)
    for ideal_pulses, p0 in WIDE_GOLDEN.items():
        got = ScheduleSimulator(NoiseModel(), ideal_pulses=ideal_pulses).run(sch, shots=1, seed=0).p0
        assert got == pytest.approx(p0, abs=TOL, rel=0), ideal_pulses
