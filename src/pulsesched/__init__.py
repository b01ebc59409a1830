"""pulsesched: latency-neutral pulse scheduling via the Critical Path Method.

Models a quantum circuit as an operation dependency graph, keeps the fastest
calibrated pulses on the critical path, and stretches everything else into
its idle slack -- then verifies the payoff with a three-level pulse simulator
and a randomized-benchmarking harness.
"""

from .circuit import (
    Circuit,
    Gate,
    circuit_to_text,
    decompose_dynamic,
    decompose_static,
    merge_virtual_z,
    parse_circuit,
)
from .gateset import (
    GateSet,
    RabiFit,
    RabiTable,
    dynamic_amplitude,
    fine_tune,
    fit_rabi,
    interpolate_amplitude,
    sigma_of_duration,
)
from .pulses import ShapeSpec, Waveform, normalize, pulse_area, synthesize
from .schedule import Schedule
from .scheduler import (
    DepGraph,
    DepNode,
    build_graph,
    cpm,
    create_schedule,
    critical_path,
    graph_to_dot,
    initial_durations,
    lower,
    minimum_duration_graph,
    optimize_durations,
    run_framework,
    stretched_schedule,
    update_cpm,
)
from .sim import (
    DensityState,
    NoiseModel,
    RunResult,
    gate_channel,
    idle_channel,
    propagate_waveform,
    simulate_rabi,
)
from .bench import RBConfig, RBResult, duration_histogram, export_timescale, random_clifford_circuit, run_rb

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "Gate",
    "parse_circuit",
    "circuit_to_text",
    "decompose_static",
    "decompose_dynamic",
    "merge_virtual_z",
    "DepGraph",
    "DepNode",
    "build_graph",
    "initial_durations",
    "cpm",
    "critical_path",
    "update_cpm",
    "minimum_duration_graph",
    "optimize_durations",
    "create_schedule",
    "stretched_schedule",
    "lower",
    "run_framework",
    "graph_to_dot",
    "Schedule",
    "GateSet",
    "RabiFit",
    "RabiTable",
    "sigma_of_duration",
    "fit_rabi",
    "interpolate_amplitude",
    "fine_tune",
    "dynamic_amplitude",
    "ShapeSpec",
    "Waveform",
    "normalize",
    "synthesize",
    "pulse_area",
    "NoiseModel",
    "DensityState",
    "RunResult",
    "propagate_waveform",
    "gate_channel",
    "idle_channel",
    "simulate_rabi",
    "RBConfig",
    "RBResult",
    "random_clifford_circuit",
    "run_rb",
    "duration_histogram",
    "export_timescale",
]
