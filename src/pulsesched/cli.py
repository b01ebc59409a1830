"""Command-line interface.

Subcommands: schedule, calibrate, rabi, rb.  Exit codes: 0 success,
2 configuration error, 3 simulation/calibration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .circuit import parse_circuit
from .errors import ConfigError, PulseschedError
from .gateset import DEFAULT_STATIC_DURATIONS, DYNAMIC, STATIC, GateSet
from .pulses import DT_NS
from .scheduler import TOTAL_FLOAT, graph_to_dot, lower, run_framework
from .scheduler import build_graph  # noqa: F401  perfbench/test_harness.py patches it through cli
from .sim import NoiseModel, simulate_rabi, write_rabi_csv


def _load(path, what, parse):
    """parse(text of the file at path); an unreadable file or content that
    parse cannot take is a ConfigError."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc!r}") from exc


def _write(path, what, write):
    """write(path); a path that cannot be written is a ConfigError."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc!r}") from exc


def _load_noise(path) -> NoiseModel:
    return NoiseModel() if path is None else _load(path, "noise model", NoiseModel.from_json)


def _parse_list(text, number) -> list:
    """The comma-separated entries of text, each converted by number."""
    try:
        return [number(p) for p in str(text).split(",") if p != ""]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def _cmd_schedule(args) -> int:
    circuit = _load(args.circuit, "circuit", parse_circuit)
    gs = _load(args.gateset, "gate set", GateSet.from_json)
    lowered = lower(circuit, gs)
    g, sch = run_framework(lowered, gs, None if args.no_optimize else TOTAL_FLOAT)
    _write(args.out, "schedule", sch.write_json)
    if args.dot:
        _write(args.dot, "graph", lambda path: Path(path).write_text(graph_to_dot(g)))
    print(f"scheduled {len(lowered.gates)} gates on {lowered.width} qubits; "
          f"makespan {sch.makespan} dt ({sch.makespan * DT_NS:.1f} ns) -> {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    nm = _load_noise(args.noise)
    if args.qubits < 1:
        raise ConfigError(f"--qubits must be at least 1, got {args.qubits}")
    if args.mode == DYNAMIC and args.durations is not None:
        raise ConfigError("--durations is a static menu; a dynamic gate set takes --min-dur/--max-dur")
    durations = DEFAULT_STATIC_DURATIONS if args.durations is None else _parse_list(args.durations, int)
    gs = GateSet.calibrated(args.mode, nm, args.qubits, args.min_dur, args.max_dur, durations)
    _write(args.out, "gate set", gs.write_json)
    print(f"calibrated {args.mode} gate set for {args.qubits} qubit(s) -> {args.out}")
    return 0


def _cmd_rabi(args) -> int:
    nm = _load_noise(args.noise)
    amplitudes = _parse_list(args.amplitudes, float)
    if not amplitudes:
        raise ConfigError("need at least one amplitude")
    data = simulate_rabi(amplitudes, nm, qubit=args.qubit, window_dt=args.window)
    _write(args.out, "Rabi sweep", lambda path: write_rabi_csv(data, path))
    print(f"rabi sweep over {len(amplitudes)} amplitude(s) -> {args.out}")
    return 0


def _cmd_rb(args) -> int:
    nm = _load_noise(args.noise)
    cfg = bench.RBConfig(
        n_qubits=args.qubits,
        clifford_lengths=tuple(_parse_list(args.lengths, int)),
        circuits_per_length=args.circuits_per_length,
        seed=args.seed,
        shots=args.shots,
    )
    if args.gateset:
        gs = _load(args.gateset, "gate set", GateSet.from_json)
        if gs.mode != args.mode:
            raise ConfigError(f"gate set mode {gs.mode!r} does not match RB mode {args.mode!r}")
        bounds = {"min_duration": args.min_dur, "max_duration": args.max_dur}
        gs = replace(gs, **{name: dt for name, dt in bounds.items() if dt is not None})
        gs.validate_coverage(cfg.n_qubits)
    else:
        gs = GateSet.calibrated(args.mode, nm, cfg.n_qubits, args.min_dur, args.max_dur)
    out = Path(args.out_dir)
    _write(out, "output directory", lambda path: path.mkdir(parents=True, exist_ok=True))
    result = bench.run_rb(cfg, gs, nm)
    _write(out / "rbresult.csv", "RB result", lambda path: bench.write_rbresult_csv(result, path))
    _write(out / "durations.csv", "duration histogram", lambda path: bench.write_durations_csv(result, path))
    _write(out / "timescale.csv", "timescale", lambda path: bench.write_timescale_csv(result, nm, path))
    for length in result.lengths():
        print(
            f"length {length:4d}: fixed P0 {result.mean_p0(length, bench.FIXED):.4f}  "
            f"optimized P0 {result.mean_p0(length, bench.OPTIMIZED):.4f}"
        )
    print(f"paired latencies equal: {result.paired_latencies_equal()} -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pulsesched", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("schedule", help="compile a circuit file into a pulse schedule")
    ps.add_argument("circuit")
    ps.add_argument("--gateset", required=True)
    ps.add_argument("--no-optimize", action="store_true")
    ps.add_argument("--out", required=True)
    ps.add_argument("--dot", help="also write the dependency graph in DOT form")
    ps.set_defaults(fn=_cmd_schedule)

    pc = sub.add_parser("calibrate", help="calibrate a gate set against the simulator")
    pc.add_argument("--mode", choices=(STATIC, DYNAMIC), required=True)
    menu = ",".join(map(str, DEFAULT_STATIC_DURATIONS))
    pc.add_argument("--durations", help=f"comma-separated static durations in dt, static mode only (default: {menu})")
    pc.add_argument("--min-dur", type=int, default=None)
    pc.add_argument("--max-dur", type=int, default=None)
    pc.add_argument("--qubits", type=int, default=1)
    pc.add_argument("--noise", help="noise model JSON")
    pc.add_argument("--out", required=True)
    pc.set_defaults(fn=_cmd_calibrate)

    pr = sub.add_parser("rabi", help="simulated Rabi amplitude sweep")
    pr.add_argument("--amplitudes", required=True)
    pr.add_argument("--qubit", type=int, default=0)
    pr.add_argument("--window", type=int, default=None, help="observation window in dt")
    pr.add_argument("--noise")
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=_cmd_rabi)

    pb = sub.add_parser("rb", help="randomized benchmarking, fixed vs optimized")
    pb.add_argument("--qubits", type=int, required=True)
    pb.add_argument("--lengths", required=True)
    pb.add_argument("--mode", choices=(STATIC, DYNAMIC), default=STATIC)
    pb.add_argument("--min-dur", type=int, default=None, help="default: the gate set's own bound")
    pb.add_argument("--max-dur", type=int, default=None, help="default: the gate set's own bound")
    pb.add_argument("--shots", type=int, default=1024)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--circuits-per-length", type=int, default=10)
    pb.add_argument("--gateset", help="reuse a calibrated gate set JSON")
    pb.add_argument("--noise")
    pb.add_argument("--out-dir", required=True)
    pb.set_defaults(fn=_cmd_rb)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PulseschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
