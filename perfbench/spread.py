#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each end-to-end metric.

    python3 perfbench/spread.py --workload rb-static --seeds 1,2,3,4,5 --seconds 20 [--out summary.json]

For every metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (Q3 - Q1) / median, next
to the bound BENCHMARK.json fixes for that metric.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds, one run each")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the summary as JSON")
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        runs.append(result)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "all_correct": all(r["correct"] for r in runs), "metrics": {}}
    for name, meta in runs[0]["metrics"].items():
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"], s["bound"] = meta["unit"], bounds.get(name)
        summary["metrics"][name] = s
        bound = f"{s['bound']:.2f}" if s["bound"] is not None else "-"
        print(f"{name:24s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f} bound {bound} {meta['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
