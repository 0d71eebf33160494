"""Run workloads with several seeds and report the spread of each metric.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--seconds 25] [--trace 0] [WORKLOAD ...]

Each run is a fresh ``run.py`` process. For every metric the script prints the
median, the quartiles from ``statistics.quantiles(values, n=4)``, and the
distance between the quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json. The runs' raw records are in
perfbench/out/runs.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"any of {names}; default all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    for workload in args.workloads or names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            limit = "" if bounds[name] is None else f"  bound/3 {bounds[name] / 3:.3f}"
            print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}{limit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
