#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the acceptance rule reads it.

Runs the BENCHMARK.json command ten times per workload, each time with
another --seed, and prints for each metric the distance between the first
and third quartile of its ten values as a share of their median, next to
the metric's bound. Exits nonzero if a spread (setup_s excepted) exceeds
its bound. Below each workload it prints, for comparison only, the same
spread of the wall-clock values the run printed beside its reference-time
metrics. Run from the repo root:

    python3 benchmark/spread.py [first_seed]
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main() -> int:
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        wall = {}
        for seed in range(first_seed, first_seed + RUNS):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed operations", file=sys.stderr)
                worst = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for line in out.splitlines():
                if line.startswith("wall("):
                    name, value = line.split()[:2]
                    wall.setdefault(name, []).append(float(value))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            over = spread > bounds[name] and name != "setup_s"
            third = "" if spread <= bounds[name] / 3 else "  (above a third of the bound)"
            flag = "EXCEEDS" if over else "ok"
            print(f"{workload:<16} {name:<14} median {med:>12.4f}  spread {spread:.4f} "
                  f"/ bound {bounds[name]:<5} {flag}{third}", flush=True)
            worst |= over
        for name, vals in wall.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload:<16} {name:<28} median {med:>12.4f}  spread {(q3 - q1) / med:.4f}",
                  flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
