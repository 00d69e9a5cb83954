"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10 [--workloads scan-default,...] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.  With --out it also writes
every run's result and the environment to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {}
    for workload in names:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            runs[workload].append({"seed": seed, "lines": lines[:-1],
                                   "result": json.loads(lines[-1])})
        print(f"{workload} ({len(args.seeds)} runs)")
        metrics = runs[workload][0]["result"]["metrics"]
        for name, first in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            med, rel = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:g}" + (
                " over a third of bound" if rel > bound / 3 else "")
            print(f"  {name:42s} median {med:12.6g} {first['unit']:6s} "
                  f"spread {rel:7.2%}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "trace": args.trace,
                                        "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
