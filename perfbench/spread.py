#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload and reports, per
metric, the median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound
is flagged, on every metric, setup_s included.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--seconds T]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench" / "spread"
    out_dir.mkdir(parents=True, exist_ok=True)
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
                sys.stderr.write(proc.stderr[-2000:])
                return 1
            result = json.loads(last)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        (out_dir / f"{w}.json").write_text(json.dumps(values, indent=1) + "\n")
        print(f"## {w} ({len(values['setup_s'])} runs, {args.seconds} s each)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {name:<20} median {med:>14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}{flag}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
