#!/usr/bin/env python3
"""Renders the traced layer split of each workload as a markdown table.

Reads the records `run.py --trace 1` left in .perfbench/results/ for one
seed and prints, per workload, where the traced units' time went: the
shares of unit time (init + rounds) spent deciding, regenerating edges,
merging, in the rest of the round loop, and in in-run materialization,
with the tracing overhead and the 2-vs-1-thread scaling.

    python3 perfbench/split.py --seed 7
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    for w in (x["name"] for x in spec["workloads"]):
        path = ROOT / ".perfbench" / "results" / f"{w}-seed{args.seed}-trace1.json"
        if not path.exists():
            print(f"missing {path.relative_to(ROOT)}; run run.py --trace 1 first", file=sys.stderr)
            return 1
        rec = json.loads(path.read_text())
        main_pass = rec["children"][0]
        m = {k: v["value"] for k, v in main_pass["metrics"].items()}
        single = rec["children"][1]
        scaling = main_pass["untraced_trials_per_s"] / max(single["untraced_trials_per_s"], 1e-12)
        unit_s = m["sim.engine.round_s"] + m["sim.engine.init_s"]
        in_run_mat = max(m["sim.engine.round_s"] - m["sim.protocol.decide_s"]
                         - m["sim.sweep.fill_s"] - m["sim.engine.rest_s"], 0.0)
        share = (lambda x: f"{100 * x / unit_s:.0f}%") if unit_s > 0 else (lambda x: "-")
        busy = m["node.node.busy_s"] + m["node.net.busy_s"]
        rows.append([
            w,
            f"{unit_s:.2f}" if unit_s > 0 else f"{busy:.2f} (node+net busy)",
            share(m["sim.protocol.decide_s"]),
            share(m["graph.provider.regen_s"]),
            share(m["sim.sweep.merge_s"]),
            share(m["sim.engine.rest_s"]),
            share(m["sim.engine.init_s"] + in_run_mat),
            f"{100 * m['node.node.busy_s'] / busy:.0f}% / {100 * m['node.net.busy_s'] / busy:.0f}%"
            if busy > 0 else "-",
            f"{m['trace.overhead']:+.1%}",
            f"{scaling:.2f}",
            f"{m['sim.runner.utilization']:.2f}",
        ])
    head = ["workload", "traced unit s", "decide", "regen", "merge", "rest", "init+materialize",
            "node / net busy", "trace overhead", "scaling 2v1", "utilization"]
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for r in rows:
        print("| " + " | ".join(r) + " |")
    prov = json.loads((ROOT / ".perfbench" / "results" /
                       f"{rows[0][0]}-seed{args.seed}-trace1.json").read_text())["provenance"]
    print(f"\nseed {args.seed}; nproc {prov['nproc']}, avx512f {prov['avx512f']}, "
          f"{prov['profile']}, {prov['rustc']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
