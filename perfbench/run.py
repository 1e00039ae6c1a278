#!/usr/bin/env python3
"""Benchmark front end for the radio-rs workspace.

Builds the benchmark binary from source (perfbench/Cargo.toml, its own
cargo workspace with path dependencies on crates/), runs one workload in
its own process, checks the outputs, and prints the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T --trace 0

Workloads: mc-stored, scale-lanes, scale-faulted, node-partition (see
BENCHMARK.json and perfbench/README.md).  With --trace 0 the process runs
the closed timed loop with tracing off and reports the end-to-end
metrics.  With --trace 1 it runs a fixed set of units untraced and traced
on the same inputs (outputs must match), at RADIO_THREADS=2 and again at
RADIO_THREADS=1, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The process exits 1 when an
output check fails or the build fails, 2 on bad arguments.  Everything it
writes stays inside the checkout: the build under $CARGO_TARGET_DIR
(default .bench_build) and run records under .perfbench/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["mc-stored", "scale-lanes", "scale-faulted", "node-partition"]
THREADS = 2
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def metric_specs():
    """End-to-end and per-layer metric names and units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: build failed: {e}")
        return None
    if proc.returncode != 0:
        log(f"error: build failed with exit code {proc.returncode}")
        return None
    binary = target_dir() / "release" / "radio-perfbench"
    return binary if binary.exists() else None


def run_child(binary, workload, seed, seconds, traced, toy, threads, spans_out=None,
              corrupt=False):
    """Runs one benchmark process; returns its parsed result line."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    if toy:
        cmd.append("--toy")
    if corrupt:
        cmd.append("--corrupt")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ, RADIO_THREADS=str(threads))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} timed out after {CHILD_TIMEOUT_S} s")
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log(f"error: {workload} printed no result (exit {proc.returncode})")
        return None
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["process_s"] = time.monotonic() - started
    result["threads"] = threads
    return result


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = sorted(p for d in ("crates", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".rs", ".toml", ".lock")
                   and "target" not in p.parts)
    for p in files + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def provenance(seed, child):
    prov = dict(child.get("provenance", {}))
    prov.update({
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rustc": rustc_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_seed": seed,
    })
    return prov


def select(metrics, specs, workload):
    """The metrics named in `specs`, with units checked against them."""
    out = {}
    for spec in specs:
        got = metrics.get(spec["name"])
        if got is None:
            raise ValueError(f"{workload}: metric {spec['name']} missing")
        if got["unit"] != spec["unit"]:
            raise ValueError(f"{workload}: {spec['name']} unit {got['unit']} != {spec['unit']}")
        out[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return out


def run_workload(binary, workload, seed, seconds, trace, toy, corrupt=False):
    """Runs one workload (one or two processes); returns (result, record)."""
    end_to_end, per_layer = metric_specs()
    record = {"workload": workload, "trace": trace, "children": []}
    failures = []
    if not trace:
        child = run_child(binary, workload, seed, seconds, False, toy, THREADS, corrupt=corrupt)
        if child is None:
            return None, record
        record["children"].append(child)
        metrics = select(child["metrics"], end_to_end, workload)
        attempted, failed = child["attempted"], child["failed"]
        failures += child["failures"]
    else:
        spans_dir = ROOT / ".perfbench" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        passes = {}
        for threads in (THREADS, 1):
            spans = spans_dir / f"{workload}-seed{seed}-threads{threads}.jsonl"
            child = run_child(binary, workload, seed, seconds, True, toy, threads, spans, corrupt)
            if child is None:
                return None, record
            record["children"].append(child)
            passes[threads] = child
            failures += child["failures"]
        main, single = passes[THREADS], passes[1]
        if main["digest"] != single["digest"]:
            failures.append(f"{workload}: outputs differ between RADIO_THREADS={THREADS} and 1")
        all_metrics = dict(main["metrics"])
        all_metrics["sim.runner.scaling_2v1"] = {
            "value": main["untraced_trials_per_s"] / max(single["untraced_trials_per_s"], 1e-12),
            "unit": "ratio",
        }
        metrics = select(all_metrics, per_layer, workload)
        attempted = main["attempted"]
        failed = main["failed"] + single["failed"] + int(main["digest"] != single["digest"])
    record["provenance"] = provenance(seed, record["children"][0])
    record["failures"] = failures
    result = {"correct": failed == 0 and all(c["exit_code"] == 0 for c in record["children"]),
              "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
    return result, record


def save_record(record, seed, trace):
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_table(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload:>15}  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:>15}  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-tests only: make every output check fail")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        result, record = run_workload(binary, w, args.seed, args.seconds, args.trace, args.toy,
                                      args.corrupt)
        if result is None:
            return 1
        path = save_record(record, args.seed, args.trace)
        for f in record["failures"]:
            log(f"check failed: {f}")
        print(json.dumps({"workload": w, "record": str(path.relative_to(ROOT)),
                          "provenance": record["provenance"]}))
        print_table(w, result)
        results[w] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
