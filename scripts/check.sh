#!/usr/bin/env bash
# Pre-push gate: formatting, lints, doc build, and the full test suite.
#
# Usage: scripts/check.sh [--fast]
#   --fast  skip the release build (debug tests only)
#
# Every step must pass with warnings promoted to errors; this is the same
# set of checks a reviewer runs, so run it before pushing.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

step() { printf '\n==> %s\n' "$*"; }

# Runs one selective `cargo test` step and fails it when no test ran, so
# a name filter that stops matching (say, after a rename) cannot pass on
# "running 0 tests".
ctest() {
  local out
  if ! out=$(cargo test "$@" 2>&1); then
    printf '%s\n' "$out"
    return 1
  fi
  printf '%s\n' "$out"
  if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    echo "error: 'cargo test $*' ran no tests" >&2
    return 1
  fi
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

step "cargo test (debug)"
cargo test --workspace --offline -q

# The fault-model cross-kernel contract (crash/sleep/jam/burst plans replay
# bit-identically on the sparse, dense, and lane-batched kernels) is also
# pinned explicitly, debug here and release below.
step "fault-model differential suite (debug)"
ctest --offline -q -p radio-sim fault
ctest --offline -q -p radio-integration --test fault_differential

# The cross-backend contract: the implicit (seed-only) and sharded sweep
# backends must be bit-identical to the explicit round engine, faulted and
# lossy runs included, under a serial and an oversubscribed default fill
# budget (the suite pins explicit worker counts 1/2/3/8 itself).
step "backend differential suite (debug)"
for threads in 1 8; do
  RADIO_THREADS="$threads" ctest --offline -q -p radio-sim sweep
  RADIO_THREADS="$threads" ctest --offline -q -p radio-integration --test backend_differential
done

# The exec-planner contract: RunSpec planning is a pure function of its
# inputs, and the lane planes it schedules on provider backends are
# bit-identical to scalar explicit runs on the matching child_rng streams
# regardless of the worker budget.
step "exec planner suite (debug)"
for threads in 1 8; do
  RADIO_THREADS="$threads" ctest --offline -q -p radio-sim exec
  RADIO_THREADS="$threads" ctest --offline -q \
    -p radio-integration --test backend_differential implicit_lane_planes
done

# The tiled-kernel contract: every lane is bit-identical to the scalar
# and batch runners, and the whole result vector is invariant under the
# intra-round worker count.  The suite pins worker counts 1/3/8
# internally; the RADIO_THREADS sweep additionally pins the env-driven
# default pool size the CLI picks up.
step "tiled kernel differential suite (debug)"
ctest --offline -q -p radio-sim tiled
for threads in 1 8; do
  RADIO_THREADS="$threads" ctest --offline -q \
    -p radio-integration --test kernel_differential
done

# The lane-coin contract: `Xoshiro256pp::lane_coins` (AVX-512 path when
# the CPU has it, scalar path always) equals a per-lane `coin` loop, and
# every stock protocol's `transmits_lanes` equals its scalar `transmits`
# on the Batch, Tiled and LaneSweep engines, plain, lossy and faulted.
step "lane decision suite (debug)"
ctest --offline -q -p radio-graph lane_coins
ctest --offline -q -p radio-integration --test lane_decisions

# The broadcast-service contract: a partitioned 64-node cluster must heal
# to coverage 1.0, and the stripped NodeReport must be byte-identical
# across thread budgets (the service's RADIO_THREADS-independence pin).
step "node service smoke (debug)"
cargo build --offline -q -p radio-node
node_smoke() { # $1 = binary
  "$1" workload --nodes 64 --ops 8 --ticks 600 --trials 2 --seed 11 \
    --partition 10:120 --faults crash=0.05 \
    --assert-coverage 1.0 --strip-timing --json
}
a=$(RADIO_THREADS=1 node_smoke target/debug/radio-node)
b=$(RADIO_THREADS=8 node_smoke target/debug/radio-node)
[ "$a" = "$b" ] || { echo "node smoke: report differs across RADIO_THREADS" >&2; exit 1; }

if [ "$fast" -eq 0 ]; then
  step "cargo build --release"
  cargo build --workspace --release --offline -q

  # The kernel equivalence suite (sparse == dense == reference, byte-stable
  # traces) re-runs in release mode: the dense kernel's word arithmetic and
  # the Auto dispatch must hold under optimization, not just in debug.
  step "differential kernel tests (release)"
  ctest --release --offline -q -p radio-sim kernel
  ctest --release --offline -q -p radio-integration --test props_cross_crate kernel

  # The lane-batched runner's bit-identity contract (every lane == the
  # scalar run on the same stream, lossy included) likewise must survive
  # optimization.
  step "batch equivalence suite (release)"
  ctest --release --offline -q -p radio-sim batch
  ctest --release --offline -q -p radio-integration --test batch_vs_scalar

  # The fault-model differential suite re-runs in release: the dense
  # resolution (jammer rows saturate both planes), the Auto dispatch and
  # the batch jam/burst word arithmetic must stay bit-identical to the
  # sparse reference under optimization.
  step "fault-model differential suite (release)"
  ctest --release --offline -q -p radio-sim fault
  ctest --release --offline -q -p radio-integration --test fault_differential

  # The cross-backend suite re-runs in release under both fill budgets:
  # geometric skip sampling and the block fill's worker merge must
  # reproduce the explicit engine bit-for-bit under optimization.
  step "backend differential suite (release)"
  for threads in 1 8; do
    RADIO_THREADS="$threads" ctest --release --offline -q -p radio-sim sweep
    RADIO_THREADS="$threads" ctest --release --offline -q \
      -p radio-integration --test backend_differential
  done

  # The exec-planner suite re-runs in release under both worker budgets:
  # planner purity and the lane-plane bit-identity must survive
  # optimization and be invariant under the thread budget.
  step "exec planner suite (release)"
  for threads in 1 8; do
    RADIO_THREADS="$threads" ctest --release --offline -q -p radio-sim exec
    RADIO_THREADS="$threads" ctest --release --offline -q \
      -p radio-integration --test backend_differential implicit_lane_planes
  done

  # The tiled kernel re-runs in release under both a serial and an
  # oversubscribed pool: the AVX-512 sweep, the compact transmitter
  # table, and the block-cursor work stealing must stay bit-identical
  # to the scalar engine under optimization.
  step "tiled kernel differential suite (release)"
  ctest --release --offline -q -p radio-sim tiled
  for threads in 1 8; do
    RADIO_THREADS="$threads" ctest --release --offline -q \
      -p radio-integration --test kernel_differential
  done

  # The lane-coin primitive and the protocol overrides re-run in release:
  # the vector path and the threshold compare must stay bit-identical to
  # the scalar coins under optimization.
  step "lane decision suite (release)"
  ctest --release --offline -q -p radio-graph lane_coins
  ctest --release --offline -q -p radio-integration --test lane_decisions

  # The broadcast-service contract re-runs in release at cluster scale
  # (1024 nodes, partition + crash + loss): full coverage after heal,
  # byte-identical stripped reports across thread budgets, and the
  # debug-built report must match release bit-for-bit.
  step "node service (release, 1024 nodes)"
  node_scale() { # $1 = binary
    RADIO_THREADS="$2" "$1" workload --nodes 1024 --ops 32 --ticks 1200 --seed 42 \
      --partition 10:150 --faults crash=0.05,sleep=0.05 --loss 0.02 \
      --assert-coverage 1.0 --strip-timing --json
  }
  r1=$(node_scale target/release/radio-node 1)
  r8=$(node_scale target/release/radio-node 8)
  [ "$r1" = "$r8" ] || { echo "node scale: report differs across RADIO_THREADS" >&2; exit 1; }
  d1=$(node_scale target/debug/radio-node 1)
  [ "$r1" = "$d1" ] || { echo "node scale: debug and release reports differ" >&2; exit 1; }

  # The experiment registry: the driver must list all experiments, and the
  # smoke suite runs every registered experiment at a tiny grid and checks
  # the parallel `all` path is bit-identical to serial.
  step "experiment registry (release)"
  cargo run --release --offline -q -p radio-bench -- list
  ctest --release --offline -q -p radio-bench --test registry
fi

# The tracked size of the simulator crate (report only).
step "crates/sim line count"
scripts/sim_loc.sh

printf '\nall checks passed\n'
