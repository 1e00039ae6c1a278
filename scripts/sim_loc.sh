#!/usr/bin/env bash
# Prints the tracked size of the simulator crate (`crates/sim/src`): all
# lines, and the lines above each file's first `#[cfg(test)]` (the code
# without its unit tests).  Report only; it never fails on a count.
#
# Usage: scripts/sim_loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s globstar
files=(crates/sim/src/**/*.rs)

awk '
  FNR == 1 { in_code = 1 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_code = 0 }
  { all++; if (in_code) code++ }
  END {
    printf "crates/sim/src: %d lines, %d above the test modules (%d files)\n",
      all, code, files
  }
' files="${#files[@]}" "${files[@]}"
