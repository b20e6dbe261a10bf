#!/usr/bin/env bash
# Rewrites the golden files under tests/golden/, two per shipped spec in
# examples/specs/:
#
#   <spec>.csv      the sweep CSV, as `bmlsim sweep <spec> --threads 1
#                   --csv` writes it;
#   <spec>.metrics  the deterministic `metrics:` block of the same sweep
#                   with obs.metrics on (`--metrics`), which holds no
#                   wall-clock line.
#
# The GoldenCsv tests compare run_sweep's CSV against these bytes at 1 and
# 4 worker threads, and its metrics at 4.
#
#   tools/pin_golden.sh [BUILD_DIR]     (default: build)
#
# Build BUILD_DIR as Release first. A change that re-pins lists every
# changed file, and why it moved, in CHANGES.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
bmlsim="$build/bmlsim"
if [ ! -x "$bmlsim" ]; then
  echo "pin_golden.sh: no bmlsim binary in $build (build it first)" >&2
  exit 1
fi

golden="$root/tests/golden"
mkdir -p "$golden"
for spec in "$root"/examples/specs/*.scn; do
  name=$(basename "$spec" .scn)
  # The metrics block runs from the line after "metrics:" to the end of
  # the output, less the closing "wrote <csv>" line.
  "$bmlsim" sweep "$spec" --threads 1 --metrics --csv "$golden/$name.csv" \
    | awk '/^wrote /{next} found{print} /^metrics:$/{found=1}' \
    > "$golden/$name.metrics"
  echo "pinned tests/golden/$name.csv and $name.metrics"
done
