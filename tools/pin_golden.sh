#!/usr/bin/env bash
# Rewrites the golden sweep CSVs under tests/golden/: one file per shipped
# spec in examples/specs/, as `bmlsim sweep <spec> --threads 1 --csv`
# writes it. The GoldenCsv tests compare run_sweep's CSV against these
# bytes at 1 and 4 worker threads.
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

mkdir -p "$root/tests/golden"
for spec in "$root"/examples/specs/*.scn; do
  name=$(basename "$spec" .scn)
  "$bmlsim" sweep "$spec" --threads 1 --csv "$root/tests/golden/$name.csv" \
    > /dev/null
  echo "pinned tests/golden/$name.csv"
done
