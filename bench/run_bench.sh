#!/usr/bin/env bash
# Runs the microbenchmark suite and records the results as JSON at the
# repository root (BENCH_micro.json), seeding the performance trajectory
# across PRs. Usage:
#
#   bench/run_bench.sh [build-dir] [extra google-benchmark args...]
#
# The build directory defaults to ./build-bench, a dedicated Release tree
# this script configures (and builds) itself — benchmark numbers recorded
# from unoptimised builds are worse than useless, so the script refuses to
# write BENCH_micro.json unless the benchmark context reports a release
# build of the code under test (the bml_build_type key bench_micro stamps;
# google-benchmark's own library_build_type only describes how the system
# benchmark library was compiled).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-bench}"
shift || true

bench="${build_dir}/bench_micro"
if [[ ! -x "${bench}" ]]; then
  echo "configuring Release benchmark build in ${build_dir}" >&2
  cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
fi
# Always (re)build: recording numbers from a stale binary silently drops
# newly added benchmarks; an up-to-date incremental build is a no-op.
cmake --build "${build_dir}" --target bench_micro -j "$(nproc)"

out="${repo_root}/BENCH_micro.json"
tmp="$(mktemp)"
trap 'rm -f "${tmp}"' EXIT
"${bench}" \
  --benchmark_format=json \
  --benchmark_out="${tmp}" \
  --benchmark_out_format=json \
  "$@" >/dev/null

# Refuse to record numbers from a debug build of the code under test.
if ! grep -q '"bml_build_type": "release"' "${tmp}"; then
  echo "error: benchmark context does not report a release build:" >&2
  grep '"bml_build_type"\|"library_build_type"' "${tmp}" >&2 || true
  echo "rebuild with -DCMAKE_BUILD_TYPE=Release (or point the script at a" >&2
  echo "Release build dir) before recording BENCH_micro.json" >&2
  exit 1
fi

# Refuse to record a report that silently dropped a gated benchmark.
# CI's ratio gates (bench/gates.py) read these names out of the JSON; a
# rename or an accidental filter would otherwise turn a gate into a no-op
# instead of a failure.
if ! python3 "${repo_root}/bench/gates.py" require "${tmp}"; then
  echo "refusing to record BENCH_micro.json — a gated benchmark was" \
       "renamed, deleted, or filtered out; CI regression gates would" \
       "silently stop gating." >&2
  exit 1
fi

mv "${tmp}" "${out}"
trap - EXIT
echo "wrote ${out}"

# Append a timestamped record to the append-only history, so the
# performance trajectory across PRs stays inspectable after BENCH_micro
# is overwritten.
history="${repo_root}/BENCH_history.jsonl"
python3 - "${out}" "${history}" <<'EOF'
import datetime
import json
import sys

out_path, history_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    report = json.load(f)
record = {
    "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    "benchmarks": {
        b["name"]: {
            "real_time": b["real_time"],
            "time_unit": b["time_unit"],
            **({"items_per_second": b["items_per_second"]}
               if "items_per_second" in b else {}),
        }
        for b in report["benchmarks"]
    },
}
with open(history_path, "a") as f:
    f.write(json.dumps(record, sort_keys=True) + "\n")
EOF
echo "appended ${history}"
