#!/usr/bin/env python3
"""End-to-end benchmark of the BML simulator's sweep path.

    python3 perfbench/run.py --workload worldcup --seed 1 --seconds 40 --trace 0

Builds the library and the harness (perfbench/harness.cpp) from source in
.bench_build, writes the workload's spec with the seed in every seed key,
then runs the harness in a fresh process per pass — load_scenario ->
run_sweep(threads = 1) -> SweepReport::to_csv, the path of
`bmlsim sweep --threads 1 --csv` — until --seconds is spent. Every pass's
CSV is checked. The last stdout line is one JSON object:

    {"correct": ..., "attempted": <rows>, "failed": <rows>, "metrics": {...}}

--trace 0 reports the end-to-end metrics over the passes; --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
prints the span table and writes the spans as Chrome trace-event JSON under
.bench_build/traces/. --pin rewrites the workload's reference CSV. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "bml_perfbench"
REFERENCE = BENCH / "reference"

# The seed whose CSVs are pinned under perfbench/reference/.
DEFAULT_SEED = 1
# A run must end within 180 s; a pass never starts past this budget.
HARD_LIMIT_S = 165.0


def fault_seeds(seed: int) -> str:
    """Three fault timelines per seed, disjoint across seeds: the replay
    cost of a faulty spec swings with its timeline, so one timeline per run
    would make the seed, not the code, move the figures."""
    return f"{3 * seed + 1},{3 * seed + 2},{3 * seed + 3}"


@dataclass(frozen=True)
class Workload:
    spec: str
    # Spec keys the benchmark seed is written into: key -> value(seed). A
    # `sweep` key the spec lacks is appended as a new axis.
    seeds: dict
    rows: int


WORKLOADS = {
    "fleet": Workload("examples/specs/fleet_scale.scn",
                      {"seed": str, "faults.seed": str,
                       "sweep faults.seed": fault_seeds}, 3),
    "worldcup": Workload("examples/specs/fig5_worldcup.scn",
                         {"trace.seed": str}, 3),
    "predictors": Workload("perfbench/specs/predictors.scn",
                           {"trace.seed": str}, 5),
    # Only the traces follow the seed; the spec's three fault timelines are
    # fixed (perfbench/README.md, `channels`).
    "channels": Workload("perfbench/specs/channels.scn", {"seed": str}, 3),
}

# name -> (unit, better, bound); BENCHMARK.json mirrors these.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "app_days_per_s": ("app-day/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_frac": ("fraction", "higher", 0.05),
}

SPAN_END_CAUSES = (
    "scheduler-stable", "trace-change", "transition-complete", "fault",
    "crew-completion", "slo-crossing", "overload-crossing", "churn",
    "day-boundary", "trace-end")

# name -> (unit, better)
PER_LAYER = {
    "scenario.spec_s": ("s", "lower"),
    "arch.catalog_s": ("s", "lower"),
    "trace.generate_s": ("s", "lower"),
    "trace.index_s": ("s", "lower"),
    "trace.dedup_s": ("s", "lower"),
    "trace.samples": ("count", "lower"),
    "trace.distinct_frac": ("fraction", "lower"),
    "trace.compile_s": ("s", "lower"),
    "trace.segments": ("count", "lower"),
    "core.design_s": ("s", "lower"),
    "core.table_entries": ("count", "lower"),
    "core.plan_s": ("s", "lower"),
    "build.probe_sum_s": ("s", "lower"),
    "sched.construct_s": ("s", "lower"),
    "sim.replay_s": ("s", "lower"),
    "sim.row_replay_max_s": ("s", "lower"),
    "sim.row_replay_min_s": ("s", "lower"),
    "sim.spans": ("count", "lower"),
    "sim.us_per_span": ("us", "lower"),
    "sim.scheduler_consults": ("count", "lower"),
    "sim.consults_per_span": ("count/span", "lower"),
    "sim.merge.frontier_advances": ("count", "lower"),
    **{f"sim.span_end.{c}": ("count", "lower") for c in SPAN_END_CAUSES},
    "sim.span_seconds_mean": ("s", "higher"),
    "sim.decisions_applied": ("count", "lower"),
    "sim.preemptions": ("count", "lower"),
    "report.render_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}

# CSV columns compared exactly as integers; strings compare exactly; every
# other column is real and compares within REAL_TOLERANCE relative (the
# repository's equivalence contract).
INT_COLUMNS = {
    "reconfigurations", "qos_violation_s", "peak_machines",
    "machine_failures", "group_strikes", "spare_seconds", "overload_seconds",
    "preemptions", "arrivals", "departures", "preempted_seconds",
    "active_seconds"}
STRING_COLUMNS = {"scenario", "scheduler_name", "name"}
REAL_TOLERANCE = 1e-9
APP_PREFIX = re.compile(r"^app(\d+)_")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class BenchError(RuntimeError):
    """A failure of the benchmark itself: nothing is reported."""


# --- build -----------------------------------------------------------------

def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources under {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bml_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:], proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(step))


# --- inputs ----------------------------------------------------------------

def seeded_spec(text: str, assignments: dict) -> str:
    """Rewrites each `key = value` line named in `assignments`; a sweep
    axis the spec does not declare is appended."""
    for key, value in assignments.items():
        pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
        text, count = pattern.subn(f"{key} = {value}", text)
        if count == 0 and key.startswith("sweep "):
            text = text.rstrip("\n") + f"\n{key} = {value}\n"
        elif count != 1:
            raise BenchError(f"spec has {count} '{key} =' lines, expected 1")
    return text


def make_spec(workload: str, seed: int, out_dir: Path) -> Path:
    w = WORKLOADS[workload]
    source = ROOT / w.spec
    if not source.is_file():
        raise BenchError(f"missing spec {w.spec}")
    text = seeded_spec(source.read_text(),
                       {k: f(seed) for k, f in w.seeds.items()})
    path = out_dir / f"{workload}-seed{seed}.scn"
    path.write_text(text)
    return path


def expected_scenarios(spec_text: str) -> list:
    """Row names run_sweep gives the grid: base[k1=v1,...], first axis
    outermost."""
    name = re.search(r"^name\s*=\s*(.*?)\s*$", spec_text, re.MULTILINE)
    base = name.group(1) if name else "scenario"
    axes = [(k.strip(), [v.strip() for v in vs.split(",")]) for k, vs in
            re.findall(r"^sweep\s+(\S+)\s*=\s*(.*?)\s*$", spec_text,
                       re.MULTILINE)]
    names = [base]
    if axes:
        names = []
        combos = [[]]
        for key, values in axes:
            combos = [c + [(key, v)] for c in combos for v in values]
        for combo in combos:
            names.append(base + "[" +
                         ",".join(f"{k}={v}" for k, v in combo) + "]")
    return names


# --- checks ----------------------------------------------------------------

def column_kind(column: str, axis_columns: set) -> str:
    if column in axis_columns:
        return "string"
    base = APP_PREFIX.sub("", column)
    if base in STRING_COLUMNS:
        return "string"
    return "int" if base in INT_COLUMNS else "real"


def close(a: float, b: float, tol: float = REAL_TOLERANCE) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def cells_match(got: str, want: str, kind: str) -> bool:
    if kind == "string" or got == want:
        return got == want
    try:
        if kind == "int":
            return int(got) == int(want)
        return close(float(got), float(want))
    except ValueError:
        return False


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def axis_columns(header: list) -> set:
    try:
        return set(header[1:header.index("scheduler_name")])
    except ValueError:
        return set()


def row_invariants(record: dict) -> list:
    """Invariants that hold for every row at any seed; returns violations."""
    bad = []

    def num(column):
        return float(record[column])

    for column, value in record.items():
        if value == "":
            continue
        if column_kind(column, set()) == "int":
            try:
                if int(value) < 0:
                    bad.append(f"{column} < 0")
            except ValueError:
                bad.append(f"{column} not an integer")
    total, compute, reconf = (num("total_energy_j"), num("compute_energy_j"),
                              num("reconfiguration_energy_j"))
    if not close(total, compute + reconf):
        bad.append("total != compute + reconfiguration")
    if min(compute, reconf, num("mean_power_w")) < 0:
        bad.append("negative energy or power")
    # Known deviation: a tenant's availability divides its fault domain's
    # whole-run downtime by the tenant's own residency, so with an
    # arrive/depart window it can drop below 0; only its upper bound holds.
    lifecycle = "arrivals" in record
    for column in record:
        kind = APP_PREFIX.sub("", column)
        if record[column] == "" or kind not in ("served_fraction",
                                                "availability"):
            continue
        windowed = lifecycle and kind == "availability" and column != kind
        low = -math.inf if windowed else 0.0
        if not low <= num(column) <= 1.0:
            bad.append(f"{column} outside [0, 1]")
    apps = sorted({int(m.group(1)) for c in record
                   if (m := APP_PREFIX.match(c)) and record[c] != ""})
    if apps:
        app_compute = math.fsum(num(f"app{i}_compute_energy_j") for i in apps)
        if not close(app_compute, compute):
            bad.append("per-app compute energies do not sum to the total")
        # Known deviation: with an arrive/depart window the per-app
        # reconfiguration energies miss the total by ~1e-7 relative, so the
        # sum is only checked on lifecycle-free rows.
        if "arrivals" not in record:
            app_reconf = math.fsum(
                num(f"app{i}_reconfiguration_energy_j") for i in apps)
            if not close(app_reconf, reconf):
                bad.append("per-app reconfiguration energies do not sum "
                           "to the total")
    return bad


def check_csv(text: str, scenarios: list, reference: str | None,
              first: str | None) -> tuple:
    """Returns (rows passing every check, violation messages). Rows are
    judged against the grid (`scenarios`), the pinned reference (when one
    applies), the invariants, and the first pass's bytes."""
    header, rows = parse_csv(text)
    problems = []
    if len(rows) != len(scenarios) or not header:
        return 0, [f"{len(rows)} rows, expected {len(scenarios)}"]
    axes = axis_columns(header)
    ref_header, ref_rows = parse_csv(reference) if reference else ([], [])
    if reference is not None and (ref_header != header or
                                  len(ref_rows) != len(rows)):
        return 0, ["header or row count differs from the reference"]
    first_lines = first.splitlines() if first is not None else None
    lines = text.splitlines()
    passed = 0
    for i, row in enumerate(rows):
        errors = []
        if len(row) != len(header):
            errors.append("ragged row")
        else:
            record = dict(zip(header, row))
            if record["scenario"] != scenarios[i]:
                errors.append(f"scenario {record['scenario']!r}")
            try:
                errors += row_invariants(record)
            except (KeyError, ValueError) as e:
                errors.append(f"unreadable row: {e}")
            if reference is not None:
                for column, got, want in zip(header, row, ref_rows[i]):
                    if not cells_match(got, want, column_kind(column, axes)):
                        errors.append(f"{column}: {got} != reference {want}")
        if first_lines is not None and first_lines[:1] + first_lines[i + 1:i + 2] \
                != lines[:1] + lines[i + 1:i + 2]:
            errors.append("CSV bytes differ from the first pass")
        if errors:
            problems.append(f"row {i}: " + "; ".join(errors[:5]))
        else:
            passed += 1
    return passed, problems


def load_reference(workload: str) -> str:
    path = REFERENCE / f"{workload}.csv.gz"
    if not path.is_file():
        raise BenchError(f"missing reference {path.relative_to(ROOT)}")
    with gzip.open(path, "rt", newline="") as f:
        return f.read()


def pin(workload: str) -> None:
    """Writes the default-seed reference CSV of `workload` after checking
    it against the invariants."""
    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = make_spec(workload, DEFAULT_SEED, out_dir)
    csv_path = out_dir / f"{workload}-pin.csv"
    p = run_pass([str(HARNESS), str(spec), "--csv", str(csv_path)], csv_path,
                 False, HARD_LIMIT_S)
    if p.csv is None:
        raise BenchError(p.error)
    _, problems = check_csv(p.csv, expected_scenarios(spec.read_text()), None,
                            None)
    if problems:
        raise BenchError("; ".join(problems))
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.csv.gz"
    # mtime 0 and no file name: the same CSV always gives the same bytes.
    with open(path, "wb") as raw, gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0) as f:
        f.write(p.csv.encode())
    log(f"perfbench: wrote {path.relative_to(ROOT)}")


# --- passes ----------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    seconds: float
    data: dict | None = None
    csv: str | None = None
    error: str = ""


def run_pass(command: list, csv_path: Path, traced: bool,
             timeout: float) -> Pass:
    """One fresh harness process. A crash, timeout or unreadable result is
    a failed pass, never an exception."""
    start = time.monotonic()
    result = Pass(traced, 0.0)
    try:
        if csv_path.exists():
            csv_path.unlink()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            result.error = (f"exit {proc.returncode}: "
                            + proc.stderr.strip()[-500:])
        else:
            result.data = json.loads(proc.stdout.strip().splitlines()[-1])
            result.csv = csv_path.read_text()
    except subprocess.TimeoutExpired:
        result.error = "timed out"
    except (OSError, ValueError, IndexError) as e:
        result.error = f"unreadable result: {e}"
    result.seconds = time.monotonic() - start
    return result


def pass_metrics(data: dict) -> dict:
    """End-to-end metrics of one untraced pass."""
    replay = sum(data["row_wall_s"])
    app_days = sum(data["row_active_s"]) / 86400.0
    return {
        "wall_s": data["wall_s"],
        # Everything before the scenarios replay: spec parse, grid
        # expansion and the shared build (run_sweep's rows time only their
        # own replay).
        "setup_s": data["pipeline_s"] - replay,
        "app_days_per_s": app_days / replay if replay > 0 else 0.0,
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Outcome:
    scenarios: list
    attempted: int = 0
    passed: int = 0
    problems: list = field(default_factory=list)
    passes: list = field(default_factory=list)

    @property
    def pass_frac(self) -> float:
        return self.passed / self.attempted


def record(outcome: Outcome, p: Pass, reference: str | None) -> None:
    """Checks one pass and adds its rows to the tally: a pass that crashed
    or printed no result fails every row of the grid."""
    if p.data is not None and p.data.get("build_type") != "release":
        raise BenchError("refusing to time a non-Release build "
                         f"(build_type {p.data.get('build_type')!r})")
    first = next((q.csv for q in outcome.passes if q.csv is not None), None)
    outcome.passes.append(p)
    outcome.attempted += len(outcome.scenarios)
    label = f"pass {len(outcome.passes)}"
    if p.csv is None:
        outcome.problems.append(f"{label}: {p.error}")
        return
    passed, problems = check_csv(p.csv, outcome.scenarios, reference, first)
    outcome.passed += passed
    outcome.problems += [f"{label}: {m}" for m in problems]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            command_prefix: list | None = None) -> Outcome:
    """Runs passes until `seconds` is spent and checks each one."""
    w = WORKLOADS[workload]
    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = make_spec(workload, seed, out_dir)
    scenarios = expected_scenarios(spec.read_text())
    if len(scenarios) != w.rows:
        raise BenchError(f"{workload}: grid of {len(scenarios)} rows, "
                         f"expected {w.rows}")
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"{workload}-seed{seed}.json"
    csv_path = out_dir / f"{workload}-seed{seed}.csv"
    prefix = command_prefix or [str(HARNESS)]

    outcome = Outcome(scenarios)
    start = time.monotonic()
    longest = 0.0
    # A traced run needs an untraced pass to state the tracing overhead.
    min_passes = 2 if trace else 1
    while True:
        traced = trace and len(outcome.passes) % 2 == 1
        command = prefix + [str(spec), "--csv", str(csv_path)]
        if traced:
            command += ["--trace-out", str(trace_path)]
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        p = run_pass(command, csv_path, traced, remaining)
        longest = max(longest, p.seconds)
        record(outcome, p, reference)
        elapsed = time.monotonic() - start
        if elapsed + longest > HARD_LIMIT_S or (
                len(outcome.passes) >= min_passes and
                elapsed + longest > seconds):
            break
    return outcome


# --- reporting -------------------------------------------------------------

def end_to_end_metrics(outcome: Outcome) -> tuple:
    samples = {name: [] for name in END_TO_END if name != "pass_frac"}
    for p in outcome.passes:
        if p.data is not None and not p.traced:
            for name, value in pass_metrics(p.data).items():
                samples[name].append(value)
    # Pass times on a shared host are bimodal (contended or not, switching
    # from one pass to the next), so a median flips with the mix of states;
    # the fastest pass tracks the code. wall_s and app_days_per_s report
    # it, setup_s and peak_rss_mb the median of the passes.
    metrics = {}
    for name, values in samples.items():
        if not values:
            metrics[name] = None
        elif name in ("wall_s", "app_days_per_s"):
            best = min if END_TO_END[name][1] == "lower" else max
            metrics[name] = best(values)
        else:
            metrics[name] = statistics.median(values)
    metrics["pass_frac"] = outcome.pass_frac
    return metrics, samples


def per_layer_metrics(outcome: Outcome) -> dict:
    traced = [p.data for p in outcome.passes if p.traced and p.data]
    untraced = [p.data["wall_s"] for p in outcome.passes
                if not p.traced and p.data]
    metrics = {}
    for name in PER_LAYER:
        values = [d["metrics"][name] for d in traced
                  if name in d.get("metrics", {})]
        metrics[name] = statistics.median(values) if values else None
    if traced and untraced:
        metrics["trace_overhead_frac"] = (
            statistics.median(d["wall_s"] for d in traced)
            / statistics.median(untraced) - 1.0)
    return metrics


def print_end_to_end(workload: str, seed: int, samples: dict,
                     metrics: dict) -> None:
    print(f"{workload} seed {seed}: end-to-end over the untraced passes")
    print(f"  {'metric':<16}{'reported':>12}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'n':>4}  unit  passes")
    for name, (unit, _, _) in END_TO_END.items():
        values = samples.get(name)
        if values:
            q1, med, q3 = quartiles(values)
            print(f"  {name:<16}{metrics[name]:>12.5g}{med:>12.5g}"
                  f"{q1:>12.5g}{q3:>12.5g}{len(values):>4}  {unit}  "
                  + " ".join(f"{v:.4g}" for v in values))
        else:
            print(f"  {name:<16}{metrics[name]!s:>12}{'':>40}  {unit}")


def print_per_layer(workload: str, seed: int, outcome: Outcome,
                    metrics: dict) -> None:
    traced = [p.data for p in outcome.passes if p.traced and p.data]
    if not traced:
        return
    last = traced[-1]
    print(f"{workload} seed {seed}: spans of the last traced pass "
          f"({len(traced)} traced passes)")
    print(f"  {'span':<36}{'calls':>7}{'total_s':>12}{'self_s':>12}")
    for row in last["layers"]:
        print(f"  {row['name']:<36}{row['calls']:>7.0f}"
              f"{row['total_s']:>12.6f}{row['self_s']:>12.6f}")
    setup = statistics.median(pass_metrics(d)["setup_s"] for d in traced)
    print(f"  setup_s of the traced pipeline {setup:.6f} s beside "
          f"build.probe_sum_s {metrics['build.probe_sum_s']:.6f} s")
    print("  row replay (SweepRow::wall_seconds, last traced pass)")
    for name, wall in zip(outcome.scenarios, last["row_wall_s"]):
        print(f"    {name:<48}{wall:>12.6f} s")
    print("per-layer metrics (median of traced passes)")
    for name, (unit, _) in PER_LAYER.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36}{shown:>14}  {unit}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the workload's default-seed reference "
                             "CSV instead of measuring")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        if args.pin:
            pin(args.workload)
            return 0
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    for message in outcome.problems[:20]:
        log(f"perfbench: check failed: {message}")

    e2e, samples = end_to_end_metrics(outcome)
    print_end_to_end(args.workload, args.seed, samples, e2e)
    if args.trace:
        layers = per_layer_metrics(outcome)
        print_per_layer(args.workload, args.seed, outcome, layers)
        chosen = {name: (layers.get(name), unit)
                  for name, (unit, _) in PER_LAYER.items()}
    else:
        chosen = {name: (e2e[name], unit)
                  for name, (unit, _, _) in END_TO_END.items()}
    failed = outcome.attempted - outcome.passed
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
