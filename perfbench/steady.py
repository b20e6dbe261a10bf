#!/usr/bin/env python3
"""Steadiness runs: two sets of benchmark runs, alternating in time.

    python3 perfbench/steady.py --runs 10 --seconds 30 --out steady.json
    python3 perfbench/steady.py --a ../parent --b . --runs 10   # A/B compare

Run i of every workload uses seed `--first-seed + i`, the same seed in both
sets. Within run i the workloads are interleaved, and each workload runs set
A then set B on even i and B then A on odd i, so slow drift of the host
lands on both sets alike. Every run is a fresh `perfbench/run.py` process in
its set's checkout, one at a time. Prints, per set, workload and end-to-end
metric, the sample count, median, quartiles and interquartile spread as a
share of the median, then set B's median against set A's; writes the same
as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import END_TO_END, quartiles  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", type=Path, default=HERE.parent)
    parser.add_argument("--b", type=Path, default=HERE.parent)
    # Defaults: the gated workloads and run length of BENCHMARK.json.
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in manifest["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=manifest["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=11)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    sets = {"A": args.a.resolve(), "B": args.b.resolve()}

    samples = {s: {w: {m: [] for m in END_TO_END} for w in workloads}
               for s in sets}
    correct = True
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                result = run_once(sets[s], w, seed, args.seconds)
                correct = correct and result["correct"]
                for m in END_TO_END:
                    samples[s][w][m].append(result["metrics"][m]["value"])
                print(f"run {i} {w} set {s} seed {seed}: " + " ".join(
                    f"{m}={result['metrics'][m]['value']:.5g}"
                    for m in END_TO_END), file=sys.stderr, flush=True)

    report = {"runs": args.runs, "seconds": args.seconds,
              "first_seed": args.first_seed, "correct": correct,
              "sets": {s: os.path.relpath(p, HERE.parent)
                       for s, p in sets.items()},
              "workloads": {}}
    print(f"{'workload':<11}{'metric':<16}{'set':<4}{'n':>3}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}")
    for w in workloads:
        entry = report["workloads"][w] = {}
        for m, (_, better, bound) in END_TO_END.items():
            stats = {s: summarize(samples[s][w][m]) for s in sets}
            a, b = stats["A"]["median"], stats["B"]["median"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            entry[m] = {**stats, "bound": bound, "b_worse_than_a": worse}
            for s in sets:
                st = stats[s]
                print(f"{w:<11}{m:<16}{s:<4}{st['n']:>3}{st['median']:>12.5g}"
                      f"{st['q1']:>12.5g}{st['q3']:>12.5g}"
                      f"{st['spread']:>8.3f}{bound:>7}")
            print(f"{'':<27}B worse than A by {worse:+.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
