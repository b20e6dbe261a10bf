#!/usr/bin/env python3
"""The ratio gates of a Release bench_micro, as one table, checked on the
medians of five repetitions so that one noisy run cannot fail (or pass) a
gate.

  bench/gates.py run BENCH_MICRO [REPORT]  run every gated benchmark once
                                           into REPORT (gates.json), check
  bench/gates.py check REPORT              check an existing report
  bench/gates.py require REPORT            fail if a gated or recorded
                                           benchmark is missing from it
"""
import json
import subprocess
import sys

# (numerator, denominator, metric, direction, bound): the ratio of the two
# medians. An items_per_second gate bounds a speedup from below, a
# real_time gate a cost factor from above.
GATES = [
    # The fast path against the per-second reference on the noisy 7-day
    # WC98-style week. 10x -> 6x when the count-based Cluster and the
    # indexed window max sped the reference up ~2.4x.
    ("BM_SimulatorWeekNoisyEventDriven", "BM_SimulatorWeekNoisyReference",
     "items_per_second", ">=", 6.0),
    # Observing the week on the shared span step (1.6-2.6x); recording on
    # the per-second loop read 6.7-8.7x.
    ("BM_SimulatorWeekNoisyObserved", "BM_SimulatorWeekNoisyEventDriven",
     "real_time", "<=", 4.0),
    # Predictor cursor walks: seasonal slides four windows where
    # oracle-max slides one (2.8-3.1x; probing predict() every second
    # costs ~150x); linear-trend slides its least-squares sums and
    # decides consults from their rounding enclosure (3.1-3.4x; 4.5-9.8x
    # when every consult refit its 600 s window, 46-57x when every walked
    # second did).
    ("BM_SimulatorWeekNoisyPredictor/seasonal",
     "BM_SimulatorWeekNoisyPredictor/oracle-max", "real_time", "<=", 8.0),
    ("BM_SimulatorWeekNoisyPredictor/linear-trend",
     "BM_SimulatorWeekNoisyPredictor/oracle-max", "real_time", "<=", 20.0),
    # Three colocated apps through the fused k-way merge: a constant
    # factor over one app, not a blowup in app count.
    ("BM_MultiAppSimulatorDay", "BM_SimulatorDay", "real_time", "<=", 4.0),
    # A fleet day with a quarter of its tenants churning hourly (~1x).
    ("BM_FleetScaleChurnDay", "BM_FleetScaleDay", "real_time", "<=", 2.0),
    # Rack strikes and crew-queued repairs (~126x); ratcheted 10x -> 40x.
    ("BM_SimulatorWeekCorrelatedFaultsEventDriven",
     "BM_SimulatorWeekCorrelatedFaultsReference",
     "items_per_second", ">=", 40.0),
    # Rng's MT19937-64 words against libstdc++'s engine, same words, same
    # loop: the mask-select twist vectorises, where libstdc++ branches
    # 50/50 on y & 1 in both twist loops. 2.1-3.2x (median 2.7x) over 17
    # runs of five repetitions on a shared 4-vCPU Xeon, so the margin is
    # thin there: profile before touching the bound. Trace generation
    # draws these words, so losing the gap slows every build.
    ("BM_RngWords", "BM_StdMt19937_64Words", "items_per_second", ">=", 2.0),
]
# Recorded in BENCH_micro.json for the performance trajectory, not gated.
RECORDED = ["BM_SimulatorWeekSteadyEventDriven",
            "BM_SimulatorWeekNoisyPredictor/moving-max",
            "BM_SimulatorWeekNoisyScheduler/hysteresis",
            "BM_SimulatorWeekNoisyScheduler/cost-aware",
            "BM_SimulatorWeekNoisyScheduler/bml-ewma",
            "BM_WorldCupTraceGeneration"]
SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def gated_names():
    return list(dict.fromkeys(n for gate in GATES for n in gate[:2]))


def check(report):
    medians = {b["run_name"]: b for b in report["benchmarks"]
               if b.get("aggregate_name") == "median"}

    def value(name, metric):
        b = medians[name]
        return b[metric] * (SECONDS[b["time_unit"]]
                            if metric == "real_time" else 1.0)

    passed = True
    for num, den, metric, direction, bound in GATES:
        if num not in medians or den not in medians:
            print(f"FAIL {num} / {den}: no median in the report")
            passed = False
            continue
        ratio = value(num, metric) / value(den, metric)
        ok = ratio >= bound if direction == ">=" else ratio <= bound
        passed &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {num} / {den} ({metric}) = "
              f"{ratio:.2f}x (required: {direction} {bound:g}x)")
    return passed


def require(report):
    names = [b["name"] for b in report.get("benchmarks", [])]
    missing = [g for g in gated_names() + RECORDED
               if not any(n == g or n.startswith(g + "/") for n in names)]
    if missing:
        print("error: gated benchmark(s) missing from the report:\n  " +
              "\n  ".join(missing), file=sys.stderr)
    return not missing


def main(argv):
    if len(argv) in (2, 3) and argv[0] == "run":
        out = argv[2] if len(argv) == 3 else "gates.json"
        names = "|".join(gated_names())
        subprocess.run([argv[1], f"--benchmark_filter=^({names})$",
                        "--benchmark_repetitions=5",
                        "--benchmark_report_aggregates_only=true",
                        f"--benchmark_out={out}",
                        "--benchmark_out_format=json"], check=True)
    elif len(argv) == 2 and argv[0] in ("check", "require"):
        out = argv[1]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out) as f:
        report = json.load(f)
    return 0 if (require if argv[0] == "require" else check)(report) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
