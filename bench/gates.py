#!/usr/bin/env python3
"""The ratio gates of a Release bench_micro, as one table, each read from
paired timings so that the host's drift between phases cancels out of each
ratio: one bench_micro process times a gate's numerator and denominator
alternately, A B B A per round for five rounds (`bench_micro --abba=A,B`),
and the gate checks the median of the ten per-pair ratios.

  bench/gates.py run BENCH_MICRO [REPORT]  time every gate in pairs into
                                           REPORT (gates.json), check
  bench/gates.py check REPORT              check a report from `run`
  bench/gates.py require REPORT            fail if a gated or recorded
                                           benchmark is missing from a
                                           google-benchmark report
"""
import json
import statistics
import subprocess
import sys

# (numerator, denominator, metric, direction, bound): the ratio of the two
# sides. An items_per_second gate bounds a speedup from below, a
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
MIN_TIME = "0.25"  # seconds per timing


def gated_names():
    return list(dict.fromkeys(n for gate in GATES for n in gate[:2]))


def check(report):
    """Each gate's median over its pairs of adjacent readings."""
    passed = True
    for num, den, metric, direction, bound in GATES:
        entry = next((g for g in report["gates"]
                      if g["numerator"] == num and g["denominator"] == den),
                     None)
        if entry is None:
            print(f"FAIL {num} / {den}: not in the report")
            passed = False
            continue
        key = "real_time_s" if metric == "real_time" else metric
        readings = entry["readings"]
        ratios = []
        for a, b in zip(readings[0::2], readings[1::2]):
            side = {a["name"]: a[key], b["name"]: b[key]}
            ratios.append(side[num] / side[den])
        ratio = statistics.median(ratios)
        ok = ratio >= bound if direction == ">=" else ratio <= bound
        passed &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {num} / {den} ({metric}) = "
              f"{ratio:.2f}x, median of {len(ratios)} pairs "
              f"({min(ratios):.2f}-{max(ratios):.2f}x) "
              f"(required: {direction} {bound:g}x)")
    return passed


def require(report):
    names = [b["name"] for b in report.get("benchmarks", [])]
    missing = [g for g in gated_names() + RECORDED
               if not any(n == g or n.startswith(g + "/") for n in names)]
    if missing:
        print("error: gated benchmark(s) missing from the report:\n  " +
              "\n  ".join(missing), file=sys.stderr)
    return not missing


def run(bench):
    gates = []
    for num, den, *_ in GATES:
        out = subprocess.run([bench, f"--abba={num},{den}",
                              f"--benchmark_min_time={MIN_TIME}"],
                             check=True, stdout=subprocess.PIPE, text=True)
        gates.append({"numerator": num, "denominator": den,
                      "readings": json.loads(out.stdout)["readings"]})
    return {"gates": gates}


def main(argv):
    if len(argv) in (2, 3) and argv[0] == "run":
        out = argv[2] if len(argv) == 3 else "gates.json"
        with open(out, "w") as f:
            json.dump(run(argv[1]), f, indent=1)
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
