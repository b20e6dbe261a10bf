#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark harness.

    python3 -m unittest discover -s perfbench -v

The check tests read the committed references only. The harness tests build
the harness (as perfbench/run.py does) and drive it on scaled-down specs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def mutate(text: str, row: int, column: str, change) -> str:
    """The CSV with one cell replaced by change(old cell)."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def pass_frac(text: str, workload: str, reference: str | None) -> float:
    """pass_frac of one run whose only pass rendered `text`."""
    spec = run.seeded_spec((run.ROOT / run.WORKLOADS[workload].spec)
                           .read_text(),
                           {k: f(run.DEFAULT_SEED) for k, f in
                            run.WORKLOADS[workload].seeds.items()})
    outcome = run.Outcome(run.expected_scenarios(spec))
    run.record(outcome, run.Pass(False, 0.0, {"build_type": "release"}, text),
               reference)
    return outcome.pass_frac


class ReferenceChecks(unittest.TestCase):
    """The default-seed reference check bites on one bad cell."""

    def test_references_pass_their_own_checks(self):
        for workload in run.WORKLOADS:
            ref = run.load_reference(workload)
            self.assertEqual(pass_frac(ref, workload, ref), 1.0, workload)

    def test_integer_cell_off_by_one_fails(self):
        for workload in run.WORKLOADS:
            ref = run.load_reference(workload)
            bad = mutate(ref, 0, "peak_machines", lambda v: str(int(v) + 1))
            self.assertLess(pass_frac(bad, workload, ref), 1.0, workload)
            # The invariants alone cannot see it: only the reference does.
            self.assertEqual(pass_frac(bad, workload, None), 1.0, workload)

    def test_real_cell_off_by_1e6_relative_fails(self):
        for workload in run.WORKLOADS:
            ref = run.load_reference(workload)
            bad = mutate(ref, 0, "mean_power_w",
                         lambda v: repr(float(v) * (1 + 1e-6)))
            self.assertLess(pass_frac(bad, workload, ref), 1.0, workload)
            self.assertEqual(pass_frac(bad, workload, None), 1.0, workload)

    def test_real_cell_within_tolerance_passes(self):
        ref = run.load_reference("worldcup")
        ok = mutate(ref, 0, "mean_power_w",
                    lambda v: repr(float(v) * (1 + 1e-11)))
        self.assertEqual(pass_frac(ok, "worldcup", ref), 1.0)

    def test_invariant_violation_fails_without_reference(self):
        ref = run.load_reference("channels")
        bad = mutate(ref, 1, "total_energy_j",
                     lambda v: repr(float(v) * 1.001))
        self.assertLess(pass_frac(bad, "channels", None), 1.0)

    def test_pass_differing_from_the_first_fails(self):
        ref = run.load_reference("worldcup")
        bad = mutate(ref, 2, "qos_violation_s", lambda v: str(int(v) + 1))
        outcome = run.Outcome(["fig5[scheduler=bml]",
                               "fig5[scheduler=per-day]",
                               "fig5[scheduler=static-max]"])
        good = {"build_type": "release"}
        run.record(outcome, run.Pass(False, 0.0, good, ref), None)
        run.record(outcome, run.Pass(False, 0.0, good, bad), None)
        self.assertEqual((outcome.attempted, outcome.passed), (6, 5))


class Manifest(unittest.TestCase):
    def test_benchmark_json_mirrors_run_py(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        # `fleet` and `channels` stay runnable but are not gated (see
        # README.md).
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         [w for w in run.WORKLOADS
                          if w not in ("fleet", "channels")])
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
            run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_seed_reaches_every_seed_key(self):
        spec = run.seeded_spec(
            (run.ROOT / run.WORKLOADS["fleet"].spec).read_text(),
            {k: f(7) for k, f in run.WORKLOADS["fleet"].seeds.items()})
        self.assertIn("\nseed = 7\n", spec)
        self.assertIn("\nfaults.seed = 7\n", spec)
        self.assertEqual(run.expected_scenarios(spec)[-1],
                         "fleet-scale[faults.seed=24]")


class Harness(unittest.TestCase):
    """Drives the built harness on scaled-down inputs."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.dir = run.BUILD / "selftest"
        cls.dir.mkdir(parents=True, exist_ok=True)

    def harness(self, name: str, spec_text: str, traced: bool = False):
        spec = self.dir / f"{name}.scn"
        spec.write_text(spec_text)
        csv_path = self.dir / f"{name}.csv"
        command = [str(run.HARNESS), str(spec), "--csv", str(csv_path)]
        if traced:
            command += ["--trace-out", str(self.dir / f"{name}.json")]
        p = run.run_pass(command, csv_path, traced, 120.0)
        self.assertEqual(p.error, "")
        return p, run.expected_scenarios(spec_text)

    def small_fleet(self) -> str:
        # 12 replicas per section (48 tenants): the fleet spec at CI scale.
        text = (run.ROOT / run.WORKLOADS["fleet"].spec).read_text()
        return run.seeded_spec(text.replace("replicas = 300", "replicas = 12"),
                               {"seed": "3", "faults.seed": "3",
                                "sweep faults.seed": "1,2,3"})

    def test_setup_s_is_the_pipeline_minus_the_row_replays(self):
        p, scenarios = self.harness("fleet12", self.small_fleet(),
                                    traced=True)
        data = p.data
        self.assertEqual(len(data["row_wall_s"]), len(scenarios))
        setup = run.pass_metrics(data)["setup_s"]
        self.assertEqual(setup, data["pipeline_s"] - sum(data["row_wall_s"]))
        self.assertGreater(setup, 0.0)
        self.assertTrue(all(w > 0.0 for w in data["row_wall_s"]))
        # The rows share one build, so set-up is paid once: the build the
        # probes re-time happens outside every row's clock.
        self.assertLess(sum(data["row_wall_s"]), data["pipeline_s"])
        self.assertGreater(data["metrics"]["build.probe_sum_s"], 0.0)
        self.assertAlmostEqual(data["metrics"]["trace.distinct_frac"], 4 / 48)

    def test_app_days_count_only_residency_windows(self):
        spec = "\n".join([
            "name = windows", "catalog = real", "coordinator = partitioned",
            "[app]", "name = resident", "trace = constant",
            "trace.rate = 400", "trace.duration = 86400",
            "[app]", "name = visitor", "trace = constant",
            "trace.rate = 300", "trace.duration = 86400",
            "arrive = 21600", "depart = 64800",
            "sweep faults.seed = 1,2"]) + "\n"
        p, scenarios = self.harness("windows", spec)
        self.assertEqual(p.data["row_active_s"], [86400 + 43200] * 2)
        replay = sum(p.data["row_wall_s"])
        self.assertEqual(run.pass_metrics(p.data)["app_days_per_s"],
                         2 * 1.5 / replay)
        outcome = run.Outcome(scenarios)
        run.record(outcome, p, None)
        self.assertEqual(outcome.pass_frac, 1.0)

    def test_crash_fails_every_row_of_its_pass(self):
        crash = [sys.executable, "-c",
                 "import os, signal; os.kill(os.getpid(), signal.SIGSEGV)"]
        outcome = run.measure("worldcup", 5, 0.0, False, crash)
        self.assertEqual((outcome.attempted, outcome.passed), (3, 0))
        self.assertEqual(outcome.pass_frac, 0.0)
        self.assertIn("exit -11", outcome.problems[0])
        metrics, _ = run.end_to_end_metrics(outcome)
        self.assertIsNone(metrics["wall_s"])

    def test_one_crash_among_good_passes_lowers_pass_frac(self):
        p, scenarios = self.harness("fleet12b", self.small_fleet())
        outcome = run.Outcome(scenarios)
        run.record(outcome, p, None)
        run.record(outcome, run.Pass(False, 1.0, error="exit -11"), None)
        self.assertEqual(outcome.pass_frac, 0.5)

    def test_spec_error_fails_every_row(self):
        spec = self.dir / "broken.scn"
        spec.write_text("name = broken\nno_such_key = 1\n")
        csv_path = self.dir / "broken.csv"
        p = run.run_pass([str(run.HARNESS), str(spec), "--csv", str(csv_path)],
                         csv_path, False, 60.0)
        self.assertIsNone(p.csv)
        self.assertIn("exit 2", p.error)

    def test_debug_build_is_refused(self):
        fake = [sys.executable, "-c",
                "import sys; open(sys.argv[3], 'w').write('x');"
                "print('{\"build_type\": \"debug\"}')"]
        with self.assertRaises(run.BenchError):
            run.measure("worldcup", 5, 0.0, False, fake)

    def test_held_out_seed_passes_on_invariants_alone(self):
        seed = run.DEFAULT_SEED + 1
        outcome = run.measure("channels", seed, 0.0, False)
        self.assertEqual(outcome.problems, [])
        self.assertEqual(outcome.pass_frac, 1.0)
        metrics, _ = run.end_to_end_metrics(outcome)
        for name in run.END_TO_END:
            self.assertTrue(math.isfinite(metrics[name]) and metrics[name] > 0,
                            name)


if __name__ == "__main__":
    unittest.main()
