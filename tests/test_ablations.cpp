// Tests for the ablations beyond the paper's figures: the shipped
// ablation specs (examples/specs/ablation_*.scn), run at quick settings,
// where every row that serves all requests must spend at least the
// analytic lower bound, and the analytic proportionality metrics and
// RAPL comparison of experiments/ablations.
#include "experiments/ablations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sched/lower_bound.hpp"

namespace bml {
namespace {

const std::filesystem::path kSpecs = BML_SPECS_DIR;

/// The shipped ablation spec `name`, its week shrunk to 2 days of peak
/// 3000 (seed 77) with the tournament on both days.
ScenarioSpec quick(const std::string& name) {
  ScenarioSpec spec = load_scenario(kSpecs / (name + ".scn"));
  spec.set("trace.days", "2");
  spec.set("trace.peak", "3000");
  spec.set("trace.seed", "77");
  spec.set("trace.tournament_start_day", "0");
  spec.set("trace.tournament_end_day", "1");
  return spec;
}

double served(const ScenarioResult& row) {
  return row.sim.qos.served_fraction();
}
Joules energy(const ScenarioResult& row) { return row.sim.total_energy(); }

/// The analytic lower bound of `spec`'s trace and design. All rows of an
/// ablation spec share both, so it is one constant per spec.
Joules lower_bound(const ScenarioSpec& spec) {
  EXPECT_EQ(spec.design_max_rate, "trace-peak");
  const LoadTrace trace = make_trace(spec.trace, spec.trace_params, spec.seed);
  BmlDesignOptions design_options;
  design_options.max_rate = std::max(trace.peak(), 1.0);
  const BmlDesign design = BmlDesign::build(
      make_catalog(spec.catalog, spec.catalog_params), design_options);
  return theoretical_lower_bound_total(design, trace);
}

/// Runs every row of `spec`, checking that each row that serves all
/// requests spends at least the spec's lower bound. (Every test below
/// also asserts that some row serves all, so the check never runs empty.)
std::vector<SweepRow> run_checked(const ScenarioSpec& spec) {
  std::vector<SweepRow> rows = run_sweep(spec, SweepOptions{.threads = 1}).rows;
  const Joules bound = lower_bound(spec);
  EXPECT_GT(bound, 0.0);
  for (const SweepRow& row : rows)
    if (row.sim.qos.unserved_requests == 0.0)
      EXPECT_GE(energy(row), bound) << row.spec.name;
  return rows;
}

/// The ablation_policy row of `scheduler` under `predictor`.
const SweepRow& policy_row(const std::vector<SweepRow>& rows,
                           const std::string& scheduler,
                           const std::string& predictor) {
  const auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
    return r.spec.scheduler == scheduler && r.spec.predictor == predictor;
  });
  if (it == rows.end()) throw std::runtime_error("no row " + scheduler);
  return *it;
}

TEST(PredictionErrorSweep, ZeroErrorIsBaselineAndErrorCostsEnergyOrQos) {
  const auto rows = run_checked(quick("ablation_prediction_error"));
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].spec.predictor_params.at("error_sigma"), "0");
  EXPECT_DOUBLE_EQ(served(rows[0]), 1.0);
  // Symmetric multiplicative error inflates the combination half the time
  // (more energy) and deflates it the other half (QoS loss): at every
  // sigma at least one of the two must degrade.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const bool more_energy = energy(rows[i]) > energy(rows[0]);
    const bool worse_qos = served(rows[i]) < served(rows[0]);
    EXPECT_TRUE(more_energy || worse_qos) << rows[i].spec.name;
  }
}

TEST(WindowSweep, ShortWindowRisksQosLongWindowCostsEnergy) {
  // Windows of 0.5x, 1x, 2x, 4x and 8x the 189 s longest On duration.
  const auto rows = run_checked(quick("ablation_window"));
  ASSERT_EQ(rows.size(), 5u);
  // A window shorter than the Big boot cannot always hide boot latency.
  EXPECT_LT(served(rows[0]), 1.0);
  // The paper's 2x window satisfies QoS.
  EXPECT_EQ(rows[2].spec.scheduler_params.at("window"), "378");
  EXPECT_DOUBLE_EQ(served(rows[2]), 1.0);
  // Longer windows over-provision: energy grows monotonically.
  EXPECT_GT(energy(rows[3]), energy(rows[2]));
  EXPECT_GT(energy(rows[4]), energy(rows[3]));
}

TEST(PolicyComparison, ProactiveOracleSatisfiesQos) {
  const auto rows = run_checked(quick("ablation_policy"));
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_DOUBLE_EQ(served(policy_row(rows, "bml", "oracle-max")), 1.0);
  // The seasonal predictor is reactive but diurnal-aware: it must serve
  // the vast majority of requests.
  EXPECT_GT(served(policy_row(rows, "bml", "seasonal")), 0.95);
  // The plain reactive policy must lose requests (boot latency).
  const SweepRow& reactive = policy_row(rows, "reactive", "oracle-max");
  EXPECT_LT(served(reactive), 1.0);
  // Hysteresis reduces reconfigurations versus plain reactive, under
  // every predictor.
  for (const std::string predictor : {"oracle-max", "moving-max", "seasonal"})
    EXPECT_LT(policy_row(rows, "hysteresis", predictor).sim.reconfigurations,
              reactive.sim.reconfigurations)
        << predictor;
}

TEST(CostAwareAblation, ShorterPaybackReconfiguresLessAndServesAll) {
  // Payback windows 0 (= the 378 s prediction window), 1800 s and 30 s.
  const auto rows = run_checked(quick("ablation_cost_aware"));
  ASSERT_EQ(rows.size(), 3u);
  // The plain pro-active scheduler: ablation_policy's first grid point,
  // bml x oracle-max.
  const ScenarioSpec plain_spec = expand_sweep(quick("ablation_policy"))[0];
  ASSERT_EQ(plain_spec.scheduler, "bml");
  ASSERT_EQ(plain_spec.predictor, "oracle-max");
  const ScenarioResult plain = run_scenario(plain_spec);
  // Scale-ups are never deferred, so every payback window serves all.
  for (const SweepRow& row : rows)
    EXPECT_DOUBLE_EQ(served(row), 1.0) << row.spec.name;
  // Optional reconfigurations must repay their energy within the payback
  // window: the shorter the window, the fewer the cost-aware scheduler
  // pays for, and even the longest pays for fewer than the plain one.
  EXPECT_LT(rows[2].sim.reconfigurations, rows[0].sim.reconfigurations);
  EXPECT_LT(rows[0].sim.reconfigurations, rows[1].sim.reconfigurations);
  EXPECT_LT(rows[1].sim.reconfigurations, plain.sim.reconfigurations);
  // Keeping a stale fleet for a 30 s payback costs energy.
  EXPECT_GT(energy(rows[2]), energy(plain));
}

TEST(BootFaultAblation, TheWindowAbsorbsBootFaults) {
  // Jitter 0, 0.1, 0.3, 0.6 (outer) x failure probability 0, 0.02.
  const auto rows = run_checked(quick("ablation_boot_faults"));
  ASSERT_EQ(rows.size(), 8u);
  const SweepRow& clean = rows[0];
  EXPECT_EQ(clean.spec.boot_time_jitter, 0.0);
  EXPECT_EQ(clean.spec.boot_failure_prob, 0.0);
  EXPECT_DOUBLE_EQ(served(clean), 1.0);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    // The faults reach the run...
    EXPECT_NE(energy(rows[i]), energy(clean)) << rows[i].spec.name;
    // ...but the 2x window hides almost every late boot, at a small
    // energy cost either way.
    EXPECT_GT(served(rows[i]), 0.999) << rows[i].spec.name;
    EXPECT_NEAR(energy(rows[i]), energy(clean), 0.01 * energy(clean))
        << rows[i].spec.name;
  }
}

TEST(ProportionalityMetrics, BmlBeatsEveryRealMachine) {
  const auto rows = run_proportionality_metrics();
  // 5 machines + BML combination + BML linear reference.
  ASSERT_EQ(rows.size(), 7u);
  double best_machine_score = 0.0;
  double bml_score = 0.0;
  for (const auto& row : rows) {
    EXPECT_GE(row.ipr, 0.0);
    EXPECT_LE(row.ipr, 1.0);
    if (row.name == "BML combination")
      bml_score = row.score;
    else if (row.name != "BML linear (ref)")
      best_machine_score = std::max(best_machine_score, row.score);
  }
  // The composed heterogeneous curve is more energy proportional than any
  // single machine — the paper's core claim, in metric form.
  EXPECT_GT(bml_score, best_machine_score);
}

TEST(ProportionalityMetrics, KnownIprValues) {
  const auto rows = run_proportionality_metrics();
  for (const auto& row : rows) {
    if (row.name == "paravance")
      EXPECT_NEAR(row.ipr, 69.9 / 200.5, 1e-9);
    if (row.name == "raspberry")
      EXPECT_NEAR(row.ipr, 3.1 / 3.7, 1e-9);
  }
}

TEST(RaplComparison, CappingCannotShedTheIdleFloor) {
  const auto rows = run_rapl_comparison();
  ASSERT_EQ(rows.size(), 21u);
  EXPECT_EQ(rows.front().rate, 0.0);
  EXPECT_DOUBLE_EQ(rows.back().rate, 4.0 * 1331.0);
  // At zero load BML switches everything off; the capped Big fleet still
  // draws its idle floor. BML never draws more at any rate.
  EXPECT_EQ(rows.front().bml, 0.0);
  EXPECT_GT(rows.front().rapl_big, 0.0);
  for (const RaplRow& row : rows)
    EXPECT_LE(row.bml, row.rapl_big + 1e-9) << "rate " << row.rate;
  EXPECT_THROW((void)run_rapl_comparison(1000.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bml
