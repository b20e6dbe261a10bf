// Cross-module integration tests: application model + schedulers +
// simulator working together as a deployment would.
#include <gtest/gtest.h>

#include <memory>

#include "app/migration.hpp"
#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/cost_aware.hpp"
#include "sched/lower_bound.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "trace/transforms.hpp"
#include "trace/wc98.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

TEST(Integration, CriticalQosBuysHeadroomForEnergy) {
  WorldCupOptions options;
  options.days = 2;
  options.peak = 3000.0;
  options.seed = 31;
  const LoadTrace trace = worldcup_like_trace(options);
  const Simulator simulator(design()->candidates());

  BmlScheduler tolerant(design(), std::make_shared<OracleMaxPredictor>(),
                        0.0, QosClass::kTolerant);
  BmlScheduler critical(design(), std::make_shared<OracleMaxPredictor>(),
                        0.0, QosClass::kCritical);
  const SimulationResult t = simulator.run(tolerant, trace);
  const SimulationResult c = simulator.run(critical, trace);

  // The critical class runs with 10 % capacity headroom: more energy,
  // never worse QoS.
  EXPECT_GT(c.total_energy(), t.total_energy());
  EXPECT_GE(c.qos.served_fraction(), t.qos.served_fraction());
  EXPECT_EQ(c.qos.violation_seconds, 0);
}

TEST(Integration, HeadroomProtectsAgainstUnderPrediction) {
  // Inject a systematic -15 % prediction bias. The tolerant scheduler
  // under-provisions; the critical class's +10 % headroom recovers most of
  // the shortfall.
  WorldCupOptions options;
  options.days = 2;
  options.peak = 3000.0;
  options.seed = 33;
  const LoadTrace trace = worldcup_like_trace(options);
  const Simulator simulator(design()->candidates());

  auto biased = [] {
    return std::make_shared<ErrorInjectingPredictor>(
        std::make_unique<OracleMaxPredictor>(), /*sigma=*/0.0,
        /*bias=*/-0.15, /*seed=*/1);
  };
  BmlScheduler tolerant(design(), biased(), 0.0, QosClass::kTolerant);
  BmlScheduler critical(design(), biased(), 0.0, QosClass::kCritical);
  const SimulationResult t = simulator.run(tolerant, trace);
  const SimulationResult c = simulator.run(critical, trace);

  EXPECT_LT(t.qos.served_fraction(), 1.0);
  EXPECT_GT(c.qos.served_fraction(), t.qos.served_fraction());
}

TEST(Integration, MigrationDowntimeIsSmallForStatelessApp) {
  // Reconfigurations over a full synthetic day: total migration downtime
  // of the stateless web server stays negligible next to the day length.
  WorldCupOptions options;
  options.days = 1;
  options.peak = 2000.0;
  const LoadTrace trace = worldcup_like_trace(options);

  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());
  const MigrationModel migration;
  const ApplicationModel app;

  Combination current = scheduler.initial_combination(trace);
  MigrationCost total;
  for (TimePoint t = 0; t < static_cast<TimePoint>(trace.size()); t += 60) {
    const auto target = scheduler.decide(t, trace);
    if (target.has_value() && !(*target == current)) {
      total += migration.reconfiguration_cost(app, current, *target);
      current = *target;
    }
  }
  EXPECT_LT(total.downtime, 0.01 * static_cast<double>(kSecondsPerDay));
}

TEST(Integration, Wc98RoundTripPreservesSimulationResult) {
  // Serialise a synthetic trace to the WC98 interchange format, reload it,
  // and verify the simulation is bit-identical — the guarantee behind
  // examples/replay_trace.
  WorldCupOptions options;
  options.days = 1;
  options.peak = 1500.0;
  const LoadTrace original = worldcup_like_trace(options);
  const LoadTrace reloaded = parse_wc98(format_wc98(original));
  ASSERT_EQ(reloaded.size(), original.size());

  const Simulator simulator(design()->candidates());
  BmlScheduler s1(design(), std::make_shared<OracleMaxPredictor>());
  BmlScheduler s2(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult a = simulator.run(s1, original);
  const SimulationResult b = simulator.run(s2, reloaded);
  EXPECT_DOUBLE_EQ(a.total_energy(), b.total_energy());
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
}

TEST(Integration, ScaledTraceScalesMachinesNotQos) {
  // Doubling the workload must roughly double the fleet's energy while
  // QoS stays intact — the proportionality promise end to end.
  WorldCupOptions options;
  options.days = 1;
  options.peak = 1500.0;
  const LoadTrace base = worldcup_like_trace(options);
  const LoadTrace doubled = scale(base, 2.0);

  const Simulator simulator(design()->candidates());
  BmlScheduler s1(design(), std::make_shared<OracleMaxPredictor>());
  BmlScheduler s2(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult small = simulator.run(s1, base);
  const SimulationResult large = simulator.run(s2, doubled);

  EXPECT_EQ(small.qos.violation_seconds, 0);
  EXPECT_EQ(large.qos.violation_seconds, 0);
  const double ratio = large.total_energy() / small.total_energy();
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 2.5);
}

TEST(Integration, CostAwareNeverWorseQosThanPlain) {
  WorldCupOptions options;
  options.days = 2;
  options.peak = 4000.0;
  options.seed = 37;
  const LoadTrace trace = worldcup_like_trace(options);
  const Simulator simulator(design()->candidates());

  BmlScheduler plain(design(), std::make_shared<OracleMaxPredictor>());
  CostAwareScheduler aware(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult p = simulator.run(plain, trace);
  const SimulationResult a = simulator.run(aware, trace);
  EXPECT_GE(a.qos.served_fraction(), p.qos.served_fraction());
  // And the lower bound bounds both.
  const Joules lb = theoretical_lower_bound_total(*design(), trace);
  EXPECT_LE(lb, p.total_energy());
  EXPECT_LE(lb, a.total_energy());
}

}  // namespace
}  // namespace bml
