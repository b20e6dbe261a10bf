// Tests for sched/cost_aware — reconfiguration-cost-aware scheduling.
#include "sched/cost_aware.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "predict/predictor.hpp"
#include "sched/bml_scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

TEST(CostAwareScheduler, TransitionEnergyCountsOnOffAndMigration) {
  CostAwareScheduler scheduler(design(),
                               std::make_shared<OracleMaxPredictor>());
  // Empty -> 1 paravance: one boot + one instance start.
  const Joules up = scheduler.transition_energy(Combination({0, 0, 0}),
                                                Combination({1, 0, 0}));
  EXPECT_NEAR(up, 21341.0 + MigrationModel{}.restart_energy, 1e-6);
  // 1 paravance -> 1 chromebook: big off + chromebook on + 1 move.
  const Joules swap = scheduler.transition_energy(Combination({1, 0, 0}),
                                                  Combination({0, 1, 0}));
  EXPECT_NEAR(swap, 657.0 + 49.3 + MigrationModel{}.restart_energy, 1e-6);
}

TEST(CostAwareScheduler, ForcedScaleUpAlwaysPasses) {
  CostAwareScheduler scheduler(design(),
                               std::make_shared<OracleMaxPredictor>());
  const LoadTrace trace = step_trace({{5.0, 10.0}, {600.0, 500.0}});
  (void)scheduler.initial_combination(trace);
  // At t=5 the window already sees 600 req/s: capacity must grow no matter
  // what the switch costs.
  const auto target = scheduler.decide(5, trace);
  ASSERT_TRUE(target.has_value());
  EXPECT_GE(capacity(design()->candidates(), *target), 600.0);
}

TEST(CostAwareScheduler, ShortLullDoesNotPayForBigCycle) {
  // 600 req/s, a 60 s lull, then 600 again: switching the paravance off
  // and on would cost ~22 kJ for < 1 minute of ~50 W savings. The
  // cost-aware scheduler must hold the Big machine.
  CostAwareScheduler scheduler(design(),
                               std::make_shared<OracleMaxPredictor>(),
                               ApplicationModel{}, MigrationModel{},
                               /*window=*/60.0, /*payback_window=*/60.0);
  const LoadTrace trace =
      step_trace({{600.0, 400.0}, {5.0, 60.0}, {600.0, 400.0}});
  const Combination big = design()->ideal_combination(600.0);
  (void)scheduler.initial_combination(trace);
  bool ever_left_big = false;
  for (TimePoint t = 390; t < 460; ++t) {
    const auto target = scheduler.decide(t, trace);
    if (target.has_value() && !(*target == big)) ever_left_big = true;
  }
  EXPECT_FALSE(ever_left_big);
}

TEST(CostAwareScheduler, LongLullPaysForScaleDown) {
  CostAwareScheduler scheduler(design(),
                               std::make_shared<OracleMaxPredictor>(),
                               ApplicationModel{}, MigrationModel{},
                               /*window=*/60.0,
                               /*payback_window=*/3600.0);
  const LoadTrace trace =
      step_trace({{600.0, 100.0}, {5.0, 7200.0}});
  (void)scheduler.initial_combination(trace);
  // Deep in the lull the savings (~115 W) over an hour dwarf the ~22 kJ
  // switch: the scheduler must scale down.
  const auto target = scheduler.decide(200, trace);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, design()->ideal_combination(5.0));
}

TEST(CostAwareScheduler, FewerReconfigurationsThanPlainBml) {
  WorldCupOptions options;
  options.days = 2;
  options.peak = 3000.0;
  options.seed = 5;
  const LoadTrace trace = worldcup_like_trace(options);
  const Simulator simulator(design()->candidates());

  BmlScheduler plain(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult plain_result = simulator.run(plain, trace);

  CostAwareScheduler aware(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult aware_result = simulator.run(aware, trace);

  EXPECT_LT(aware_result.reconfigurations, plain_result.reconfigurations);
  // QoS must not regress: scale-ups are never blocked.
  EXPECT_DOUBLE_EQ(aware_result.qos.served_fraction(), 1.0);
}

TEST(CostAwareScheduler, Validation) {
  EXPECT_THROW(
      CostAwareScheduler(nullptr, std::make_shared<OracleMaxPredictor>()),
      std::invalid_argument);
  EXPECT_THROW(CostAwareScheduler(design(), nullptr), std::invalid_argument);
  EXPECT_EQ(
      CostAwareScheduler(design(), std::make_shared<OracleMaxPredictor>())
          .name(),
      "cost-aware(oracle-max)");
}

}  // namespace
}  // namespace bml
