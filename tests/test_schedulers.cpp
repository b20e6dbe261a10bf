// Tests for sched/: BmlScheduler decisions, baselines, hysteresis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

TEST(BmlScheduler, DefaultWindowIsTwiceLongestOn) {
  // Paravance has the longest On duration (189 s): window = 378 s, the
  // paper's value.
  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());
  EXPECT_DOUBLE_EQ(scheduler.window(), 378.0);
  EXPECT_DOUBLE_EQ(BmlScheduler::default_window(*design()), 378.0);
}

TEST(BmlScheduler, DecidesIdealCombinationForWindowMax) {
  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());
  const LoadTrace trace = step_trace({{5.0, 100.0}, {600.0, 400.0}});
  // At t=0 the window [0,378) already contains the 600 step.
  const auto target = scheduler.decide(0, trace);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, design()->ideal_combination(600.0));
}

TEST(BmlScheduler, InitialCombinationCoversFirstSecond) {
  BmlScheduler scheduler(design(), std::make_shared<LastValuePredictor>());
  // Reactive predictor knows nothing at t=0; the initial sizing must still
  // cover the first second's load.
  const LoadTrace trace = constant_trace(500.0, 100.0);
  const Combination initial = scheduler.initial_combination(trace);
  EXPECT_GE(capacity(design()->candidates(), initial), 500.0);
}

TEST(BmlScheduler, CriticalQosAddsHeadroom) {
  BmlScheduler tolerant(design(), std::make_shared<OracleMaxPredictor>(),
                        0.0, QosClass::kTolerant);
  BmlScheduler critical(design(), std::make_shared<OracleMaxPredictor>(),
                        0.0, QosClass::kCritical);
  const LoadTrace trace = constant_trace(500.0, 1000.0);
  const auto t = tolerant.decide(0, trace);
  const auto c = critical.decide(0, trace);
  EXPECT_GE(capacity(design()->candidates(), *c),
            capacity(design()->candidates(), *t));
  EXPECT_GE(capacity(design()->candidates(), *c), 550.0);  // 1.1 headroom
}

TEST(BmlScheduler, NameIncludesPredictor) {
  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());
  EXPECT_EQ(scheduler.name(), "bml(oracle-max)");
}

TEST(BmlScheduler, DecisionStableUntilMergesSameCombinationSpans) {
  // A falling staircase whose steps stay inside one combination-table
  // band: the window-max prediction changes at every plateau, the decision
  // does not, so the stability bound must jump several plateaus at once.
  // Find a band wide enough for the 6 req/s wiggle first (the littlest
  // machine serves 9 req/s, so such bands exist).
  double base = 500.0;
  while (design()->ideal_combination(base) !=
         design()->ideal_combination(base + 6.0))
    base += 1.0;
  std::vector<StepSegment> segments;
  for (int i = 0; i < 4; ++i)
    segments.push_back({base + 6.0 - 2.0 * i, 400.0});
  segments.push_back({2800.0, 600.0});
  const LoadTrace trace = step_trace(segments);

  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());

  // Soundness: decide() is constant over every claimed span.
  for (TimePoint now = 0; now < static_cast<TimePoint>(trace.size());) {
    const TimePoint stable = scheduler.decision_stable_until(now, trace);
    ASSERT_GT(stable, now);
    const auto decision = scheduler.decide(now, trace);
    const TimePoint end =
        std::min(stable, static_cast<TimePoint>(trace.size()));
    for (TimePoint t = now + 1; t < end; ++t)
      ASSERT_EQ(scheduler.decide(t, trace), decision)
          << "span [" << now << ", " << stable << ") broke at t=" << t;
    now = end;
  }

  // Exactness: from t = 0 the prediction drops at every plateau start, but
  // the decision only changes when the 2800 req/s step enters the oracle
  // window — the bound clears every plateau and lands on that second.
  const TimePoint bound = scheduler.decision_stable_until(0, trace);
  const auto initial = scheduler.decide(0, trace);
  TimePoint first_change = 1;
  while (first_change < static_cast<TimePoint>(trace.size()) &&
         scheduler.decide(first_change, trace) == initial)
    ++first_change;
  EXPECT_EQ(bound, first_change);
  EXPECT_EQ(bound, 1600 - static_cast<TimePoint>(scheduler.window()) + 1);
}

TEST(BmlScheduler, DecisionStableUntilIsExactAtBucketEdges) {
  // Plateaus on, just below and just above each grid cut, in rate and in
  // rate / 1.1, so the bound must land on the exact second the threshold
  // bucket changes even where the critical class's 1.1 headroom rounds
  // a prediction onto a cut. Both walks are checked: last-value steps
  // its cursor second by second, a one-second moving max (the same
  // predictions) scans the trace's samples directly.
  const DecisionThresholds& cuts = *design()->decision_thresholds();
  std::vector<StepSegment> segments;
  for (std::size_t i = 3; i < 40; ++i) {
    const double cut = cuts.bucket_grid_range(i).first;
    for (const double v : {cut - 1.0, cut, (cut - 1.0) / 1.1, cut / 1.1})
      for (const double u : {std::nextafter(v, 0.0), v, std::nextafter(v, 1e9)})
        segments.push_back({u, 3.0});
  }
  const LoadTrace trace = step_trace(segments);
  const auto n = static_cast<TimePoint>(trace.size());
  for (const QosClass qos : {QosClass::kTolerant, QosClass::kCritical}) {
    const auto bucket = [&](TimePoint t) {
      const ReqRate predicted = t == 0 ? 0.0 : trace.at(t - 1);
      return cuts.index_for(std::min(predicted * headroom_factor(qos),
                                     design()->max_rate()));
    };
    for (const bool moving_max : {false, true}) {
      std::shared_ptr<Predictor> predictor;
      if (moving_max)
        predictor = std::make_shared<MovingMaxPredictor>(1.0);
      else
        predictor = std::make_shared<LastValuePredictor>();
      BmlScheduler scheduler(design(), predictor, 0.0, qos);
      // From n + 1 on the prediction reads only the implicit zeros.
      for (TimePoint t = 0; t <= n + 1; ++t) {
        TimePoint expected = t + 1;
        while (expected <= n + 1 && bucket(expected) == bucket(t)) ++expected;
        if (expected > n + 1)
          expected = std::numeric_limits<TimePoint>::max();
        ASSERT_EQ(scheduler.decision_stable_until(t, trace), expected)
            << "t=" << t << (moving_max ? " moving-max" : " last-value")
            << (qos == QosClass::kCritical ? " critical" : " tolerant");
      }
    }
  }
}

TEST(BmlScheduler, Validation) {
  EXPECT_THROW(
      BmlScheduler(nullptr, std::make_shared<OracleMaxPredictor>()),
      std::invalid_argument);
  EXPECT_THROW(BmlScheduler(design(), nullptr), std::invalid_argument);
}

TEST(StaticMaxScheduler, SizesForGlobalPeak) {
  StaticMaxScheduler scheduler(design()->big(), 0);
  // The paper: peak needing 4 Bigs -> 4 always-on machines.
  EXPECT_EQ(scheduler.machines_for(5200.0), 4);
  EXPECT_EQ(scheduler.machines_for(1331.0), 1);
  EXPECT_EQ(scheduler.machines_for(1332.0), 2);
  EXPECT_EQ(scheduler.machines_for(0.0), 1);  // never zero machines
  EXPECT_THROW((void)scheduler.machines_for(-1.0), std::invalid_argument);

  const LoadTrace trace = constant_trace(5200.0, 10.0);
  const auto combo = scheduler.decide(0, trace);
  ASSERT_TRUE(combo.has_value());
  EXPECT_EQ(combo->count(0), 4);
}

TEST(StaticMaxScheduler, ConstantAcrossTime) {
  StaticMaxScheduler scheduler(design()->big(), 0);
  const LoadTrace trace = step_trace({{5000.0, 10.0}, {5.0, 100.0}});
  const auto early = scheduler.decide(0, trace);
  const auto late = scheduler.decide(50, trace);
  EXPECT_EQ(*early, *late);
}

TEST(PerDayScheduler, ResizesAtMidnight) {
  PerDayScheduler scheduler(design()->big(), 0);
  std::vector<double> rates(static_cast<std::size_t>(kSecondsPerDay) * 2,
                            100.0);
  rates[100] = 2000.0;  // day 0 needs 2 bigs
  // day 1 peak stays 100 -> 1 big
  const LoadTrace trace(std::move(rates));
  const auto day0 = scheduler.decide(0, trace);
  const auto day1 = scheduler.decide(kSecondsPerDay + 5, trace);
  EXPECT_EQ(day0->count(0), 2);
  EXPECT_EQ(day1->count(0), 1);
  EXPECT_EQ(scheduler.initial_combination(trace).count(0), 2);
  // Beyond the trace: no opinion.
  EXPECT_FALSE(scheduler.decide(kSecondsPerDay * 5, trace).has_value());
}

TEST(ReactiveScheduler, FollowsInstantaneousLoad) {
  ReactiveScheduler scheduler(design());
  const LoadTrace trace = step_trace({{5.0, 10.0}, {600.0, 10.0}});
  EXPECT_EQ(*scheduler.decide(0, trace), design()->ideal_combination(5.0));
  EXPECT_EQ(*scheduler.decide(15, trace), design()->ideal_combination(600.0));
  EXPECT_THROW(ReactiveScheduler(design(), 0.5), std::invalid_argument);
  EXPECT_THROW(ReactiveScheduler(nullptr), std::invalid_argument);
}

TEST(ReactiveScheduler, DecisionStableUntilIsExact) {
  // 5,000 one-second plateaus alternating between two rates of one
  // threshold bucket, then a rate of the next bucket: the decision first
  // changes when that last plateau starts, however many trace segments
  // the bound walks to find it.
  const DecisionThresholds& cuts = *design()->decision_thresholds();
  std::size_t bucket = 1;
  while (cuts.bucket_grid_range(bucket).second -
             cuts.bucket_grid_range(bucket).first <
         2.0)
    ++bucket;
  ASSERT_LT(bucket + 1, cuts.bucket_count());
  const auto [lo, hi] = cuts.bucket_grid_range(bucket);
  constexpr TimePoint kPlateaus = 5000;
  std::vector<double> rates;
  for (TimePoint i = 0; i < kPlateaus; ++i)
    rates.push_back(i % 2 == 0 ? lo : lo + 1.0);
  rates.insert(rates.end(), 10, hi);
  const LoadTrace trace(std::move(rates));
  const auto n = static_cast<TimePoint>(trace.size());

  ReactiveScheduler scheduler(design());
  for (const TimePoint now : {TimePoint{0}, TimePoint{1}, TimePoint{2500},
                              kPlateaus - 1, kPlateaus, n - 1}) {
    const auto decision = scheduler.decide(now, trace);
    TimePoint first_change = now + 1;
    while (first_change <= n &&
           scheduler.decide(first_change, trace) == decision)
      ++first_change;
    ASSERT_LE(first_change, n);
    EXPECT_EQ(scheduler.decision_stable_until(now, trace), first_change)
        << "now=" << now;
  }
  EXPECT_EQ(scheduler.decision_stable_until(0, trace), kPlateaus);
}

TEST(ReactiveScheduler, DecisionStableUntilMatchesPerSecondScan) {
  // The bound is the first second whose load falls in another decision
  // bucket — past the trace end the load is 0 — or "never" when no second
  // does. Checked against a scan of every second, from every start, on
  // random step and noisy traces ending in zero and non-zero tails.
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  const DecisionThresholds& cuts = *design()->decision_thresholds();
  const ReqRate max_rate = design()->max_rate();
  std::mt19937_64 gen(25);
  const double levels[] = {0.0, 0.5, 5.0, 9.0, 40.0, 300.0, 301.0, 1400.0,
                           2500.0, 4000.0, 9000.0};
  std::uniform_int_distribution<std::size_t> level(0, std::size(levels) - 1);
  std::uniform_int_distribution<int> plateau(1, 40);
  std::uniform_real_distribution<double> noisy(0.0, 3000.0);
  for (int trial = 0; trial < 16; ++trial) {
    const bool step = trial % 2 == 0;
    const bool zero_tail = trial % 4 < 2;
    std::vector<double> rates;
    while (rates.size() < 400) {
      if (step)
        rates.insert(rates.end(), plateau(gen), levels[level(gen)]);
      else
        rates.push_back(noisy(gen));
    }
    rates.back() = zero_tail ? 0.0 : (trial % 8 < 4 ? 0.5 : 1400.0);
    const LoadTrace trace(std::move(rates));
    const auto n = static_cast<TimePoint>(trace.size());
    for (const double headroom : {1.0, 1.1}) {
      ReactiveScheduler scheduler(design(), headroom);
      const auto bucket = [&](TimePoint t) {
        return cuts.index_for(std::min(trace.at(t) * headroom, max_rate));
      };
      for (TimePoint now = 0; now < n + 3; ++now) {
        TimePoint expected = kNever;
        for (TimePoint t = now + 1; now < n && t <= n; ++t)
          if (bucket(t) != bucket(now)) {
            expected = t;
            break;
          }
        ASSERT_EQ(scheduler.decision_stable_until(now, trace), expected)
            << "trial=" << trial << " headroom=" << headroom
            << " now=" << now;
      }
    }
  }
}

TEST(HysteresisScheduler, ScaleUpImmediateScaleDownDelayed) {
  auto inner = std::make_shared<ReactiveScheduler>(design());
  HysteresisScheduler scheduler(inner, design(), /*hold=*/100.0);
  // 600 -> 5 -> (held) -> eventually follows.
  const LoadTrace trace =
      step_trace({{600.0, 10.0}, {5.0, 300.0}});
  const Combination big = design()->ideal_combination(600.0);
  const Combination little = design()->ideal_combination(5.0);

  EXPECT_EQ(*scheduler.decide(0, trace), big);
  // Scale-down requested at t=15 but held.
  EXPECT_EQ(*scheduler.decide(15, trace), big);
  EXPECT_EQ(*scheduler.decide(60, trace), big);
  // After the hold expires the scale-down goes through.
  EXPECT_EQ(*scheduler.decide(130, trace), little);
}

TEST(HysteresisScheduler, ScaleUpPassesThrough) {
  auto inner = std::make_shared<ReactiveScheduler>(design());
  HysteresisScheduler scheduler(inner, design(), 100.0);
  const LoadTrace trace = step_trace({{5.0, 10.0}, {600.0, 100.0}});
  EXPECT_EQ(*scheduler.decide(0, trace), design()->ideal_combination(5.0));
  EXPECT_EQ(*scheduler.decide(20, trace), design()->ideal_combination(600.0));
  EXPECT_EQ(scheduler.name(), "reactive+hysteresis");
}

TEST(HysteresisScheduler, AbortedScaleDownResetsHold) {
  auto inner = std::make_shared<ReactiveScheduler>(design());
  HysteresisScheduler scheduler(inner, design(), 100.0);
  const LoadTrace trace =
      step_trace({{600.0, 10.0}, {5.0, 50.0}, {600.0, 60.0}, {5.0, 60.0}});
  const Combination big = design()->ideal_combination(600.0);
  EXPECT_EQ(*scheduler.decide(0, trace), big);
  EXPECT_EQ(*scheduler.decide(15, trace), big);  // held
  EXPECT_EQ(*scheduler.decide(70, trace), big);  // back up
  // New scale-down attempt restarts the clock: at t=130 only 10 s elapsed.
  EXPECT_EQ(*scheduler.decide(125, trace), big);
  EXPECT_EQ(*scheduler.decide(130, trace), big);
}

TEST(HysteresisScheduler, Validation) {
  auto inner = std::make_shared<ReactiveScheduler>(design());
  EXPECT_THROW(HysteresisScheduler(nullptr, design(), 10.0),
               std::invalid_argument);
  EXPECT_THROW(HysteresisScheduler(inner, nullptr, 10.0),
               std::invalid_argument);
  EXPECT_THROW(HysteresisScheduler(inner, design(), -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bml
