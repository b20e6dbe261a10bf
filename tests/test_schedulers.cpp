// Tests for sched/: BmlScheduler decisions, baselines, hysteresis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
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

// An oracle the decision paths do not share: for each pure predictor,
// decide(t) is the ideal combination of predict()'s target rate at every
// second asked, whether asked every second, with forward jumps shorter
// and longer than the predictor's window, with repeats, or at the bounds
// decision_stable_until returns. The per-second loop and the fast path
// both decide from the cursor's bounds(), so their equivalence alone
// would not catch a wrong bucket.
TEST(BmlScheduler, DecidesAsPredictDoesForEveryPurePredictor) {
  DiurnalOptions noisy_options;
  noisy_options.peak = 2600.0;
  noisy_options.noise = 0.3;
  noisy_options.seed = 5;
  DiurnalOptions smooth_options = noisy_options;
  smooth_options.noise = 0.0;
  const LoadTrace noisy_day = diurnal_trace(noisy_options, 1);
  const LoadTrace smooth_day = diurnal_trace(smooth_options, 1);
  std::vector<double> noisy, smooth;
  for (TimePoint t = 0; t < 2400; ++t) {
    noisy.push_back(noisy_day.at(t + 40'000));
    smooth.push_back(smooth_day.at(10 * t));
  }
  std::vector<StepSegment> steps;
  for (int i = 0; i < 24; ++i)
    steps.push_back({100.0 + 277.0 * ((i * 7) % 10), 60.0 + 40.0 * (i % 4)});
  const std::pair<const char*, LoadTrace> traces[] = {
      {"noisy", LoadTrace(noisy)},
      {"step", step_trace(steps)},
      {"smooth", LoadTrace(smooth)},
  };
  const std::pair<const char*, std::function<std::shared_ptr<Predictor>()>>
      predictors[] = {
          {"oracle-max", [] { return std::make_shared<OracleMaxPredictor>(); }},
          {"last-value", [] { return std::make_shared<LastValuePredictor>(); }},
          {"moving-max",
           [] { return std::make_shared<MovingMaxPredictor>(90.0); }},
          {"linear-trend-60",
           [] { return std::make_shared<LinearTrendPredictor>(60.0); }},
          {"linear-trend-600",
           [] { return std::make_shared<LinearTrendPredictor>(600.0); }},
          {"seasonal",
           [] { return std::make_shared<SeasonalPredictor>(900.0, 1.1); }},
      };
  for (const auto& [trace_name, trace] : traces) {
    const auto n = static_cast<TimePoint>(trace.size());
    for (const auto& [predictor_name, make] : predictors) {
      for (const QosClass qos : {QosClass::kTolerant, QosClass::kCritical}) {
        const std::shared_ptr<Predictor> reference = make();
        const Seconds window = BmlScheduler::default_window(*design());
        std::vector<Combination> expected;
        for (TimePoint t = 0; t < n; ++t)
          expected.push_back(design()->ideal_combination(
              std::min(reference->predict(trace, t, window) *
                           headroom_factor(qos),
                       design()->max_rate())));
        // Every second; jumps of 1 to 700 s around the windows of 60 and
        // 600 s, each time asked twice; and the walk's own bounds.
        std::vector<std::vector<TimePoint>> sequences(2);
        for (TimePoint t = 0; t < n; ++t) sequences[0].push_back(t);
        const TimePoint jumps[] = {1, 3, 59, 61, 2, 599, 601, 700, 1, 7};
        std::size_t j = 0;
        for (TimePoint t = 0; t < n; t += jumps[j++ % std::size(jumps)]) {
          sequences[1].push_back(t);
          sequences[1].push_back(t);
        }
        for (std::size_t k = 0; k <= sequences.size(); ++k) {
          SCOPED_TRACE(std::string(predictor_name) + " on " + trace_name +
                       (qos == QosClass::kCritical ? ", critical" : "") +
                       ", sequence " + std::to_string(k));
          BmlScheduler scheduler(design(), make(), 0.0, qos);
          if (k < sequences.size()) {
            for (const TimePoint t : sequences[k])
              ASSERT_EQ(*scheduler.decide(t, trace),
                        expected[static_cast<std::size_t>(t)])
                  << "t=" << t;
            continue;
          }
          for (TimePoint t = 0; t < n;) {
            ASSERT_EQ(*scheduler.decide(t, trace),
                      expected[static_cast<std::size_t>(t)])
                << "t=" << t;
            const TimePoint next = scheduler.decision_stable_until(t, trace);
            ASSERT_GT(next, t);
            for (TimePoint u = t + 1; u < std::min(next, n); ++u)
              ASSERT_EQ(expected[static_cast<std::size_t>(u)],
                        expected[static_cast<std::size_t>(t)])
                  << "u=" << u << " inside [" << t << ", " << next << ")";
            t = next;
          }
        }
      }
    }
  }
}

// A straddle that must fall back to the exact value: a 1e15 spike in
// linear-trend's window inflates the rounding enclosure of the sums it
// slides, so for a while after the spike has left, the enclosure around a
// prediction of ~1,000 req/s is ~1,900 req/s wide and spans several
// threshold buckets. decide() must refit there (one refit per straddle)
// and still decide as predict() does.
TEST(BmlScheduler, StraddlingBoundsFallBackToTheExactValue) {
  std::vector<double> rates(400, 1000.0);
  rates[100] = 1e15;
  const LoadTrace trace(rates);
  const DecisionThresholds& cuts = *design()->decision_thresholds();
  const auto target = [](ReqRate predicted) {
    return std::min(predicted, design()->max_rate());
  };
  BmlScheduler scheduler(design(),
                         std::make_shared<LinearTrendPredictor>(60.0));
  LinearTrendPredictor reference(60.0);
  // The same queries on a twin cursor show where the scheduler straddles.
  const std::unique_ptr<PredictionCursor> twin =
      reference.cursor(trace, scheduler.window());
  int straddles = 0;
  for (TimePoint t = 0; t < static_cast<TimePoint>(trace.size()); ++t) {
    const PredictionBounds b = twin->bounds(t);
    const bool straddle =
        cuts.index_for(target(b.lo)) != cuts.index_for(target(b.hi));
    if (straddle) (void)twin->value(t);
    const std::uint64_t refits = scheduler.prediction_work().refits;
    ASSERT_EQ(*scheduler.decide(t, trace),
              design()->ideal_combination(
                  target(reference.predict(trace, t, scheduler.window()))))
        << "t=" << t;
    if (straddle) {
      ++straddles;
      EXPECT_EQ(scheduler.prediction_work().refits, refits + 1) << "t=" << t;
    }
  }
  EXPECT_GT(straddles, 0);
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

// Hysteresis bounds itself: the inner scheduler's bound, or a pending
// scale-down's hold expiry. A run that consults it only at its bounds
// decides as a run that consults it every second, at every second; and
// leaves the same state, which copies of both runs, consulted every
// second from each bound on, show by deciding alike. Holds of 0, 300 and
// 300.5 s (the expiry is the ceiling), and 1e300 s and +inf, which never
// expire and must not reach an overflowing cast.
TEST(HysteresisScheduler, BoundedConsultsMatchPerSecondConsults) {
  DiurnalOptions options;
  options.peak = 2600.0;
  options.noise = 0.3;
  options.seed = 3;
  const LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates;
  for (TimePoint t = 0; t < 3000; ++t) rates.push_back(day.at(t + 30'000));
  // A sharp drop, so scale-downs stay pending for whole holds.
  rates.insert(rates.end(), 900, 40.0);
  const LoadTrace trace(rates);
  const auto n = static_cast<TimePoint>(trace.size());
  for (const Seconds hold :
       {0.0, 300.0, 300.5, 1e300, std::numeric_limits<Seconds>::infinity()}) {
    SCOPED_TRACE("hold " + std::to_string(hold));
    const auto make = [&] {
      return HysteresisScheduler(
          std::make_shared<BmlScheduler>(design(),
                                         std::make_shared<MovingMaxPredictor>(
                                             60.0)),
          design(), hold);
    };
    HysteresisScheduler every = make();
    HysteresisScheduler bounded = make();
    ASSERT_EQ(every.initial_combination(trace),
              bounded.initial_combination(trace));
    std::optional<Combination> held;
    TimePoint next = 0;
    int consults = 0;
    for (TimePoint t = 0; t < n; ++t) {
      const std::optional<Combination> wanted = every.decide(t, trace);
      if (t < next) {
        ASSERT_EQ(wanted, held) << "t=" << t << " before the bound " << next;
        continue;
      }
      ++consults;
      held = bounded.decide(t, trace);
      ASSERT_EQ(held, wanted) << "t=" << t;
      HysteresisScheduler every_copy = every;
      HysteresisScheduler bounded_copy = bounded;
      for (TimePoint u = t + 1; u < std::min(n, t + 700); ++u)
        ASSERT_EQ(every_copy.decide(u, trace), bounded_copy.decide(u, trace))
            << "state differs after the consult at t=" << t << ", u=" << u;
      next = bounded.decision_stable_until(t, trace);
      ASSERT_GT(next, t);
    }
    EXPECT_LT(consults, n / 4);
  }
}

TEST(HysteresisScheduler, Validation) {
  auto inner = std::make_shared<ReactiveScheduler>(design());
  EXPECT_THROW(HysteresisScheduler(nullptr, design(), 10.0),
               std::invalid_argument);
  EXPECT_THROW(HysteresisScheduler(inner, nullptr, 10.0),
               std::invalid_argument);
  EXPECT_THROW(HysteresisScheduler(inner, design(), -1.0),
               std::invalid_argument);
  EXPECT_THROW(HysteresisScheduler(inner, design(),
                                   std::numeric_limits<Seconds>::quiet_NaN()),
               std::invalid_argument);
}

}  // namespace
}  // namespace bml
