// Tests for predict/predictor: the oracle window, reactive predictors, and
// error injection.
#include "predict/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/synthetic.hpp"

namespace bml {
namespace {

TEST(OracleMaxPredictor, MatchesNaiveWindowMax) {
  const LoadTrace trace({5.0, 1.0, 9.0, 2.0, 7.0, 3.0, 8.0, 0.0});
  OracleMaxPredictor oracle;
  for (TimePoint now = 0; now < 8; ++now) {
    const double naive = trace.max_over(now, now + 3);
    EXPECT_DOUBLE_EQ(oracle.predict(trace, now, 3.0), naive) << "t=" << now;
  }
}

TEST(OracleMaxPredictor, LargeTraceConsistency) {
  DiurnalOptions options;
  options.noise = 0.05;
  const LoadTrace trace = diurnal_trace(options, 1);
  OracleMaxPredictor oracle;
  for (TimePoint now : {0L, 100L, 5000L, 40000L, 86000L, 86399L}) {
    EXPECT_DOUBLE_EQ(oracle.predict(trace, now, 378.0),
                     trace.max_over(now, now + 378))
        << "t=" << now;
  }
}

TEST(OracleMaxPredictor, BeyondEndIsZero) {
  const LoadTrace trace({5.0});
  OracleMaxPredictor oracle;
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 10, 5.0), 0.0);
}

TEST(OracleMaxPredictor, CacheInvalidatesOnHorizonChange) {
  const LoadTrace trace({1.0, 10.0, 2.0, 3.0});
  OracleMaxPredictor oracle;
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 2, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(oracle.predict(trace, 2, 2.0), 3.0);
}

TEST(OracleMaxPredictor, Validation) {
  const LoadTrace trace({1.0});
  OracleMaxPredictor oracle;
  EXPECT_THROW((void)oracle.predict(trace, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)oracle.predict(trace, -1, 1.0), std::invalid_argument);
  // A horizon no TimePoint holds is a named error, not a cast overflow.
  for (const double horizon : {1e300, std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)oracle.predict(trace, 0, horizon),
                 std::invalid_argument);
    EXPECT_THROW((void)oracle.cursor(trace, horizon), std::invalid_argument);
  }
}

TEST(LastValuePredictor, ReadsOnlyHistory) {
  const LoadTrace trace({5.0, 7.0, 100.0});
  LastValuePredictor p;
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 60.0), 0.0);  // no history yet
  EXPECT_DOUBLE_EQ(p.predict(trace, 1, 60.0), 5.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 2, 60.0), 7.0);  // blind to the spike
}

TEST(MovingMaxPredictor, TrailingWindow) {
  const LoadTrace trace({9.0, 1.0, 2.0, 3.0});
  MovingMaxPredictor p(2.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 60.0), 0.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 1, 60.0), 9.0);
  EXPECT_DOUBLE_EQ(p.predict(trace, 3, 60.0), 2.0);  // window {1,2}
  EXPECT_THROW(MovingMaxPredictor(0.0), std::invalid_argument);
  for (const double window : {1e300, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(MovingMaxPredictor{window}, std::invalid_argument);
}

TEST(EwmaPredictor, ConvergesToConstantLoad) {
  const LoadTrace trace(std::vector<double>(100, 50.0));
  EwmaPredictor p(0.2, /*headroom=*/1.0);
  double last = 0.0;
  for (TimePoint t = 1; t <= 100; ++t) last = p.predict(trace, t, 60.0);
  EXPECT_NEAR(last, 50.0, 1e-6);
}

TEST(EwmaPredictor, HeadroomScalesOutput) {
  const LoadTrace trace(std::vector<double>(10, 100.0));
  EwmaPredictor p(1.0, 1.2);
  EXPECT_NEAR(p.predict(trace, 5, 60.0), 120.0, 1e-9);
}

TEST(EwmaPredictor, Validation) {
  EXPECT_THROW(EwmaPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(1.5), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(0.5, 0.0), std::invalid_argument);
}

TEST(LinearTrendPredictor, ExtrapolatesRisingLoad) {
  // Load rises 1 req/s every second; the horizon-end prediction must
  // exceed the last observation.
  std::vector<double> rates;
  for (int i = 0; i < 100; ++i) rates.push_back(static_cast<double>(i));
  const LoadTrace trace(rates);
  LinearTrendPredictor p(50.0);
  const double predicted = p.predict(trace, 100, 60.0);
  EXPECT_NEAR(predicted, 159.0, 2.0);  // 99 + 60 extrapolated
}

TEST(LinearTrendPredictor, FallingLoadNeverBelowLastValue) {
  std::vector<double> rates;
  for (int i = 0; i < 100; ++i) rates.push_back(100.0 - i);
  const LoadTrace trace(rates);
  LinearTrendPredictor p(50.0);
  EXPECT_GE(p.predict(trace, 100, 60.0), 1.0);
  EXPECT_THROW(LinearTrendPredictor(1.0), std::invalid_argument);
  for (const double window : {1e300, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(LinearTrendPredictor{window}, std::invalid_argument);
}

TEST(ErrorInjectingPredictor, ZeroSigmaZeroBiasIsIdentity) {
  const LoadTrace trace({5.0, 6.0, 7.0});
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 0.0, 0.0,
                            1);
  EXPECT_DOUBLE_EQ(p.predict(trace, 0, 3.0), 7.0);
  EXPECT_EQ(p.name(), "oracle-max+error");
}

TEST(ErrorInjectingPredictor, BiasShiftsPrediction) {
  const LoadTrace trace({100.0});
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 0.0, 0.2,
                            1);
  EXPECT_NEAR(p.predict(trace, 0, 1.0), 120.0, 1e-9);
}

TEST(ErrorInjectingPredictor, DeterministicPerSeed) {
  const LoadTrace trace(std::vector<double>(50, 10.0));
  ErrorInjectingPredictor a(std::make_unique<OracleMaxPredictor>(), 0.3, 0.0,
                            9);
  ErrorInjectingPredictor b(std::make_unique<OracleMaxPredictor>(), 0.3, 0.0,
                            9);
  for (TimePoint t = 0; t < 20; ++t)
    EXPECT_DOUBLE_EQ(a.predict(trace, t, 5.0), b.predict(trace, t, 5.0));
}

TEST(ErrorInjectingPredictor, NeverNegative) {
  const LoadTrace trace(std::vector<double>(200, 1.0));
  ErrorInjectingPredictor p(std::make_unique<OracleMaxPredictor>(), 3.0, 0.0,
                            4);
  for (TimePoint t = 0; t < 200; ++t)
    EXPECT_GE(p.predict(trace, t, 5.0), 0.0);
}

TEST(ErrorInjectingPredictor, Validation) {
  EXPECT_THROW(
      ErrorInjectingPredictor(nullptr, 0.1, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(ErrorInjectingPredictor(std::make_unique<OracleMaxPredictor>(),
                                       -0.1, 0.0, 1),
               std::invalid_argument);
}

// A prediction's stability bound is the first later second whose value
// differs: the cursor's first_outside() over the one-value band [v, v⁺).
// predict() must be constant on [now, bound) and differ at the bound —
// verified brute force against per-second predict() queries.
TimePoint stable_until(PredictionCursor& cursor, TimePoint now) {
  const ReqRate v = cursor.value(now);
  return cursor.first_outside(
      now, v, std::nextafter(v, std::numeric_limits<ReqRate>::infinity()));
}

void expect_stability_sound(Predictor& p, const LoadTrace& trace,
                            Seconds horizon) {
  const std::unique_ptr<PredictionCursor> cursor = p.cursor(trace, horizon);
  ASSERT_NE(cursor, nullptr);
  const auto n = static_cast<TimePoint>(trace.size());
  for (TimePoint now = 0; now < n;) {
    const TimePoint stable = stable_until(*cursor, now);
    ASSERT_GT(stable, now) << "stable_until must advance, t=" << now;
    const double value = p.predict(trace, now, horizon);
    const TimePoint end = std::min(stable, n + 10);
    for (TimePoint t = now + 1; t < end; ++t)
      ASSERT_EQ(p.predict(trace, t, horizon), value)
          << "span [" << now << ", " << stable << ") broke at t=" << t;
    if (stable == end)
      ASSERT_NE(p.predict(trace, stable, horizon), value)
          << "span [" << now << ", " << stable << ") ends early";
    now = end;
  }
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnStepTrace) {
  const LoadTrace trace = step_trace({{40.0, 300.0},
                                      {900.0, 200.0},
                                      {900.0, 100.0},
                                      {30.0, 400.0},
                                      {0.0, 150.0},
                                      {500.0, 250.0}});
  MovingMaxPredictor p(120.0);
  expect_stability_sound(p, trace, 60.0);
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnSpikyTrace) {
  std::vector<double> rates(600, 10.0);
  rates[50] = 800.0;            // isolated spike enters and leaves the window
  rates[51] = 800.0;
  for (int i = 300; i < 310; ++i) rates[i] = 200.0 + i;  // noisy burst
  MovingMaxPredictor p(90.0);
  expect_stability_sound(p, LoadTrace(rates), 30.0);
}

TEST(MovingMaxPredictor, StableUntilIsSoundOnNoisyTrace) {
  // A per-second-varying window (hundreds of segments): the bound moves
  // by a second at a time in the noisy stretches, and must stay exact.
  DiurnalOptions options;
  options.peak = 400.0;
  options.noise = 0.3;
  options.seed = 13;
  LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates;
  for (std::size_t t = 0; t < 900; ++t)
    rates.push_back(day.at(static_cast<TimePoint>(t)));
  MovingMaxPredictor p(90.0);
  expect_stability_sound(p, LoadTrace(rates), 30.0);
}

TEST(SeasonalPredictor, StableUntilIsSoundOnNoisyTrace) {
  DiurnalOptions options;
  options.peak = 300.0;
  options.noise = 0.25;
  options.seed = 19;
  LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> rates;
  for (std::size_t t = 0; t < 1500; ++t)
    rates.push_back(day.at(static_cast<TimePoint>(t)));
  SeasonalPredictor p(/*period=*/600.0, /*headroom=*/1.1);
  expect_stability_sound(p, LoadTrace(rates), 50.0);
}

TEST(LastValuePredictor, StableUntilTracksTraceChanges) {
  const LoadTrace trace = step_trace({{10.0, 5.0}, {20.0, 5.0}});
  LastValuePredictor p;
  // predict(t) reads at(t - 1): the value observed at t = 3 (10.0) holds
  // until one second after the trace steps at t = 5.
  const std::unique_ptr<PredictionCursor> cursor = p.cursor(trace, 1.0);
  ASSERT_NE(cursor, nullptr);
  EXPECT_EQ(stable_until(*cursor, 3), 6);
  expect_stability_sound(p, trace, 1.0);
}

TEST(MovingMaxPredictor, StableForeverOnceTraceDrained) {
  const LoadTrace trace = step_trace({{700.0, 100.0}, {0.0, 100.0}});
  MovingMaxPredictor p(50.0);
  // Far beyond the end the window holds only implicit zeros.
  const std::unique_ptr<PredictionCursor> cursor = p.cursor(trace, 30.0);
  ASSERT_NE(cursor, nullptr);
  EXPECT_EQ(stable_until(*cursor, 1000),
            std::numeric_limits<TimePoint>::max());
}

TEST(SeasonalPredictor, StableUntilIsSoundAcrossPeriods) {
  // Two short "days" of a staircase plus a third with a growth spike, with
  // a period small enough that the warm-up branch, the period switch and
  // the growth-ratio windows are all exercised.
  std::vector<StepSegment> segments;
  for (int day = 0; day < 3; ++day)
    for (int hour = 0; hour < 6; ++hour)
      segments.push_back({50.0 + 40.0 * hour * (day + 1), 100.0});
  const LoadTrace trace = step_trace(segments);
  SeasonalPredictor p(/*period=*/600.0, /*headroom=*/1.1);
  expect_stability_sound(p, trace, 50.0);
}

// Property behind the scheduler's decision walks: every pure predictor's
// cursor equals predict() bit for bit, at every second up to the trace
// end plus the predictor's lookback, whether the cursor is queried every
// second, with jumps (some longer than any window), or restarted at an
// earlier time; and first_outside() lands on exactly the first later
// second whose prediction leaves the given band, for bands as narrow as
// one value and as wide as a half-line, when hopped from band to band as
// the scheduler does, and for bands with an edge exactly on a later
// prediction. The BML scheduler reads only the cursor, both in the
// per-second loop and in the event-driven walk, so predict() is the
// independent reference here (and the oracle is also held to max_over).
struct CursorCase {
  std::string name;
  std::function<std::unique_ptr<Predictor>()> make;
  TimePoint lookback;  // how far past the trace end the prediction reads
  // Longest trace the case runs on: a window longer than that keeps
  // growing to the trace end.
  std::size_t longest_trace = std::numeric_limits<std::size_t>::max();
};

std::vector<CursorCase> cursor_cases() {
  return {
      {"oracle-max", [] { return std::make_unique<OracleMaxPredictor>(); },
       0},
      {"last-value", [] { return std::make_unique<LastValuePredictor>(); },
       1},
      {"moving-max",
       [] { return std::make_unique<MovingMaxPredictor>(90.0); }, 90},
      {"linear-trend",
       [] { return std::make_unique<LinearTrendPredictor>(60.0); }, 60},
      // The production window, a fractional one, and one longer than
      // every trace it runs on, which slides only over the implicit zeros.
      {"linear-trend-600",
       [] { return std::make_unique<LinearTrendPredictor>(600.0); }, 600},
      {"linear-trend-37.5",
       [] { return std::make_unique<LinearTrendPredictor>(37.5); }, 37},
      {"linear-trend-2000",
       [] { return std::make_unique<LinearTrendPredictor>(2000.0); }, 2000,
       1999},
      {"seasonal",
       [] { return std::make_unique<SeasonalPredictor>(600.0, 1.1); },
       3600},
  };
}

std::vector<std::pair<std::string, LoadTrace>> cursor_traces() {
  DiurnalOptions options;
  options.peak = 400.0;
  options.noise = 0.3;
  options.seed = 13;
  const LoadTrace day = diurnal_trace(options, 1);
  std::vector<double> noisy;
  for (TimePoint t = 0; t < 1500; ++t) noisy.push_back(day.at(t + 30'000));
  // The same noise ending in a stretch of stored zeros, so the stored and
  // the implicit zeros past the end meet; and a cut too short for the
  // trace's range-max index, so no index block is skipped.
  std::vector<double> zero_tail(noisy.begin(), noisy.begin() + 900);
  zero_tail.resize(1300, 0.0);
  const std::vector<double> unindexed(noisy.begin(), noisy.begin() + 200);
  // Values near 1 around one 1e12 spike: once the spike leaves a sliding
  // sum, that sum's rounding error dwarfs the values left in it.
  std::vector<double> spike;
  for (const double v : noisy) spike.push_back(1.0 + 1e-3 * v);
  spike[400] = 1e12;
  return {
      {"step", step_trace({{40.0, 300.0},
                           {900.0, 200.0},
                           {900.0, 100.0},
                           {30.0, 400.0},
                           {0.0, 150.0},
                           {500.0, 250.0}})},
      {"noisy", LoadTrace(noisy)},
      {"zero-tail", LoadTrace(zero_tail)},
      {"unindexed", LoadTrace(unindexed)},
      {"spike", LoadTrace(spike)},
      {"two-day", diurnal_trace(options, 2)},
  };
}

/// Query times in [0, end]: every second, jumps of 1 to 700 s, or
/// restarts at earlier times, a few seconds back and far back.
std::vector<TimePoint> query_sequence(const std::string& kind,
                                      TimePoint end) {
  std::vector<TimePoint> times;
  if (kind == "contiguous") {
    for (TimePoint t = 0; t <= end; ++t) times.push_back(t);
  } else if (kind == "skipping") {
    const TimePoint steps[] = {1, 2, 3, 7, 1, 1, 40, 5, 700, 1, 13};
    std::size_t i = 0;
    for (TimePoint t = 0; t <= end; t += steps[i++ % std::size(steps)])
      times.push_back(t);
  } else {
    for (TimePoint t = 0; t <= end / 2; ++t) times.push_back(t);
    for (TimePoint t = end / 2 - 3; t <= end; ++t) times.push_back(t);
    for (TimePoint t = end / 3; t <= end; t += 3) times.push_back(t);
    for (TimePoint t = 0; t <= end; t += 7) times.push_back(t);
  }
  return times;
}

TEST(PredictionCursor, EqualsPredictForEveryPurePredictor) {
  constexpr Seconds kHorizon = 50.0;
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  for (const auto& [trace_name, trace] : cursor_traces()) {
    for (const CursorCase& c : cursor_cases()) {
      if (trace.size() > c.longest_trace) continue;
      const auto n = static_cast<TimePoint>(trace.size());
      // Past `end` every window the prediction reads lies past the trace
      // end, so the prediction holds its value at `end` forever.
      const TimePoint end = n + c.lookback + 10;
      const std::unique_ptr<Predictor> reference = c.make();
      std::vector<ReqRate> expected;
      for (TimePoint t = 0; t <= end; ++t)
        expected.push_back(reference->predict(trace, t, kHorizon));
      // On the two-day trace only the sparse queries and the wide bands
      // run: queries at nearly every second would refit linear-trend's
      // window each time, which the short traces cover.
      const bool sparse = n > 100'000;

      for (const std::string kind : {"contiguous", "skipping", "restarted"}) {
        if (sparse && kind != "skipping") continue;
        SCOPED_TRACE(c.name + " on " + trace_name + ", " + kind);
        const std::unique_ptr<PredictionCursor> cursor =
            c.make()->cursor(trace, kHorizon);
        ASSERT_NE(cursor, nullptr);
        for (const TimePoint t : query_sequence(kind, end)) {
          const ReqRate want = expected[static_cast<std::size_t>(t)];
          ASSERT_EQ(cursor->value(t), want) << "t=" << t;
          if (c.name == "oracle-max")
            ASSERT_EQ(want, trace.max_over(t, t + 50)) << "t=" << t;
        }
      }

      // Bands around the value at t, from one value wide to a half-line.
      const auto band = [](int kind, ReqRate v) -> std::pair<ReqRate, ReqRate> {
        constexpr ReqRate kInf = std::numeric_limits<ReqRate>::infinity();
        switch (kind) {
          case 0: return {v, std::nextafter(v, kInf)};
          case 1: return {v - 20.0, v + 20.0};
          case 2: return {0.5 * v, 1.5 * v + 1.0};
          case 3: return {v, kInf};
          default: return {-kInf, v + 1.0};
        }
      };
      for (int kind = sparse ? 2 : 0; kind < 5; ++kind) {
        SCOPED_TRACE(c.name + " on " + trace_name + ", band " +
                     std::to_string(kind));
        const std::unique_ptr<PredictionCursor> cursor =
            c.make()->cursor(trace, kHorizon);
        for (const TimePoint start : {TimePoint{0}, n / 3, TimePoint{5}, n}) {
          for (TimePoint t = start; t != kNever;) {
            const ReqRate v = expected[static_cast<std::size_t>(t)];
            ASSERT_EQ(cursor->value(t), v) << "t=" << t;
            const auto [lo, hi] = band(kind, v);
            TimePoint want = kNever;
            for (TimePoint u = t + 1; u <= end && want == kNever; ++u) {
              const ReqRate w = expected[static_cast<std::size_t>(u)];
              if (w < lo || !(w < hi)) want = u;
            }
            t = cursor->first_outside(t, lo, hi);
            ASSERT_EQ(t, want) << "band [" << lo << ", " << hi << ")";
          }
        }
      }

      // Bands with an edge on the prediction at a later second u: hi is
      // that prediction, or lo the next double above it. The walk stops
      // at u at the latest, so a walk that misjudges a prediction by one
      // ulp returns the wrong time.
      SCOPED_TRACE(c.name + " on " + trace_name + ", edge bands");
      const std::unique_ptr<PredictionCursor> cursor =
          c.make()->cursor(trace, kHorizon);
      for (TimePoint u = 1; u <= end; u += 1 + end / 1000) {
        constexpr ReqRate kInf = std::numeric_limits<ReqRate>::infinity();
        const ReqRate edge = expected[static_cast<std::size_t>(u)];
        for (const TimePoint back : {1, 9, 60, 333}) {
          const TimePoint t = u - back;
          if (t < 0) continue;
          const ReqRate v = cursor->value(t);
          if (v == edge) continue;
          const auto [lo, hi] = v < edge
                                    ? std::pair{-kInf, edge}
                                    : std::pair{std::nextafter(edge, kInf),
                                                kInf};
          TimePoint want = t + 1;
          for (; want < u; ++want) {
            const ReqRate w = expected[static_cast<std::size_t>(want)];
            if (w < lo || !(w < hi)) break;
          }
          ASSERT_EQ(cursor->first_outside(t, lo, hi), want)
              << "t=" << t << " u=" << u;
        }
      }
    }
  }
}

// bounds(t) always holds predict(t): every pure predictor, every trace,
// queried every second, with jumps and restarts, and at the second a walk
// returns (where linear-trend answers from the enclosure it left by).
// An exact cursor answers the point, and so does linear-trend's whenever
// its interval is one value wide.
TEST(PredictionCursor, BoundsHoldPredict) {
  constexpr Seconds kHorizon = 50.0;
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  for (const auto& [trace_name, trace] : cursor_traces()) {
    if (trace.size() > 100'000) continue;  // the short traces cover it
    for (const CursorCase& c : cursor_cases()) {
      if (trace.size() > c.longest_trace) continue;
      const auto n = static_cast<TimePoint>(trace.size());
      const TimePoint end = n + c.lookback + 10;
      const std::unique_ptr<Predictor> reference = c.make();
      std::vector<ReqRate> expected;
      for (TimePoint t = 0; t <= end; ++t)
        expected.push_back(reference->predict(trace, t, kHorizon));
      const bool exact = c.name.find("linear-trend") == std::string::npos;
      const auto check = [&](PredictionCursor& cursor, TimePoint t) {
        const ReqRate want = expected[static_cast<std::size_t>(t)];
        const PredictionBounds b = cursor.bounds(t);
        ASSERT_LE(b.lo, want) << "t=" << t;
        ASSERT_GE(b.hi, want) << "t=" << t;
        if (exact || b.lo == b.hi) {
          ASSERT_EQ(b.lo, want) << "t=" << t;
        }
        if (exact) {
          ASSERT_EQ(b.hi, want) << "t=" << t;
        }
      };
      for (const std::string kind : {"contiguous", "skipping", "restarted"}) {
        SCOPED_TRACE(c.name + " on " + trace_name + ", " + kind);
        const std::unique_ptr<PredictionCursor> cursor =
            c.make()->cursor(trace, kHorizon);
        for (const TimePoint t : query_sequence(kind, end)) {
          check(*cursor, t);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      // As the scheduler walks: bounds at t, a walk over a band of width
      // 40 around the value, bounds where it returns.
      SCOPED_TRACE(c.name + " on " + trace_name + ", walked");
      const std::unique_ptr<PredictionCursor> cursor =
          c.make()->cursor(trace, kHorizon);
      for (TimePoint t = 0; t <= end;) {
        check(*cursor, t);
        if (::testing::Test::HasFatalFailure()) return;
        const ReqRate v = expected[static_cast<std::size_t>(t)];
        const TimePoint next = cursor->first_outside(t, v - 20.0, v + 20.0);
        if (next == kNever) break;
        t = next;
      }
    }
  }
}

/// The first second from which the linear-trend prediction is 0 for good
/// past the trace end: the window holds at least three zeros per trace
/// sample.
TimePoint trend_zero_from(TimePoint size, TimePoint window) {
  for (TimePoint t = size + 1;; ++t) {
    const TimePoint n = std::min(t, window);
    const TimePoint m = std::max<TimePoint>(0, size - (t - n));
    if (n >= 4 * m) return t;
  }
}

// Past the trace end a linear-trend walk ends: from the second the window
// holds three zeros per trace sample the prediction is 0 for good, so a
// band holding 0 is never left and any other band has been left by then.
// Checked against predict() at every second up to size + window (from
// where the window holds only zeros), on short traces with windows 4 to
// 50 times their length, for walks from before and after the end.
TEST(LinearTrendCursor, WalksPastTheEndStopWhereThePredictionStaysZero) {
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  constexpr ReqRate kInf = std::numeric_limits<ReqRate>::infinity();
  std::vector<double> noisy;
  for (int i = 0; i < 45; ++i) noisy.push_back(300.0 + 97.0 * ((i * 37) % 11));
  std::vector<double> rising;
  for (int i = 0; i < 30; ++i) rising.push_back(10.0 * i);
  const std::vector<std::pair<std::string, LoadTrace>> traces = {
      {"noisy", LoadTrace(noisy)},
      {"rising", LoadTrace(rising)},
      {"step", step_trace({{500.0, 20.0}, {0.0, 20.0}})},
      {"spike", step_trace({{1.0, 10.0}, {1e12, 1.0}, {1.0, 10.0}})},
      // The data's weight at its end keeps the prediction above 0 well
      // past twice the trace length.
      {"late-spike", step_trace({{1.0, 29.0}, {1000.0, 1.0}})},
  };
  for (const auto& [name, trace] : traces) {
    const auto size = static_cast<TimePoint>(trace.size());
    for (const TimePoint factor : {4, 7, 13, 50}) {
      for (const Seconds horizon : {0.0, 50.0, 378.0}) {
        SCOPED_TRACE(name + ", window " + std::to_string(factor) +
                     "x, horizon " + std::to_string(horizon));
        const TimePoint window = factor * size;
        LinearTrendPredictor predictor(static_cast<Seconds>(window));
        const TimePoint end = size + window + 2;
        std::vector<ReqRate> expected;
        for (TimePoint t = 0; t <= end; ++t)
          expected.push_back(predictor.predict(trace, t, horizon));
        const TimePoint zero_from = trend_zero_from(size, window);
        for (TimePoint t = zero_from; t <= end; ++t)
          ASSERT_EQ(expected[static_cast<std::size_t>(t)], 0.0) << "t=" << t;

        const std::unique_ptr<PredictionCursor> cursor =
            predictor.cursor(trace, horizon);
        for (TimePoint t = std::max<TimePoint>(0, size - 8); t <= end;
             t += 1 + t % 5) {
          const ReqRate v = expected[static_cast<std::size_t>(t)];
          const std::pair<ReqRate, ReqRate> bands[] = {
              {v, std::nextafter(v, kInf)},
              {0.0, v + 1.0},
              {0.5 * v, 2.0 * v + 1.0},
              {v, kInf},
          };
          for (const auto& [lo, hi] : bands) {
            if (v < lo || !(v < hi)) continue;
            TimePoint want = kNever;
            for (TimePoint u = t + 1; u <= end && want == kNever; ++u) {
              const ReqRate w = expected[static_cast<std::size_t>(u)];
              if (w < lo || !(w < hi)) want = u;
            }
            ASSERT_EQ(cursor->value(t), v) << "t=" << t;
            const std::uint64_t walked = cursor->work().walk_seconds;
            ASSERT_EQ(cursor->first_outside(t, lo, hi), want)
                << "t=" << t << " band [" << lo << ", " << hi << ")";
            // The walk stepped no further than where the value settles.
            ASSERT_LE(cursor->work().walk_seconds - walked,
                      static_cast<std::uint64_t>(
                          std::max<TimePoint>(zero_from - t, 0)))
                << "t=" << t;
          }
        }
      }
    }
  }
  // The spec that walked for seconds: a 7,200 s step trace under a 1e9 s
  // window. From its end a walk in a band holding 0 steps to 4 x 7,200.
  const LoadTrace step = step_trace({{500.0, 3600.0}, {0.0, 3600.0}});
  const std::unique_ptr<PredictionCursor> cursor =
      LinearTrendPredictor(1e9).cursor(step, 378.0);
  ASSERT_EQ(cursor->value(7200), 0.0);
  EXPECT_EQ(cursor->first_outside(7200, 0.0, 1.0), kNever);
  EXPECT_LE(cursor->work().walk_seconds, 4u * 7200u);
}

TEST(PredictionCursor, StatefulPredictorsHaveNone) {
  const LoadTrace trace({1.0, 2.0, 3.0});
  EXPECT_EQ(EwmaPredictor(0.5).cursor(trace, 10.0), nullptr);
  EXPECT_EQ(ErrorInjectingPredictor(std::make_unique<OracleMaxPredictor>(),
                                    0.1, 0.0, 1)
                .cursor(trace, 10.0),
            nullptr);
}

// Property: the oracle prediction always covers the true load at every
// second inside the window — the guarantee the scheduler's QoS rests on.
class OracleCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleCoverage, PredictionCoversWindow) {
  DiurnalOptions options;
  options.noise = 0.1;
  options.seed = GetParam();
  const LoadTrace trace = diurnal_trace(options, 1);
  OracleMaxPredictor oracle;
  for (TimePoint t = 0; t < 86400; t += 1009) {
    const double predicted = oracle.predict(trace, t, 378.0);
    for (TimePoint s = t; s < t + 378 && s < 86400; s += 41)
      ASSERT_GE(predicted, trace.at(s)) << "t=" << t << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleCoverage,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace bml
