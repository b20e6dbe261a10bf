// Tests for trace/synthetic: generators and their statistical shape.
#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace bml {
namespace {

TEST(ConstantTrace, FlatAtRate) {
  const LoadTrace t = constant_trace(50.0, 100.0);
  EXPECT_EQ(t.size(), 100u);
  EXPECT_DOUBLE_EQ(t.peak(), 50.0);
  EXPECT_DOUBLE_EQ(t.mean(), 50.0);
  EXPECT_THROW((void)constant_trace(-1.0, 10.0), std::invalid_argument);
}

TEST(StepTrace, SegmentsInOrder) {
  const LoadTrace t = step_trace({{10.0, 5.0}, {20.0, 3.0}});
  ASSERT_EQ(t.size(), 8u);
  EXPECT_DOUBLE_EQ(t.at(4), 10.0);
  EXPECT_DOUBLE_EQ(t.at(5), 20.0);
  EXPECT_THROW((void)step_trace({{-1.0, 5.0}}), std::invalid_argument);
}

TEST(DiurnalTrace, PeaksNearPeakHourTroughsOpposite) {
  DiurnalOptions options;
  options.peak = 1000.0;
  options.trough_fraction = 0.2;
  options.peak_hour = 18.0;
  options.noise = 0.0;
  const LoadTrace t = diurnal_trace(options, 1);
  const auto at_hour = [&t](double h) {
    return t.at(static_cast<TimePoint>(h * 3600.0));
  };
  EXPECT_NEAR(at_hour(18.0), 1000.0, 1.0);
  EXPECT_NEAR(at_hour(6.0), 200.0, 1.0);
  EXPECT_GT(at_hour(15.0), at_hour(9.0));
}

TEST(DiurnalTrace, DeterministicPerSeed) {
  DiurnalOptions options;
  options.noise = 0.05;
  options.seed = 11;
  const LoadTrace a = diurnal_trace(options, 1);
  const LoadTrace b = diurnal_trace(options, 1);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.at(static_cast<TimePoint>(i * 777)),
                     b.at(static_cast<TimePoint>(i * 777)));
}

TEST(DiurnalTrace, Validation) {
  DiurnalOptions bad;
  bad.peak = 0.0;
  EXPECT_THROW((void)diurnal_trace(bad, 1), std::invalid_argument);
  DiurnalOptions bad2;
  bad2.trough_fraction = 1.5;
  EXPECT_THROW((void)diurnal_trace(bad2, 1), std::invalid_argument);
}

TEST(FlashCrowdTrace, RampHoldDecay) {
  FlashCrowdOptions options;
  options.base = 10.0;
  options.burst_peak = 100.0;
  options.duration = 1000.0;
  options.burst_start = 200.0;
  options.ramp = 100.0;
  options.hold = 200.0;
  const LoadTrace t = flash_crowd_trace(options);
  EXPECT_DOUBLE_EQ(t.at(100), 10.0);            // before burst
  EXPECT_NEAR(t.at(250), 55.0, 1.0);            // mid ramp
  EXPECT_DOUBLE_EQ(t.at(400), 100.0);           // hold
  EXPECT_DOUBLE_EQ(t.at(900), 10.0);            // after decay
  EXPECT_DOUBLE_EQ(t.peak(), 100.0);
}

TEST(WorldCupTrace, ShapeInvariants) {
  WorldCupOptions options;
  options.days = 10;
  options.peak = 2000.0;
  options.tournament_start_day = 4;
  options.tournament_end_day = 9;
  options.seed = 3;
  const LoadTrace t = worldcup_like_trace(options);
  EXPECT_EQ(t.days(), 10u);
  // The realised maximum is pinned exactly to the requested peak.
  EXPECT_NEAR(t.peak(), 2000.0, 1e-6);
  // Pre-tournament days are far quieter than the finals.
  EXPECT_LT(t.day_peak(0), 0.35 * t.day_peak(9));
  // Tournament growth: late days beat early tournament days.
  EXPECT_GT(t.day_peak(9), t.day_peak(4));
}

TEST(WorldCupTrace, DeterministicPerSeed) {
  WorldCupOptions options;
  options.days = 2;
  options.seed = 5;
  const LoadTrace a = worldcup_like_trace(options);
  const LoadTrace b = worldcup_like_trace(options);
  for (std::size_t i = 0; i < a.size(); i += 9973)
    EXPECT_DOUBLE_EQ(a.at(static_cast<TimePoint>(i)),
                     b.at(static_cast<TimePoint>(i)));
  WorldCupOptions other = options;
  other.seed = 6;
  const LoadTrace c = worldcup_like_trace(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); i += 9973)
    if (a.at(static_cast<TimePoint>(i)) != c.at(static_cast<TimePoint>(i)))
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(WorldCupTrace, PoissonArrivalsRaiseShortTermVariance) {
  WorldCupOptions smooth;
  smooth.days = 1;
  smooth.poisson_arrivals = false;
  smooth.noise = 0.0;
  WorldCupOptions bursty = smooth;
  bursty.poisson_arrivals = true;
  const LoadTrace a = worldcup_like_trace(smooth);
  const LoadTrace b = worldcup_like_trace(bursty);
  // Compare second-to-second jitter around noon.
  auto jitter = [](const LoadTrace& t) {
    double sum = 0.0;
    const TimePoint base = 12 * 3600;
    for (TimePoint s = 0; s < 600; ++s)
      sum += std::abs(t.at(base + s + 1) - t.at(base + s));
    return sum;
  };
  EXPECT_GT(jitter(b), jitter(a) * 5.0);
}

TEST(WorldCupTrace, Validation) {
  WorldCupOptions bad;
  bad.days = 0;
  EXPECT_THROW((void)worldcup_like_trace(bad), std::invalid_argument);
  WorldCupOptions bad2;
  bad2.tournament_start_day = 5;
  bad2.tournament_end_day = 2;
  EXPECT_THROW((void)worldcup_like_trace(bad2), std::invalid_argument);

  // Burst ranges: min <= max, durations that fit in a day (a micro-burst
  // as long as a day used to draw its start from an empty range), and a
  // non-negative micro-burst rate. NaN fails every check.
  const auto rejects = [](const auto& edit, const std::string& key) {
    WorldCupOptions options;
    options.days = 2;
    edit(options);
    try {
      (void)worldcup_like_trace(options);
      ADD_FAILURE() << "expected a validation error naming " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  rejects([](WorldCupOptions& o) { o.news_burst_min_amplitude = 0.6; },
          "news_burst_min_amplitude");
  rejects([](WorldCupOptions& o) { o.news_burst_min_duration = 3000.0; },
          "news_burst_min_duration");
  rejects([](WorldCupOptions& o) { o.news_burst_min_duration = -1.0; },
          "news_burst_min_duration");
  rejects([](WorldCupOptions& o) { o.news_burst_ramp = -5.0; },
          "news_burst_ramp");
  rejects(
      [](WorldCupOptions& o) {
        o.news_burst_min_duration = 80'000.0;
        o.news_burst_max_duration = 86'200.0;
      },
      "news_burst_max_duration");
  rejects([](WorldCupOptions& o) { o.news_burst_ramp = 43'000.0; },
          "news_burst_ramp");
  rejects([](WorldCupOptions& o) { o.micro_bursts_per_day = -1.0; },
          "micro_bursts_per_day");
  rejects(
      [](WorldCupOptions& o) {
        o.micro_bursts_per_day = std::numeric_limits<double>::quiet_NaN();
      },
      "micro_bursts_per_day");
  rejects([](WorldCupOptions& o) { o.micro_burst_min_amplitude = 0.1; },
          "micro_burst_min_amplitude");
  rejects([](WorldCupOptions& o) { o.micro_burst_min_duration = 400.0; },
          "micro_burst_min_duration");
  rejects(
      [](WorldCupOptions& o) {
        o.micro_burst_min_duration = 90'000.0;
        o.micro_burst_max_duration = 100'000.0;
      },
      "micro_burst_max_duration");
  rejects([](WorldCupOptions& o) { o.micro_burst_max_duration = 86'400.0; },
          "micro_burst_max_duration");

  // The longest bursts that fit still generate.
  WorldCupOptions longest;
  longest.days = 2;
  longest.news_burst_prob_per_day = 1.0;
  longest.news_burst_min_duration = 80'000.0;
  longest.news_burst_max_duration = 86'400.0 - 2.0 * 120.0 - 1.0;
  longest.micro_burst_min_duration = 86'000.0;
  longest.micro_burst_max_duration = 86'399.5;
  EXPECT_EQ(worldcup_like_trace(longest).size(), 2U * 86'400U);
}

TEST(WorldCupTrace, MatchDaysShowEveningSurges) {
  WorldCupOptions options;
  options.days = 12;
  options.tournament_start_day = 8;
  options.tournament_end_day = 11;
  options.noise = 0.0;
  options.poisson_arrivals = false;
  const LoadTrace t = worldcup_like_trace(options);
  // On a tournament day, the 21:00 kick-off hour beats the 10:00 hour by
  // more than the diurnal shape alone explains on a pre-tournament day.
  const auto at = [&t](std::size_t day, double hour) {
    return t.at(static_cast<TimePoint>(day) * kSecondsPerDay +
                static_cast<TimePoint>(hour * 3600.0));
  };
  const double match_ratio = at(10, 21.5) / at(10, 10.0);
  const double quiet_ratio = at(2, 21.5) / at(2, 10.0);
  EXPECT_GT(match_ratio, quiet_ratio * 1.3);
}

}  // namespace
}  // namespace bml
