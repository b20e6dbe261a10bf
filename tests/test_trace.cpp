// Tests for trace/trace: LoadTrace container and CSV round-trip.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/time_series.hpp"

namespace bml {
namespace {

TEST(LoadTrace, BasicAccessors) {
  const LoadTrace t({10.0, 20.0, 30.0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.duration(), 3.0);
  EXPECT_DOUBLE_EQ(t.at(1), 20.0);
  EXPECT_DOUBLE_EQ(t.peak(), 30.0);
  EXPECT_DOUBLE_EQ(t.mean(), 20.0);
  EXPECT_DOUBLE_EQ(t.total_requests(), 60.0);
}

TEST(LoadTrace, BeyondEndServesZero) {
  const LoadTrace t({10.0});
  EXPECT_DOUBLE_EQ(t.at(5), 0.0);
  EXPECT_THROW((void)t.at(-1), std::invalid_argument);
}

TEST(LoadTrace, RejectsInvalidRates) {
  EXPECT_THROW(LoadTrace({-1.0}), std::invalid_argument);
  EXPECT_THROW(LoadTrace({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(LoadTrace({std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(LoadTrace, MaxOverWindow) {
  const LoadTrace t({1.0, 5.0, 2.0, 8.0, 3.0});
  EXPECT_DOUBLE_EQ(t.max_over(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.max_over(2, 100), 8.0);
  EXPECT_DOUBLE_EQ(t.max_over(-5, 1), 1.0);  // clamped start
  EXPECT_DOUBLE_EQ(t.max_over(3, 3), 0.0);   // empty window
}

TEST(LoadTrace, DaySlicing) {
  std::vector<double> rates(static_cast<std::size_t>(kSecondsPerDay) + 100,
                            1.0);
  rates[50] = 42.0;                                     // day 0 peak
  rates[static_cast<std::size_t>(kSecondsPerDay) + 7] = 17.0;  // day 1 peak
  const LoadTrace t(std::move(rates));
  EXPECT_EQ(t.days(), 2u);
  EXPECT_DOUBLE_EQ(t.day_peak(0), 42.0);
  EXPECT_DOUBLE_EQ(t.day_peak(1), 17.0);
  EXPECT_THROW((void)t.day_peak(2), std::out_of_range);
}

TEST(LoadTrace, CsvRoundTrip) {
  const LoadTrace original({1.5, 0.0, 300.25});
  const LoadTrace parsed = LoadTrace::from_csv(original.to_csv());
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i)
    EXPECT_DOUBLE_EQ(parsed.at(static_cast<TimePoint>(i)),
                     original.at(static_cast<TimePoint>(i)));
}

TEST(LoadTrace, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "bml_trace_test.csv";
  const LoadTrace original({5.0, 10.0});
  original.save(path);
  const LoadTrace loaded = LoadTrace::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.at(1), 10.0);
  std::filesystem::remove(path);
}

TEST(LoadTrace, StoresNegativeZeroAsPositiveZero) {
  // -0.0 passes validation (it is >= 0) and equals 0.0, so it sits inside
  // a zero run; stored as +0.0, every sample of the run has its bits.
  const LoadTrace t({-0.0, 0.0, 4.0, -0.0});
  for (TimePoint s = 0; s < 4; ++s)
    EXPECT_FALSE(std::signbit(t.at(s))) << "t=" << s;
  EXPECT_EQ(t.run_ends().size(), 3u);
  EXPECT_EQ(t.next_change(0), 2);
}

TEST(LoadTrace, PeakReadsTheIndex) {
  // build_max_index builds no index below 4 * kMaxBlock samples, so peak()
  // scans there and reads the range-max index from there on: either way
  // it must be max_element's value. Random traces just under and just over
  // the size, with the maximum anywhere (in a partial head or tail block,
  // or inside the indexed blocks), and all-zero and one-sample traces.
  constexpr std::size_t kIndexFrom = 4 * TimeSeries::kMaxBlock;
  Rng rng(28);
  for (const std::size_t n : {kIndexFrom - 1, kIndexFrom, kIndexFrom + 1,
                              kIndexFrom + TimeSeries::kMaxBlock + 7,
                              std::size_t{100'003}}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> rates(n);
      for (double& r : rates) r = rng.uniform(0.0, 1000.0);
      // Ties at the top now and then.
      if (trial % 4 == 0)
        rates[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] =
            *std::max_element(rates.begin(), rates.end());
      const double expected = *std::max_element(rates.begin(), rates.end());
      const LoadTrace t(std::move(rates));
      EXPECT_EQ(t.peak(), expected) << "n=" << n << " trial " << trial;
    }
  }
  EXPECT_EQ(LoadTrace(std::vector<double>(kIndexFrom + 5, 0.0)).peak(), 0.0);
  EXPECT_EQ(LoadTrace(std::vector<double>{42.5}).peak(), 42.5);
  EXPECT_EQ(LoadTrace(std::vector<double>{}).peak(), 0.0);
  EXPECT_EQ(LoadTrace().peak(), 0.0);
}

TEST(LoadTrace, EmptyTraceBehaviour) {
  const LoadTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.days(), 0u);
  EXPECT_DOUBLE_EQ(t.peak(), 0.0);
  EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

}  // namespace
}  // namespace bml
