// Tests for util/time_series.
#include "util/time_series.hpp"

#include <gtest/gtest.h>

namespace bml {
namespace {

TEST(TimeSeries, BasicAccessors) {
  const TimeSeries s({1.0, 2.0, 3.0});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.duration(), 3.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_DOUBLE_EQ(s.at(2), 3.0);
  EXPECT_THROW((void)s.at(3), std::out_of_range);
}

TEST(TimeSeries, RejectsNonPositiveStep) {
  EXPECT_THROW(TimeSeries({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(TimeSeries({1.0}, -1.0), std::invalid_argument);
}

TEST(TimeSeries, MaxOverClampsRanges) {
  const TimeSeries s({1.0, 5.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.max_over(0, 4), 5.0);
  EXPECT_DOUBLE_EQ(s.max_over(2, 100), 4.0);
  EXPECT_DOUBLE_EQ(s.max_over(3, 3), 0.0);  // empty range
  EXPECT_DOUBLE_EQ(s.max_over(10, 20), 0.0);
}

TEST(TimeSeries, IntegralUsesStep) {
  const TimeSeries s({2.0, 2.0, 2.0}, 10.0);
  EXPECT_DOUBLE_EQ(s.integral(), 60.0);
  EXPECT_DOUBLE_EQ(s.integral_over(1, 3), 40.0);
}

TEST(TimeSeries, PerWindowAggregates) {
  // Windows of 2 samples over 5, the last one partial: each window's
  // integral and max, through the clamping range queries.
  const TimeSeries s({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.integral_over(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(s.integral_over(2, 4), 7.0);
  EXPECT_DOUBLE_EQ(s.integral_over(4, 6), 5.0);  // partial last window
  EXPECT_DOUBLE_EQ(s.max_over(4, 6), 5.0);
  EXPECT_DOUBLE_EQ(s.integral_over(6, 8), 0.0);  // past the end
}

TEST(TimeSeries, Extremes) {
  const TimeSeries s({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  const TimeSeries empty;
  EXPECT_THROW((void)empty.max(), std::logic_error);
}

TEST(TimeSeries, PushBackGrows) {
  TimeSeries s;
  s.push_back(1.0);
  s.push_back(2.0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.integral(), 3.0);
}

// The block + sparse-table range-max index must answer every window
// query with exactly the value the plain scan returns — it is the hot
// primitive under predict() of the history-window predictors, and the
// simulator's byte-identity contract rides on the equality.
TEST(TimeSeries, MaxIndexMatchesPlainScanOnEveryWindow) {
  std::vector<double> values;
  std::uint64_t x = 88172645463325252ull;  // xorshift, deterministic
  for (int i = 0; i < 1500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<double>(x % 10000) / 7.0);
  }
  TimeSeries indexed(values);
  indexed.build_max_index();
  const TimeSeries plain(values);
  for (std::size_t begin = 0; begin < values.size(); begin += 13) {
    for (std::size_t len : {1u, 7u, 63u, 64u, 65u, 129u, 500u, 2000u}) {
      ASSERT_EQ(indexed.max_over(begin, begin + len),
                plain.max_over(begin, begin + len))
          << "begin=" << begin << " len=" << len;
    }
  }
  EXPECT_DOUBLE_EQ(indexed.max_over(0, values.size()), plain.max());
}

// push_back after build_max_index discards the index rather than serving
// stale maxima.
TEST(TimeSeries, PushBackInvalidatesMaxIndex) {
  std::vector<double> values(400, 1.0);
  TimeSeries s(values);
  s.build_max_index();
  EXPECT_DOUBLE_EQ(s.max_over(0, 400), 1.0);
  s.push_back(9.0);
  EXPECT_DOUBLE_EQ(s.max_over(0, 401), 9.0);
  EXPECT_DOUBLE_EQ(s.max_over(0, 400), 1.0);
}

// Window integrals must always sum to the full integral.
class WindowPartition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowPartition, WindowsSumToTotal) {
  std::vector<double> values;
  for (int i = 0; i < 97; ++i) values.push_back(i * 0.37);
  const TimeSeries s(values);
  const std::size_t window = GetParam();
  double sum = 0.0;
  for (std::size_t begin = 0; begin < s.size(); begin += window)
    sum += s.integral_over(begin, begin + window);
  EXPECT_NEAR(sum, s.integral(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowPartition,
                         ::testing::Values(1, 2, 3, 7, 10, 96, 97, 1000));

}  // namespace
}  // namespace bml
