// Tests for trace/transforms.
#include "trace/transforms.hpp"

#include <gtest/gtest.h>

namespace bml {
namespace {

const LoadTrace kBase({1.0, 2.0, 3.0, 4.0, 5.0, 6.0});

TEST(Scale, MultipliesRates) {
  const LoadTrace t = scale(kBase, 2.0);
  EXPECT_DOUBLE_EQ(t.at(2), 6.0);
  EXPECT_DOUBLE_EQ(t.peak(), 12.0);
  EXPECT_THROW((void)scale(kBase, -1.0), std::invalid_argument);
}

TEST(Smooth, WindowOnePreservesTrace) {
  const LoadTrace t = smooth(kBase, 1);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_DOUBLE_EQ(t.at(static_cast<TimePoint>(i)),
                     kBase.at(static_cast<TimePoint>(i)));
}

TEST(Smooth, AveragesNeighbourhood) {
  const LoadTrace t = smooth(kBase, 3);
  EXPECT_DOUBLE_EQ(t.at(2), 3.0);                 // (2+3+4)/3
  EXPECT_DOUBLE_EQ(t.at(0), 1.5);                 // truncated: (1+2)/2
  EXPECT_DOUBLE_EQ(t.at(5), 5.5);                 // truncated: (5+6)/2
  EXPECT_THROW((void)smooth(kBase, 0), std::invalid_argument);
}

TEST(Smooth, PreservesMeanApproximately) {
  const LoadTrace t = smooth(kBase, 3);
  EXPECT_NEAR(t.mean(), kBase.mean(), 0.2);
}

TEST(Slice, ExtractsRange) {
  const LoadTrace t = slice(kBase, 1, 4);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0), 2.0);
  EXPECT_DOUBLE_EQ(t.at(2), 4.0);
  EXPECT_EQ(slice(kBase, 4, 100).size(), 2u);  // clamped end
  EXPECT_THROW((void)slice(kBase, 3, 1), std::invalid_argument);
}

TEST(ComposeSeasonality, DiurnalEnvelopePeaksAtPeakHour) {
  // Constant trace over half a day; with peak_hour = 0 the diurnal cosine
  // is +1 at t = 0, 0 a quarter-day in, and -1 at the half-day trough.
  const LoadTrace flat(std::vector<double>(43'201, 100.0));
  const LoadTrace t = compose_seasonality(flat, 0.5, 0.0, 0.0);
  ASSERT_EQ(t.size(), flat.size());
  EXPECT_NEAR(t.at(0), 150.0, 1e-9);
  EXPECT_NEAR(t.at(21'600), 100.0, 1e-9);
  EXPECT_NEAR(t.at(43'200), 50.0, 1e-9);
}

TEST(ComposeSeasonality, WeeklyAndDiurnalEnvelopesMultiply) {
  const LoadTrace flat(std::vector<double>(10, 100.0));
  const LoadTrace t = compose_seasonality(flat, 0.5, 0.2, 0.0);
  // Both cosines are ~1 right at the shared peak.
  EXPECT_NEAR(t.at(0), 100.0 * 1.5 * 1.2, 1e-9);
}

TEST(ComposeSeasonality, ZeroAmplitudesAreIdentity) {
  const LoadTrace t = compose_seasonality(kBase, 0.0, 0.0, 18.0);
  ASSERT_EQ(t.size(), kBase.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_DOUBLE_EQ(t.at(i), kBase.at(i));
}

TEST(ComposeSeasonality, RejectsAmplitudesOutsideUnitRange) {
  EXPECT_THROW((void)compose_seasonality(kBase, 1.5, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)compose_seasonality(kBase, 0.0, -0.1, 0.0),
               std::invalid_argument);
}

TEST(AddSpikes, IsSeedDeterministicAndOnlyAddsLoad) {
  const LoadTrace flat(std::vector<double>(600, 10.0));
  const LoadTrace a = add_spikes(flat, 30.0, 50.0, 1.5, 5, 42);
  const LoadTrace b = add_spikes(flat, 30.0, 50.0, 1.5, 5, 42);
  ASSERT_EQ(a.size(), flat.size());
  bool spiked = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.at(i), b.at(i));  // same seed, same trace
    EXPECT_GE(a.at(i), flat.at(i));      // spikes never remove load
    spiked |= a.at(i) > flat.at(i);
  }
  EXPECT_TRUE(spiked);  // a 600 s trace at 30 s mean gaps gets spikes
  const LoadTrace c = add_spikes(flat, 30.0, 50.0, 1.5, 5, 43);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) differs |= c.at(i) != a.at(i);
  EXPECT_TRUE(differs);
}

TEST(AddSpikes, CapsHeightsAndZeroMagnitudeIsIdentity) {
  const LoadTrace flat(std::vector<double>(600, 10.0));
  // duration = 1 means spikes cannot stack (gaps have a 1 s floor), so the
  // Pareto cap bounds every sample even with a heavy tail (small alpha).
  const LoadTrace t = add_spikes(flat, 20.0, 5.0, 0.1, 1, 7);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_LE(t.at(i), 10.0 + 100.0 * 5.0);
  const LoadTrace z = add_spikes(flat, 20.0, 0.0, 1.5, 60, 7);
  for (std::size_t i = 0; i < z.size(); ++i)
    EXPECT_DOUBLE_EQ(z.at(i), flat.at(i));
}

TEST(AddSpikes, RejectsInvalidParameters) {
  EXPECT_THROW((void)add_spikes(kBase, 0.0, 50.0, 1.5, 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)add_spikes(kBase, 30.0, -1.0, 1.5, 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)add_spikes(kBase, 30.0, 50.0, 0.0, 5, 1),
               std::invalid_argument);
  EXPECT_THROW((void)add_spikes(kBase, 30.0, 50.0, 1.5, 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace bml
