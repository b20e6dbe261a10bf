// Tests for power/energy_meter: integration, channels, per-day buckets.
#include "power/energy_meter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/units.hpp"

namespace bml {
namespace {

TEST(EnergyMeter, IntegratesComputePower) {
  EnergyMeter meter;
  for (int i = 0; i < 100; ++i) {
    meter.add_compute_sample(50.0);
    meter.tick();
  }
  EXPECT_DOUBLE_EQ(meter.compute_energy(), 5000.0);
  EXPECT_DOUBLE_EQ(meter.reconfiguration_energy(), 0.0);
}

TEST(EnergyMeter, SeparatesChannels) {
  EnergyMeter meter;
  meter.add_compute_sample(10.0);
  meter.add_reconfiguration_energy(25.0);
  meter.tick();
  EXPECT_DOUBLE_EQ(meter.compute_energy(), 10.0);
  EXPECT_DOUBLE_EQ(meter.reconfiguration_energy(), 25.0);
}

TEST(EnergyMeter, PerDayAttribution) {
  EnergyMeter meter;
  // One full day of 1 W, then half a day of 3 W.
  for (TimePoint t = 0; t < kSecondsPerDay; ++t) {
    meter.add_compute_sample(1.0);
    meter.tick();
  }
  for (TimePoint t = 0; t < kSecondsPerDay / 2; ++t) {
    meter.add_compute_sample(3.0);
    meter.tick();
  }
  const auto& days = meter.per_day_compute();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_DOUBLE_EQ(days[0], static_cast<double>(kSecondsPerDay));
  EXPECT_DOUBLE_EQ(days[1], 1.5 * static_cast<double>(kSecondsPerDay));
}

TEST(EnergyMeter, ReconfigurationLandsOnCurrentDay) {
  EnergyMeter meter;
  for (TimePoint t = 0; t < kSecondsPerDay; ++t) meter.tick();
  meter.add_reconfiguration_energy(100.0);
  const auto reconf = meter.per_day_reconfiguration();
  ASSERT_EQ(reconf.size(), 2u);
  EXPECT_DOUBLE_EQ(reconf[0], 0.0);
  EXPECT_DOUBLE_EQ(reconf[1], 100.0);
}

TEST(EnergyMeter, Validation) {
  EnergyMeter meter;
  EXPECT_THROW(meter.add_compute_sample(-1.0), std::invalid_argument);
  EXPECT_THROW(meter.add_reconfiguration_energy(-1.0), std::invalid_argument);
}

TEST(EnergyMeter, AddIntegratedSpanMatchesPerSecondSamples) {
  EnergyMeter fused;
  EnergyMeter reference;
  // 100 s at 42 W with 5 W of transition power: the caller pre-integrated
  // 4200 J of compute.
  fused.add_integrated_span(42.0 * 100.0, 5.0, 100);
  for (int s = 0; s < 100; ++s) {
    reference.add_compute_sample(42.0);
    reference.add_reconfiguration_energy(5.0);
    reference.tick();
  }
  EXPECT_DOUBLE_EQ(fused.compute_energy(), reference.compute_energy());
  EXPECT_DOUBLE_EQ(fused.reconfiguration_energy(),
                   reference.reconfiguration_energy());
  // Both stand 100 s into day 0: a span to the day's end still fits.
  fused.add_integrated_span(0.0, 0.0,
                            static_cast<std::size_t>(kSecondsPerDay - 100));
  fused.add_compute_sample(1.0);
  EXPECT_EQ(fused.per_day_compute().size(), 2u);
}

TEST(EnergyMeter, AddIntegratedSpanRejectsDayStraddle) {
  EnergyMeter meter;
  meter.add_integrated_span(1000.0, 0.0, 100);  // now 100 s into day 0
  EXPECT_THROW(meter.add_integrated_span(
                   1.0, 0.0, static_cast<std::size_t>(kSecondsPerDay)),
               std::logic_error);
  EXPECT_THROW(meter.add_integrated_span(-1.0, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW(meter.add_integrated_span(1.0, -1.0, 10),
               std::invalid_argument);
}

TEST(EnergyMeter, PerDaySumsMatchTotals) {
  EnergyMeter meter;
  for (TimePoint t = 0; t < kSecondsPerDay * 2 + 1234; ++t) {
    meter.add_compute_sample(static_cast<double>(t % 7));
    if (t % 1000 == 0) meter.add_reconfiguration_energy(2.5);
    meter.tick();
  }
  ASSERT_EQ(meter.per_day_compute().size(), 3u);
  double compute = 0.0;
  double reconf = 0.0;
  for (double d : meter.per_day_compute()) compute += d;
  for (double d : meter.per_day_reconfiguration()) reconf += d;
  EXPECT_NEAR(compute, meter.compute_energy(), 1e-6);
  EXPECT_NEAR(reconf, meter.reconfiguration_energy(), 1e-6);
}

}  // namespace
}  // namespace bml
