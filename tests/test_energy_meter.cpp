// Tests for power/energy_meter: integration, channels, per-day buckets.
#include "power/energy_meter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace bml {
namespace {

TEST(EnergyMeter, IntegratesComputePower) {
  EnergyMeter meter(1.0);
  for (int i = 0; i < 100; ++i) {
    meter.add_compute_sample(50.0);
    meter.tick();
  }
  EXPECT_DOUBLE_EQ(meter.compute_energy(), 5000.0);
  EXPECT_DOUBLE_EQ(meter.reconfiguration_energy(), 0.0);
  EXPECT_DOUBLE_EQ(meter.total_energy(), 5000.0);
  EXPECT_DOUBLE_EQ(meter.elapsed(), 100.0);
}

TEST(EnergyMeter, SeparatesChannels) {
  EnergyMeter meter;
  meter.add_compute_sample(10.0);
  meter.add_reconfiguration_energy(25.0);
  meter.tick();
  EXPECT_DOUBLE_EQ(meter.compute_energy(), 10.0);
  EXPECT_DOUBLE_EQ(meter.reconfiguration_energy(), 25.0);
  EXPECT_DOUBLE_EQ(meter.total_energy(), 35.0);
}

TEST(EnergyMeter, PerDayAttribution) {
  EnergyMeter meter(1.0);
  // One full day of 1 W, then half a day of 3 W.
  for (TimePoint t = 0; t < kSecondsPerDay; ++t) {
    meter.add_compute_sample(1.0);
    meter.tick();
  }
  for (TimePoint t = 0; t < kSecondsPerDay / 2; ++t) {
    meter.add_compute_sample(3.0);
    meter.tick();
  }
  const auto days = meter.per_day_total();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_DOUBLE_EQ(days[0], static_cast<double>(kSecondsPerDay));
  EXPECT_DOUBLE_EQ(days[1], 1.5 * static_cast<double>(kSecondsPerDay));
}

TEST(EnergyMeter, ReconfigurationLandsOnCurrentDay) {
  EnergyMeter meter(1.0);
  for (TimePoint t = 0; t < kSecondsPerDay; ++t) meter.tick();
  meter.add_reconfiguration_energy(100.0);
  const auto reconf = meter.per_day_reconfiguration();
  ASSERT_EQ(reconf.size(), 2u);
  EXPECT_DOUBLE_EQ(reconf[0], 0.0);
  EXPECT_DOUBLE_EQ(reconf[1], 100.0);
}

TEST(EnergyMeter, CustomStepScalesEnergy) {
  EnergyMeter meter(10.0);
  meter.add_compute_sample(5.0);
  meter.tick();
  EXPECT_DOUBLE_EQ(meter.compute_energy(), 50.0);
  EXPECT_DOUBLE_EQ(meter.elapsed(), 10.0);
}

TEST(EnergyMeter, Validation) {
  EXPECT_THROW(EnergyMeter(0.0), std::invalid_argument);
  EnergyMeter meter;
  EXPECT_THROW(meter.add_compute_sample(-1.0), std::invalid_argument);
  EXPECT_THROW(meter.add_reconfiguration_energy(-1.0), std::invalid_argument);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const EnergyMeter& a, const EnergyMeter& b) {
  EXPECT_EQ(bits(a.compute_energy()), bits(b.compute_energy()));
  EXPECT_EQ(bits(a.reconfiguration_energy()),
            bits(b.reconfiguration_energy()));
  EXPECT_EQ(bits(a.elapsed()), bits(b.elapsed()));
  ASSERT_EQ(a.per_day_compute().size(), b.per_day_compute().size());
  for (std::size_t d = 0; d < b.per_day_compute().size(); ++d) {
    EXPECT_EQ(bits(a.per_day_compute()[d]), bits(b.per_day_compute()[d]))
        << "day " << d;
    EXPECT_EQ(bits(a.per_day_reconfiguration()[d]),
              bits(b.per_day_reconfiguration()[d]))
        << "day " << d;
  }
}

TEST(EnergyMeter, OpenSpanMatchesPerRunAddSpan) {
  // Random runs, grouped into random spans that each hold the meter open
  // with one transition power: the meter must be the bits of one
  // add_span call per run. Some runs are long enough to cross a day (the
  // add_span fallback), some end exactly on one, and some are empty.
  for (const Seconds step : {1.0, 0.7}) {
    std::mt19937_64 gen(25);
    std::uniform_real_distribution<double> power(0.0, 900.0);
    std::uniform_int_distribution<std::int64_t> seconds(0, 4000);
    std::uniform_int_distribution<int> span_runs(1, 30);
    EnergyMeter open(step);
    EnergyMeter reference(step);
    for (int span = 0; span < 300; ++span) {
      const Watts transition = span % 3 == 0 ? 0.0 : power(gen);
      EnergyMeter::OpenSpan held(open, transition);
      for (int r = span_runs(gen); r > 0; --r) {
        const Watts compute = power(gen);
        std::int64_t s = seconds(gen);
        if (r % 11 == 0) s += kSecondsPerDay;
        held.add(compute, s);
        reference.add_span(compute, transition, static_cast<std::size_t>(s));
      }
      held.close();
      expect_same_bits(open, reference);
    }
    EXPECT_GT(open.per_day_compute().size(), 10u);
  }
}

TEST(EnergyMeter, OpenSpanOnADayBoundary) {
  // Opened exactly at a day's end, and on a fresh meter: no bucket is
  // open, so the first run takes add_span's path and sizes the buckets.
  EnergyMeter open(1.0);
  EnergyMeter reference(1.0);
  {
    EnergyMeter::OpenSpan held(open, 2.0);
    held.add(10.0, kSecondsPerDay);
    held.close();
  }
  reference.add_span(10.0, 2.0, static_cast<std::size_t>(kSecondsPerDay));
  expect_same_bits(open, reference);
  EnergyMeter::OpenSpan held(open, 2.0);
  held.add(5.0, 10);
  held.add(6.0, 0);
  held.close();
  reference.add_span(5.0, 2.0, 10);
  reference.add_span(6.0, 2.0, 0);
  expect_same_bits(open, reference);
  EXPECT_EQ(open.per_day_compute().size(), 2u);
}

TEST(EnergyMeter, OpenSpanRejectsNegativeTransition) {
  EnergyMeter meter(1.0);
  EXPECT_THROW(EnergyMeter::OpenSpan(meter, -1.0), std::invalid_argument);
}

TEST(EnergyMeter, AddIntegratedSpanMatchesAddSpan) {
  EnergyMeter fused(1.0);
  EnergyMeter reference(1.0);
  // 100 s at 42 W: the caller pre-integrated 4200 J.
  fused.add_integrated_span(42.0 * 100.0, 5.0, 100);
  reference.add_span(42.0, 5.0, 100);
  EXPECT_DOUBLE_EQ(fused.compute_energy(), reference.compute_energy());
  EXPECT_DOUBLE_EQ(fused.reconfiguration_energy(),
                   reference.reconfiguration_energy());
  EXPECT_DOUBLE_EQ(fused.elapsed(), reference.elapsed());
}

TEST(EnergyMeter, AddIntegratedSpanRejectsDayStraddle) {
  EnergyMeter meter(1.0);
  meter.add_span(10.0, 0.0, 100);  // now 100 s into day 0
  EXPECT_THROW(meter.add_integrated_span(
                   1.0, 0.0, static_cast<std::size_t>(kSecondsPerDay)),
               std::logic_error);
  EXPECT_THROW(meter.add_integrated_span(-1.0, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW(meter.add_integrated_span(1.0, -1.0, 10),
               std::invalid_argument);
}

TEST(EnergyMeter, PerDaySumsMatchTotals) {
  EnergyMeter meter(1.0);
  for (TimePoint t = 0; t < kSecondsPerDay * 2 + 1234; ++t) {
    meter.add_compute_sample(static_cast<double>(t % 7));
    if (t % 1000 == 0) meter.add_reconfiguration_energy(2.5);
    meter.tick();
  }
  double total = 0.0;
  for (double d : meter.per_day_total()) total += d;
  EXPECT_NEAR(total, meter.total_energy(), 1e-6);
}

}  // namespace
}  // namespace bml
