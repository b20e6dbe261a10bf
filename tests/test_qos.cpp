// Tests for sim/qos.
#include "sim/qos.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

namespace bml {
namespace {

TEST(HeadroomFactor, ClassValues) {
  EXPECT_GT(headroom_factor(QosClass::kCritical), 1.0);
  EXPECT_DOUBLE_EQ(headroom_factor(QosClass::kTolerant), 1.0);
}

TEST(QosTracker, NoViolationsWhenCapacityCovers) {
  QosTracker tracker;
  for (int i = 0; i < 10; ++i) tracker.record(50.0, 100.0);
  const QosStats& s = tracker.stats();
  EXPECT_EQ(s.violation_seconds, 0);
  EXPECT_DOUBLE_EQ(s.unserved_requests, 0.0);
  EXPECT_DOUBLE_EQ(s.served_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(s.availability(), 1.0);
  EXPECT_EQ(s.total_seconds, 10);
  EXPECT_DOUBLE_EQ(s.offered_requests, 500.0);
}

TEST(QosTracker, AccountsShortfalls) {
  QosTracker tracker;
  tracker.record(100.0, 60.0);  // 40 dropped
  tracker.record(100.0, 100.0);
  tracker.record(30.0, 0.0);    // all dropped
  const QosStats& s = tracker.stats();
  EXPECT_EQ(s.violation_seconds, 2);
  EXPECT_DOUBLE_EQ(s.unserved_requests, 70.0);
  EXPECT_DOUBLE_EQ(s.worst_shortfall, 40.0);
  EXPECT_NEAR(s.served_fraction(), 1.0 - 70.0 / 230.0, 1e-12);
  EXPECT_NEAR(s.availability(), 1.0 / 3.0, 1e-12);
}

TEST(QosTracker, EmptyStatsAreClean) {
  const QosStats s;
  EXPECT_DOUBLE_EQ(s.served_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(s.availability(), 1.0);
}

TEST(QosTracker, RejectsNegativeInputs) {
  QosTracker tracker;
  EXPECT_THROW((void)tracker.record(-1.0, 5.0), std::invalid_argument);
  EXPECT_THROW((void)tracker.record(1.0, -5.0), std::invalid_argument);
  EXPECT_THROW(tracker.record_span(1.0, 5.0, -1), std::invalid_argument);
}

void expect_same_bits(const QosStats& a, const QosStats& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.violation_seconds, b.violation_seconds);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.offered_requests),
            std::bit_cast<std::uint64_t>(b.offered_requests));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.unserved_requests),
            std::bit_cast<std::uint64_t>(b.unserved_requests));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.worst_shortfall),
            std::bit_cast<std::uint64_t>(b.worst_shortfall));
}

TEST(QosTracker, OpenSpanMatchesPerRunRecordSpan) {
  // Random runs, grouped into random spans, each span held open: the
  // stats must be the bits of one record_span call per run.
  std::mt19937_64 gen(25);
  std::uniform_real_distribution<double> load(0.0, 1500.0);
  std::uniform_real_distribution<double> cap(0.0, 1200.0);
  std::uniform_int_distribution<std::int64_t> seconds(1, 400);
  std::uniform_int_distribution<int> span_runs(1, 40);
  QosTracker open;
  QosTracker reference;
  for (int span = 0; span < 200; ++span) {
    QosTracker::OpenSpan held(open);
    std::int64_t span_seconds = 0;
    for (int r = span_runs(gen); r > 0; --r) {
      // Whole-number loads now and then, so shortfalls tie the worst.
      const ReqRate l = r % 7 == 0 ? 900.0 : load(gen);
      const ReqRate c = r % 5 == 0 ? 800.0 : cap(gen);
      const std::int64_t s = seconds(gen);
      held.record(l, c, s);
      span_seconds += s;
      reference.record_span(l, c, s);
    }
    held.close(span_seconds);
    expect_same_bits(open.stats(), reference.stats());
  }
  EXPECT_GT(open.stats().violation_seconds, 0);
}

TEST(QosTracker, EmptySpanLeavesWorstShortfall) {
  // A zero-length span must not touch worst_shortfall.
  QosTracker tracker;
  tracker.record_span(500.0, 10.0, 0);
  EXPECT_EQ(tracker.stats().worst_shortfall, 0.0);
  EXPECT_EQ(tracker.stats().total_seconds, 0);
}

TEST(QosTracker, RecordTotalsFoldsAggregates) {
  QosTracker via_totals;
  QosTracker reference;
  QosSpanTotals totals;
  const struct {
    ReqRate load;
    std::int64_t seconds;
  } runs[] = {{500.0, 100}, {900.0, 10}, {850.0, 3}};
  const ReqRate capacity = 800.0;
  for (const auto& r : runs) {
    reference.record_span(r.load, capacity, r.seconds);
    totals.add(r.load, capacity, r.seconds);
  }
  via_totals.record_totals(totals);
  EXPECT_EQ(via_totals.stats().total_seconds,
            reference.stats().total_seconds);
  EXPECT_EQ(via_totals.stats().violation_seconds,
            reference.stats().violation_seconds);
  EXPECT_DOUBLE_EQ(via_totals.stats().worst_shortfall,
                   reference.stats().worst_shortfall);
  EXPECT_NEAR(via_totals.stats().offered_requests,
              reference.stats().offered_requests, 1e-9);
  EXPECT_NEAR(via_totals.stats().unserved_requests,
              reference.stats().unserved_requests, 1e-9);
}

TEST(QosTracker, SpanAccountingMatchesPerSecondAcrossCapacityBoundary) {
  // The event-driven simulator batches whole violation (and recovery)
  // phases into single record_span calls; the sequence below crosses the
  // load > capacity boundary in both directions. Integer counters must
  // match the per-second tracker exactly, the integrals bit-for-bit here
  // (identical multiplication-free-vs-repeated-add is not required by the
  // contract, but each span is one multiply so totals stay within 1e-9).
  const struct {
    ReqRate load, capacity;
    std::int64_t seconds;
  } phases[] = {
      {500.0, 800.0, 120},  // healthy
      {900.0, 800.0, 37},   // violation span (boot in flight)
      {900.0, 1200.0, 60},  // boot completed mid-demand: healthy again
      {50.0, 0.0, 5},       // everything off: total shortfall
  };

  QosTracker span_tracker;
  QosTracker per_second;
  for (const auto& p : phases) {
    span_tracker.record_span(p.load, p.capacity, p.seconds);
    for (std::int64_t s = 0; s < p.seconds; ++s)
      per_second.record(p.load, p.capacity);
  }

  const QosStats& a = span_tracker.stats();
  const QosStats& b = per_second.stats();
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.violation_seconds, b.violation_seconds);
  EXPECT_EQ(a.violation_seconds, 42);
  EXPECT_DOUBLE_EQ(a.worst_shortfall, b.worst_shortfall);
  EXPECT_NEAR(a.unserved_requests, b.unserved_requests,
              1e-9 * b.unserved_requests);
  EXPECT_NEAR(a.offered_requests, b.offered_requests,
              1e-9 * b.offered_requests);
}

}  // namespace
}  // namespace bml
