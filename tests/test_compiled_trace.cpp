// CompiledTrace must be an exact run-length view of its LoadTrace:
// identical values (to the bit), identical next-change semantics
// (including the implicit-zero tail rule), and a cursor walk that agrees
// with point queries whether it moves forward second-by-second, steps
// from run to run, jumps across runs, or is re-seated backwards. Both
// answer as the samples read one second at a time do.
#include "sim/compiled_trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace bml {
namespace {

// A view of a temporary would dangle, so it must not compile.
static_assert(std::is_constructible_v<CompiledTrace, const LoadTrace&>);
static_assert(!std::is_constructible_v<CompiledTrace, LoadTrace&&>);
static_assert(!std::is_constructible_v<CompiledTrace, const LoadTrace&&>);

constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// First second after `t` whose value differs, read from the samples one
/// second at a time (the implicit 0 beyond the end counts).
TimePoint naive_next_change(std::span<const double> x, TimePoint t) {
  const auto n = static_cast<TimePoint>(x.size());
  if (t >= n) return kNever;
  const double v = x[static_cast<std::size_t>(t)];
  for (TimePoint s = t + 1; s < n; ++s)
    if (x[static_cast<std::size_t>(s)] != v) return s;
  return v == 0.0 ? kNever : n;
}

/// The view answers every query as the trace does, to the bit, and both
/// agree with the samples read one second at a time — walking forward
/// second by second and jumping (backwards too) through one cursor.
void expect_mirrors(const LoadTrace& trace) {
  const CompiledTrace compiled(trace);
  const std::span<const double> x = trace.series().values();
  ASSERT_EQ(compiled.size(), static_cast<TimePoint>(x.size()));
  std::size_t segments = x.empty() ? 0 : 1;
  for (std::size_t i = 1; i < x.size(); ++i)
    if (x[i] != x[i - 1]) ++segments;
  EXPECT_EQ(compiled.segment_count(), segments);

  CompiledTrace::Cursor cursor;
  for (TimePoint t = 0; t < compiled.size() + 3; ++t) {
    const TimePoint next = naive_next_change(x, t);
    EXPECT_FALSE(std::signbit(trace.at(t))) << "t=" << t;
    EXPECT_EQ(bits(compiled.value_at(t)), bits(trace.at(t))) << "t=" << t;
    EXPECT_EQ(trace.next_change(t), next) << "t=" << t;
    EXPECT_EQ(compiled.next_change(t), next) << "t=" << t;
    const CompiledTrace::Run run = compiled.run_at(cursor, t);
    EXPECT_EQ(bits(run.value), bits(trace.at(t))) << "t=" << t;
    EXPECT_EQ(run.end, next) << "t=" << t;
  }
  // Run by run: next_run at each run's end answers as run_at does.
  CompiledTrace::Cursor stepping;
  CompiledTrace::Run run = compiled.run_at(stepping, 0);
  while (run.end != kNever) {
    const TimePoint t = run.end;
    run = compiled.next_run(stepping, t);
    EXPECT_EQ(bits(run.value), bits(trace.at(t))) << "t=" << t;
    EXPECT_EQ(run.end, naive_next_change(x, t)) << "t=" << t;
  }
  Rng rng(x.size());
  CompiledTrace::Cursor jumping;
  for (int q = 0; q < 20; ++q) {
    const TimePoint t = rng.uniform_int(0, compiled.size() + 1);
    const CompiledTrace::Run run = compiled.run_at(jumping, t);
    EXPECT_EQ(bits(run.value), bits(trace.at(t))) << "t=" << t;
    EXPECT_EQ(run.end, naive_next_change(x, t)) << "t=" << t;
  }
}

TEST(CompiledTrace, MirrorsStepTrace) {
  expect_mirrors(step_trace({{100.0, 5.0}, {250.0, 3.0}, {100.0, 4.0}}));
}

TEST(CompiledTrace, MirrorsNoisyTrace) {
  DiurnalOptions options;
  options.peak = 900.0;
  options.noise = 0.3;  // changes (nearly) every second
  options.seed = 5;
  expect_mirrors(diurnal_trace(options, 1));
}

TEST(CompiledTrace, MirrorsConstantTrace) {
  expect_mirrors(constant_trace(42.0, 10.0));
}

TEST(CompiledTrace, ZeroTailNeverChanges) {
  const LoadTrace trace = step_trace({{10.0, 4.0}, {0.0, 4.0}});
  const CompiledTrace compiled(trace);
  // Inside the zero tail the implicit 0 beyond the end is not a change.
  EXPECT_EQ(compiled.next_change(5), kNever);
  CompiledTrace::Cursor cursor;
  EXPECT_EQ(compiled.run_at(cursor, 5).end, kNever);
}

TEST(CompiledTrace, NonZeroTailChangesAtEnd) {
  const LoadTrace trace = constant_trace(7.0, 6.0);
  const CompiledTrace compiled(trace);
  EXPECT_EQ(compiled.next_change(2), static_cast<TimePoint>(trace.size()));
}

TEST(CompiledTrace, EmptyTrace) {
  const LoadTrace empty;
  for (const CompiledTrace& compiled :
       {CompiledTrace(empty), CompiledTrace()}) {
    EXPECT_TRUE(compiled.empty());
    EXPECT_EQ(compiled.segment_count(), 0u);
    EXPECT_EQ(compiled.value_at(0), 0.0);
    EXPECT_EQ(compiled.next_change(0), kNever);
    CompiledTrace::Cursor cursor;
    EXPECT_EQ(compiled.run_at(cursor, 0).value, 0.0);
    EXPECT_EQ(compiled.run_at(cursor, 0).end, kNever);
  }
}

TEST(CompiledTrace, CursorJumpsAndBackwardsReseat) {
  const LoadTrace trace = step_trace(
      {{10.0, 100.0}, {20.0, 100.0}, {30.0, 100.0}, {40.0, 100.0}});
  const CompiledTrace compiled(trace);
  CompiledTrace::Cursor cursor;
  EXPECT_EQ(compiled.run_at(cursor, 350).value, 40.0);  // long forward jump
  EXPECT_EQ(compiled.run_at(cursor, 50).value, 10.0);   // backwards re-seat
  EXPECT_EQ(compiled.run_at(cursor, 150).value, 20.0);
  EXPECT_EQ(compiled.run_at(cursor, 150).end, 200);
}

TEST(CompiledTrace, SegmentCountMatchesChangePoints) {
  const LoadTrace trace = step_trace({{5.0, 2.0}, {6.0, 2.0}, {5.0, 2.0}});
  const CompiledTrace compiled(trace);
  EXPECT_EQ(compiled.segment_count(), 3u);
  EXPECT_EQ(compiled.segment_count(), trace.run_ends().size());
  EXPECT_EQ(compiled.segment_start(0), 0);
  EXPECT_EQ(compiled.segment_start(1), 2);
  EXPECT_EQ(compiled.segment_start(2), 4);
  // Packed tail rule: the step trace ends on a non-zero value, so the last
  // run ends at size(); a zero tail packs the never-changes sentinel.
  EXPECT_EQ(trace.run_ends().back(), static_cast<std::uint32_t>(trace.size()));
  const LoadTrace zero_tail = step_trace({{5.0, 2.0}, {0.0, 2.0}});
  EXPECT_EQ(CompiledTrace(zero_tail).segment_count(), 2u);
  EXPECT_EQ(zero_tail.run_ends().back(), kRunNeverEnds);
}

TEST(CompiledTrace, NegativeTimeThrows) {
  const LoadTrace trace = constant_trace(1.0, 5.0);
  const CompiledTrace compiled(trace);
  CompiledTrace::Cursor cursor;
  EXPECT_THROW((void)compiled.value_at(-1), std::invalid_argument);
  EXPECT_THROW((void)compiled.next_change(-1), std::invalid_argument);
  EXPECT_THROW((void)compiled.run_at(cursor, -1), std::invalid_argument);
}

/// Builds a trace from `x` and checks it keeps the rates, then mirrors.
void expect_matches_samples(const std::vector<double>& x) {
  SCOPED_TRACE(std::to_string(x.size()) + " samples");
  const LoadTrace trace(x);
  for (std::size_t t = 0; t < x.size(); ++t)
    EXPECT_EQ(trace.at(static_cast<TimePoint>(t)), x[t]) << "t=" << t;
  expect_mirrors(trace);
}

TEST(CompiledTrace, RandomPiecewiseTracesAgreeWithPointQueries) {
  // Empty, one sample (zero, -0.0 and non-zero), a -0.0 inside a zero
  // run and a -0.0 tail: the view reads the sample at the queried second,
  // which must carry the run's +0.0 bits.
  for (const std::vector<double>& x : std::vector<std::vector<double>>{
           {}, {3.0}, {0.0}, {-0.0}, {5.0, 0.0, -0.0, 0.0, 7.0, -0.0}})
    expect_matches_samples(x);
  // Values drawn from a small set, so adjacent runs often repeat a value
  // (and merge), zero runs hold -0.0 samples, and tails are zero or not.
  const double kValues[] = {0.0, -0.0, 1.5, 3.0, 1e6};
  Rng rng(2016);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x;
    const std::int64_t runs = rng.uniform_int(0, 12);
    for (std::int64_t r = 0; r < runs; ++r) {
      const double v = kValues[rng.uniform_int(0, 4)];
      const std::int64_t len = rng.uniform_int(1, trial % 3 == 0 ? 1 : 9);
      for (std::int64_t i = 0; i < len; ++i)
        x.push_back(v == 0.0 && rng.chance(0.5) ? -v : v);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_samples(x);
  }
}

}  // namespace
}  // namespace bml
