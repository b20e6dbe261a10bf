// Compiled traces: the run-length view the event-driven simulator walks.
//
// A LoadTrace answers point queries (`at`, `next_change`) in O(log
// #segments); that is fine for occasional lookups but the decision-granular
// simulator iterates *every* constant-value run of the trace inside each
// batched span. CompiledTrace adds a cursor API over the trace's own
// arrays: run_at seats a cursor at any second, and next_run steps it from
// one run to the next in O(1) — no binary searches, no virtual dispatch,
// no TimeSeries indirection in the hot loop.
//
// Layout: the trace is held once. LoadTrace owns the samples and one
// run-length index, the packed 32-bit *end* of every run
// (util/run_length.hpp); CompiledTrace is a non-owning view of both, so
// making one costs O(1) and copies nothing. The k-way merge in the
// multi-app fast path advances a frontier of per-app cursors by comparing
// run ends, 4 bytes per segment. A run's value is read as the sample at
// the queried second: LoadTrace stores -0.0 as +0.0, so every sample of a
// run carries the run's bits, and per-app energy and QoS integrals stay
// bit-identical to the per-second reference.
//
// The view is immutable, so one CompiledTrace can be shared across
// parallel_for workers; it must not outlive its LoadTrace (a view of a
// temporary does not compile).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "trace/trace.hpp"
#include "util/run_length.hpp"
#include "util/units.hpp"

namespace bml {

/// Non-owning run-length (RLE) view of a LoadTrace.
class CompiledTrace {
 public:
  /// The value at a time point together with the end of its constant run
  /// (`end` is the first strictly later time whose value differs;
  /// std::numeric_limits<TimePoint>::max() when the value holds forever).
  struct Run {
    ReqRate value;
    TimePoint end;
  };

  /// Walk state for run_at(); value-initialised cursors start at the
  /// front. One cursor per concurrent walker (cursors are cheap).
  struct Cursor {
    std::size_t seg = 0;
  };

  CompiledTrace() = default;
  /// Views `trace`, which must outlive the view. O(1).
  explicit CompiledTrace(const LoadTrace& trace)
      : samples_(trace.series().values()), ends_(trace.run_ends()) {}
  /// A view of a temporary would read freed memory.
  explicit CompiledTrace(const LoadTrace&&) = delete;

  /// Total trace length in seconds (== LoadTrace::size()).
  [[nodiscard]] TimePoint size() const {
    return static_cast<TimePoint>(samples_.size());
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t segment_count() const { return ends_.size(); }
  /// Segment i covers [segment_start(i), segment_start(i + 1)).
  [[nodiscard]] TimePoint segment_start(std::size_t seg) const {
    return seg == 0 ? 0 : static_cast<TimePoint>(ends_[seg - 1]);
  }

  /// Value and run end at `t`, amortised O(1) across a walk with
  /// non-decreasing `t` (the cursor re-seats itself by binary search when
  /// `t` moved backwards). Throws std::invalid_argument on negative `t`.
  /// Inline: this is the event-driven simulator's innermost call, executed
  /// once per trace segment.
  [[nodiscard]] Run run_at(Cursor& cursor, TimePoint t) const {
    if (t < 0) throw_negative_time();
    if (t >= size()) return Run{0.0, kNeverChanges};
    const std::uint32_t tt = static_cast<std::uint32_t>(t);
    if (cursor.seg >= ends_.size() || segment_start(cursor.seg) > t) {
      cursor.seg = run_index(ends_, tt);  // walked backwards (or stale)
    } else {
      while (cursor.seg + 1 < ends_.size() && ends_[cursor.seg] <= tt)
        ++cursor.seg;
    }
    return Run{samples_[tt], run_end(ends_, cursor.seg)};
  }

  /// The run that starts at `t`, the end of the cursor's current run — the
  /// same as run_at(cursor, t) for a walk that has just reached that end,
  /// without the re-seating checks. The cursor always steps one run on:
  /// past a non-zero tail onto the implicit zero run, index
  /// segment_count(), so a walk's run count is its cursor's index delta.
  /// The span walks (sim/span_walk.hpp) step with it.
  [[nodiscard]] Run next_run(Cursor& cursor, TimePoint t) const {
    ++cursor.seg;
    if (t >= size()) return Run{0.0, kNeverChanges};
    return Run{samples_[static_cast<std::size_t>(t)],
               run_end(ends_, cursor.seg)};
  }

  /// next_run for a walk that stays inside the trace (`t` < size()),
  /// without its trace-end and zero-tail checks: the run end is read as
  /// packed, so a zero tail ends at kRunNeverEnds = 2^32 - 1, past every
  /// second of a trace (LoadTrace holds at most 2^32 - 2). A walk that
  /// clamps run ends at its own end, at most size(), reads the same
  /// sub-runs as through next_run.
  [[nodiscard]] Run next_run_inside(Cursor& cursor, TimePoint t) const {
    ++cursor.seg;
    return Run{samples_[static_cast<std::size_t>(t)],
               static_cast<TimePoint>(ends_[cursor.seg])};
  }

 private:
  /// "The value holds forever" sentinel.
  static constexpr TimePoint kNeverChanges =
      std::numeric_limits<TimePoint>::max();

  [[noreturn]] static void throw_negative_time();

  std::span<const double> samples_;
  std::span<const std::uint32_t> ends_;
};

}  // namespace bml
