// Load traces: the application's request rate over time.
//
// A LoadTrace is a 1 Hz series of request rates (req/s), starting at t = 0.
// The evaluation slices traces per day (the paper reports per-day energy
// for days 6-92 of the 1998 World Cup trace).
//
// The trace is held once: the samples, their range-max index, and one
// run-length index — the packed 32-bit end of every constant run (see
// util/run_length.hpp), built at construction. The event-driven
// simulator walks the runs through a CompiledTrace, a view of these
// arrays (sim/compiled_trace.hpp); nothing else copies them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "util/time_series.hpp"
#include "util/units.hpp"

namespace bml {

/// 1 Hz request-rate series with day-level helpers.
class LoadTrace {
 public:
  /// The longest trace, in seconds (~136 years): the run ends are packed
  /// in 32 bits, and 2^32 - 1 stands for a run that never ends.
  static constexpr std::size_t kMaxSeconds = 4'294'967'294;

  LoadTrace() = default;
  /// Throws std::invalid_argument when any rate is negative or non-finite,
  /// or when the trace has more than kMaxSeconds samples. Stores -0.0 as
  /// +0.0, so every sample of a constant run carries the same bits.
  explicit LoadTrace(std::vector<double> rates);

  [[nodiscard]] std::size_t size() const { return series_.size(); }
  [[nodiscard]] bool empty() const { return series_.empty(); }
  [[nodiscard]] Seconds duration() const { return series_.duration(); }

  /// Rate at integer second `t`; 0 beyond the end (a finished trace serves
  /// no load).
  [[nodiscard]] ReqRate at(TimePoint t) const;

  /// Maximum rate over [begin, end) in seconds, clamped to the trace; the
  /// paper's look-ahead prediction primitive. Returns 0 for empty ranges.
  [[nodiscard]] ReqRate max_over(TimePoint begin, TimePoint end) const;

  /// First second after `t` whose rate differs from at(t) — the run-length
  /// primitive of the event-driven simulator. Returns size() when the rest
  /// of the trace holds the same value (the implicit 0 beyond the end
  /// counts as a change unless at(t) is itself 0). O(log #segments): the
  /// run ends are indexed at construction.
  [[nodiscard]] TimePoint next_change(TimePoint t) const;

  /// Largest rate (0 for an empty trace), read from the range-max index.
  [[nodiscard]] ReqRate peak() const;
  [[nodiscard]] ReqRate mean() const;

  /// Number of (possibly partial) days covered.
  [[nodiscard]] std::size_t days() const;

  /// Maximum rate of day `d` (0-based). Throws std::out_of_range.
  [[nodiscard]] ReqRate day_peak(std::size_t d) const;

  [[nodiscard]] const TimeSeries& series() const { return series_; }

  /// Packed end of every constant run, ascending: run i covers
  /// [run_ends()[i - 1], run_ends()[i]), and the last entry packs the tail
  /// rule (size(), or kRunNeverEnds for a zero tail). Empty for an empty
  /// trace. CompiledTrace walks it.
  [[nodiscard]] std::span<const std::uint32_t> run_ends() const {
    return run_ends_;
  }

  /// CSV round-trip: single `rate` column, one row per second.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] static LoadTrace from_csv(const std::string& text);
  void save(const std::filesystem::path& path) const;
  [[nodiscard]] static LoadTrace load(const std::filesystem::path& path);

 private:
  TimeSeries series_;
  std::vector<std::uint32_t> run_ends_;
};

/// Throws std::invalid_argument("<what> is <seconds> s, past the ... a
/// LoadTrace holds") when `seconds` of trace, whose whole part a generator
/// would allocate, exceed LoadTrace::kMaxSeconds (or are NaN). Generators
/// call it before they allocate a sample, so an over-long request is a
/// named error, not an allocation failure.
void check_trace_seconds(const std::string& what, double seconds);

}  // namespace bml
