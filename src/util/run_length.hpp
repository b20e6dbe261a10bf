// Run-length lookup over piecewise-constant series.
//
// A series' constant runs are stored as their packed 32-bit ends: run i
// covers [ends[i - 1], ends[i]) (run 0 starts at 0), so run i + 1 starts
// where run i ends. The last entry packs the tail rule — beyond the
// series the value is an implicit 0, which counts as a change only when
// the last stored value is non-zero — as the series length, or
// kRunNeverEnds when the tail is 0 and thus holds forever. LoadTrace
// builds the ends once; its next_change and CompiledTrace's cursor walk
// both read them through these helpers, so the tail rule is stated once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "util/units.hpp"

namespace bml {

/// Packed "holds forever" run end (a zero tail).
inline constexpr std::uint32_t kRunNeverEnds =
    std::numeric_limits<std::uint32_t>::max();

/// Index of the run holding index `idx`; requires `idx` below the
/// series length (so the last entry, the length or kRunNeverEnds, is
/// always greater). O(log #runs).
[[nodiscard]] inline std::size_t run_index(
    std::span<const std::uint32_t> ends, std::size_t idx) {
  const auto it = std::upper_bound(ends.begin(), ends.end(),
                                   static_cast<std::uint32_t>(idx));
  return static_cast<std::size_t>(it - ends.begin());
}

/// End of run `run`: the first index whose value differs, or "never"
/// (std::numeric_limits<TimePoint>::max()) for a zero tail.
[[nodiscard]] inline TimePoint run_end(std::span<const std::uint32_t> ends,
                                       std::size_t run) {
  const std::uint32_t end = ends[run];
  return end == kRunNeverEnds ? std::numeric_limits<TimePoint>::max()
                              : static_cast<TimePoint>(end);
}

}  // namespace bml
