// Run-length lookup over piecewise-constant series.
//
// The load trace answers "when does the rate next change?" (the reactive
// scheduler's stability walk) from its indexed change points. The lookup
// lives here so the subtle tail rule — beyond the series the value is an
// implicit 0, which counts as a change only when the last stored value is
// non-zero — is stated apart from the trace's storage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// First index after `idx` at which a length-`size` series changes value.
/// `change_points` holds, ascending, the indices whose value differs from
/// their predecessor; `last_value` is the series' final stored value.
/// Returns `size` when the series is constant from `idx` to its end but
/// the implicit 0 afterwards differs, and "never"
/// (std::numeric_limits<TimePoint>::max()) when it does not.
[[nodiscard]] inline TimePoint next_change_point(
    const std::vector<std::size_t>& change_points, std::size_t idx,
    std::size_t size, double last_value) {
  const auto it =
      std::upper_bound(change_points.begin(), change_points.end(), idx);
  if (it != change_points.end()) return static_cast<TimePoint>(*it);
  if (last_value == 0.0) return std::numeric_limits<TimePoint>::max();
  return static_cast<TimePoint>(size);
}

}  // namespace bml
