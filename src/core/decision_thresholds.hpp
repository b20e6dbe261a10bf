// Decision thresholds: the load cut-points at which the scheduler's chosen
// combination changes.
//
// A CombinationTable maps every integer rate to its ideal combination;
// consecutive grid rates usually map to the *same* combination, so the
// table induces a partition of [0, max_rate] into decision buckets. This
// class compiles that partition once into a sorted flat array of cut
// rates, making "which decision does load L map to" a single upper_bound —
// and, crucially, making "when does the decision change" answerable by
// comparing bucket indices instead of materialising and comparing
// Combinations. The reactive scheduler's decision_stable_until walks the
// trace's run-length segments with index_for; the BML scheduler maps one
// bucket's grid range back to predictions and hands it to its prediction
// cursor. Both walks are exact: each ends at the first second whose
// bucket differs, and the event-driven simulator asks once per decision
// run. Either way a noisy stretch whose values stay inside one bucket
// contributes zero scheduler evaluations to the event-driven simulator.
//
// Bucket equality implies combination equality (a bucket is one maximal
// run of equal adjacent table entries); the converse may not hold when the
// same combination reappears for a disjoint rate range, which only makes
// stability bounds conservative — never wrong.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace bml {

class CombinationTable;

/// Immutable compiled partition of [0, max_rate] into decision buckets.
class DecisionThresholds {
 public:
  DecisionThresholds() = default;
  /// Compiles the cut-points of `table` (O(grid size), one pass).
  explicit DecisionThresholds(const CombinationTable& table);

  /// Bucket index of `rate`. Follows the table's lookup rule (rates round
  /// up to the integer grid). Negative rates throw std::invalid_argument;
  /// rates beyond max_rate clamp into the last bucket (callers clamp
  /// their predictions to the table range before deciding anyway).
  [[nodiscard]] std::size_t index_for(ReqRate rate) const {
    const double grid = grid_index(rate);
    return static_cast<std::size_t>(
        std::upper_bound(cuts_.begin(), cuts_.end(), grid) - cuts_.begin());
  }

  /// True when `rate` falls in bucket `index` — the stability-walk
  /// primitive (one ceil + one upper_bound, no Combination compares).
  [[nodiscard]] bool same_bucket(ReqRate rate, std::size_t index) const {
    return index_for(rate) == index;
  }

  /// Half-open grid interval [lo, hi) of bucket `index`: a rate is in the
  /// bucket iff lo <= ceil(min(rate, max_rate())) < hi, and lo and hi are
  /// whole grid points. index_for counts cuts <= grid, so
  /// index_for(rate) == index exactly when cuts_[index-1] <= grid and
  /// grid < cuts_[index]; end buckets extend to +/-infinity.
  [[nodiscard]] std::pair<double, double> bucket_grid_range(
      std::size_t index) const {
    const double lo = index == 0
                          ? -std::numeric_limits<double>::infinity()
                          : cuts_[index - 1];
    const double hi = index >= cuts_.size()
                          ? std::numeric_limits<double>::infinity()
                          : cuts_[index];
    return {lo, hi};
  }

  /// Number of buckets (== number of distinct adjacent-entry runs).
  [[nodiscard]] std::size_t bucket_count() const { return cuts_.size() + 1; }
  [[nodiscard]] ReqRate max_rate() const { return max_rate_; }

 private:
  [[nodiscard]] double grid_index(ReqRate rate) const;

  // Grid indices (stored as doubles so lookups skip an int conversion)
  // whose table entry differs from their predecessor's, ascending.
  std::vector<double> cuts_;
  ReqRate max_rate_ = 0.0;
};

}  // namespace bml
