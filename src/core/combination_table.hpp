// Precomputed ideal-combination table and the BML-linear reference curve.
//
// The online scheduler queries "ideal combination for rate r" once per
// second; CombinationTable materialises the solver's answers on the integer
// rate grid so that queries are O(1) and identical rates always map to
// identical combinations (important for reconfiguration stability).
//
// BmlLinearReference is the paper's Fig. 4 yardstick: a hypothetical
// machine whose idle power equals Little's and whose peak power and
// performance equal Big's — "an achievable goal, and how our solution
// approaches it".
#pragma once

#include <cstdint>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "core/dispatch_plan.hpp"
#include "core/solver.hpp"
#include "util/units.hpp"

namespace bml {

/// Dense rate -> ideal combination map on the integer grid [0, max_rate].
class CombinationTable {
 public:
  /// Materialises `solver` answers for every integer rate up to `max_rate`.
  /// Throws std::invalid_argument when max_rate < 0.
  CombinationTable(const CombinationSolver& solver, ReqRate max_rate);

  /// Ideal combination for `rate` (rounded up to the grid so the returned
  /// combination always has enough capacity). Throws std::out_of_range
  /// beyond max_rate.
  [[nodiscard]] const Combination& combination(ReqRate rate) const;

  /// Power of combination(rate) serving exactly `rate`. On-grid (integer)
  /// queries return the precomputed cache entry; off-grid rates evaluate
  /// the grid combination at the actual rate through the compiled plan.
  [[nodiscard]] Watts power(ReqRate rate) const;

  [[nodiscard]] ReqRate max_rate() const {
    return static_cast<ReqRate>(entries_.size() - 1);
  }
  [[nodiscard]] const Catalog& candidates() const { return candidates_; }

  /// Dense-grid accessors for compilers of derived structures
  /// (core/decision_thresholds.hpp): entry `i` answers rate i exactly.
  [[nodiscard]] std::size_t grid_size() const { return entries_.size(); }
  [[nodiscard]] const Combination& grid_entry(std::size_t i) const {
    return entries_[i];
  }

  /// Process-wide count of tables ever constructed — a probe for tests
  /// asserting build caching (a sweep over non-catalog axes must build its
  /// table exactly once; see scenario/sweep.hpp).
  [[nodiscard]] static std::uint64_t built_count();

 private:
  [[nodiscard]] std::size_t index_for(ReqRate rate) const;

  Catalog candidates_;
  DispatchPlan plan_;
  std::vector<Combination> entries_;
  std::vector<Watts> powers_;
};

/// Fig. 4's "BML linear" reference line.
class BmlLinearReference {
 public:
  /// `little_idle` is the Little architecture's idle power; `big_peak` and
  /// `big_max_perf` are the Big architecture's peak power and performance.
  BmlLinearReference(Watts little_idle, Watts big_peak, ReqRate big_max_perf);

  [[nodiscard]] Watts power(ReqRate rate) const;
  [[nodiscard]] ReqRate max_perf() const { return max_perf_; }

 private:
  Watts idle_;
  Watts peak_;
  ReqRate max_perf_;
};

}  // namespace bml
