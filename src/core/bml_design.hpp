// BmlDesign — the library façade running the paper's five steps end to end.
//
//   Step 1  profiles come in as a Catalog (measured offline, or produced by
//           the simulated profiling testbed in src/profiling/).
//   Step 2  dominance filter (candidate_filter).
//   Step 3  crossing points against homogeneous smaller combinations;
//           architectures whose profile never crosses are removed.
//   Step 4  crossing points against mixed smaller combinations.
//   Step 5  ideal combination solver + precomputed table.
//
// The resulting object answers "cheapest machine set for rate r" queries
// and exposes every intermediate artefact for reporting and testing.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "arch/catalog.hpp"
#include "core/candidate_filter.hpp"
#include "core/combination.hpp"
#include "core/combination_table.hpp"
#include "core/crossing.hpp"
#include "core/decision_thresholds.hpp"
#include "core/solver.hpp"
#include "util/units.hpp"

namespace bml {

/// Which final-step solver backs the design.
enum class SolverKind {
  kGreedyThreshold,  // the paper's algorithm
  kExactDp,          // exact DP oracle (theoretical lower-bound scenarios)
};

/// Build-time options for BmlDesign.
struct BmlDesignOptions {
  /// Largest rate the design must answer. 0 = default to 4x Big's max
  /// performance (the paper's over-provisioned data center size).
  ReqRate max_rate = 0.0;
  SolverKind solver = SolverKind::kGreedyThreshold;
  /// Per-architecture machine limits in *input catalog order*; empty means
  /// unlimited ("we consider that enough machines of each type are
  /// available"). Caps on removed architectures are ignored.
  std::vector<int> inventory_caps{};
  /// Materialise the dense rate table (recommended; O(max_rate) memory).
  bool build_table = true;
};

/// The assembled BML infrastructure design.
class BmlDesign {
 public:
  /// Runs Steps 2-5 on `input` (Step 1's profiles). Throws
  /// std::invalid_argument on an empty catalog and std::runtime_error when
  /// every architecture is filtered out.
  static BmlDesign build(const Catalog& input, BmlDesignOptions options = {});

  /// Candidates kept after Steps 2-4, sorted Big -> Little.
  [[nodiscard]] const Catalog& candidates() const { return candidates_; }

  /// Role of candidates()[i] (Big / Medium / Little).
  [[nodiscard]] const std::vector<Role>& roles() const { return roles_; }

  /// Architectures removed during filtering, with reasons.
  [[nodiscard]] const std::vector<RemovedArch>& removed() const {
    return removed_;
  }

  /// Step 3 thresholds of the kept candidates (pre-refinement; reported for
  /// the Fig. 2 comparison).
  [[nodiscard]] const std::vector<ReqRate>& step3_thresholds() const {
    return step3_;
  }

  /// Step 4 (final) minimum utilization thresholds, parallel to
  /// candidates().
  [[nodiscard]] const std::vector<ReqRate>& thresholds() const {
    return step4_;
  }

  /// Ideal combination serving `rate`.
  [[nodiscard]] Combination ideal_combination(ReqRate rate) const;

  /// Power of the ideal combination serving `rate`.
  [[nodiscard]] Watts ideal_power(ReqRate rate) const;

  [[nodiscard]] ReqRate max_rate() const { return max_rate_; }
  [[nodiscard]] const CombinationSolver& solver() const { return *solver_; }
  [[nodiscard]] const CombinationTable* table() const { return table_.get(); }

  /// Compiled decision cut-points of the table — null when the design was
  /// built without a table. Schedulers use it to answer "when does the
  /// ideal combination for this (clamped) rate change" without comparing
  /// Combinations; see core/decision_thresholds.hpp.
  [[nodiscard]] const DecisionThresholds* decision_thresholds() const {
    return decision_thresholds_.get();
  }

  /// Fig. 4 reference line built from this design's Little idle power and
  /// Big peak point.
  [[nodiscard]] BmlLinearReference linear_reference() const;

  /// Convenience accessors by role; throw std::logic_error when the design
  /// kept no candidate in that role.
  [[nodiscard]] const ArchitectureProfile& big() const;
  [[nodiscard]] const ArchitectureProfile& little() const;

 private:
  BmlDesign() = default;

  Catalog candidates_;
  std::vector<Role> roles_;
  std::vector<RemovedArch> removed_;
  std::vector<ReqRate> step3_;
  std::vector<ReqRate> step4_;
  ReqRate max_rate_ = 0.0;
  std::shared_ptr<CombinationSolver> solver_;
  std::shared_ptr<CombinationTable> table_;
  std::shared_ptr<DecisionThresholds> decision_thresholds_;
};

}  // namespace bml
