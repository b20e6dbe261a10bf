// The reconfiguration coordinator: merges per-workload ideal combinations
// into one cluster-wide decision.
//
// Each application's scheduler keeps proposing the combination that would
// serve *its* predicted load in isolation; the cluster can only converge to
// one fleet. Two merge policies:
//
//   * kSum (baseline) — the cluster target is the element-wise sum of the
//     per-app proposals. Every app gets exactly the machines its scheduler
//     asked for; total capacity grows with colocation. With one workload
//     this is the identity, which is what pins the single-app regression.
//
//   * kPartitioned — the pool is capacity-limited: each app's proposal is
//     clamped so its capacity does not exceed its share of the budget
//     (share weights normalised across apps), then summed. Clamping
//     removes one machine at a time: while no single removal can land
//     under the cap, from the largest architecture first (catalog order:
//     candidates are sorted by descending max_perf — sheds capacity
//     fastest); for the final step, from the smallest architecture whose
//     removal satisfies the cap (so the trim never overshoots by a large
//     machine when dropping a small one suffices). Deterministic.
//
// Priority classes (Workload::priority) change *who* pays when the
// partitioned budget binds: with any two apps' priorities differing, the
// per-share clamp is replaced by a total-budget trim that sheds machines
// from the lowest-priority apps first (ties broken by descending app
// index — later-declared apps yield first), using the same
// largest-first / smallest-sufficient removal order within each victim.
// High-priority apps keep their full proposals until every lower class
// has been trimmed to nothing. All-equal priorities (the default) keep
// the per-share clamp bit-for-bit, so priority-free specs are unchanged.
//
// merge() is a pure function of the proposals, so the event-driven
// simulator can intersect per-workload decision-stability spans: while no
// app's proposal changes, the merged decision cannot change either.
#pragma once

#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "util/units.hpp"

namespace bml {

enum class CoordinatorMode {
  kSum,          // sum-of-combinations baseline
  kPartitioned,  // clamp each app to its capacity share of the budget
};

[[nodiscard]] const char* to_string(CoordinatorMode mode);

/// Parses a coordinator mode name (`sum` | `partitioned`) — the single
/// validation point for spec layers; throws std::runtime_error naming the
/// accepted values otherwise.
[[nodiscard]] CoordinatorMode parse_coordinator_mode(const std::string& name);

class Coordinator {
 public:
  /// `shares` are the per-app weights (one per workload, all > 0; only
  /// consulted in partitioned mode). `budget` is the total cluster
  /// capacity (req/s) partitioned among the apps; <= 0 disables the clamp
  /// (partitioned degenerates to sum). `priorities` are the per-app
  /// priority classes (same length as `shares`; empty = all zero).
  /// Priorities only matter in partitioned mode with a budget, and only
  /// when at least two differ — see the header comment.
  Coordinator(const Catalog& candidates, CoordinatorMode mode,
              std::vector<double> shares, ReqRate budget,
              std::vector<int> priorities = {});

  /// Merges one proposal per app (width <= candidate count; resized
  /// internally) into the cluster-wide target. `contributions` receives
  /// each app's post-clamp combination — the slice of the merged fleet
  /// attributed to that app (reconfiguration-energy attribution keys off
  /// these). `spares` is the SLO spare capacity: empty (no SLO loop), or
  /// one possibly empty combination per proposal, added to each app's
  /// contribution *after* the partitioned clamp — spares are emergency
  /// headroom the availability feedback loop provisions, deliberately
  /// exempt from the steady-state capacity budget.
  [[nodiscard]] Combination merge(const std::vector<Combination>& proposals,
                                  const std::vector<Combination>& spares,
                                  std::vector<Combination>& contributions) const;

  /// Capacity cap of app `i` under the partitioned policy;
  /// +infinity in sum mode or with no budget.
  [[nodiscard]] ReqRate capacity_cap(std::size_t i) const;

  /// Re-partitions the capacity shares over the active tenant subset
  /// (tenant lifecycle, Workload::arrive / depart): the partitioned cap
  /// denominators sum the *active* apps' share weights only, so a
  /// departure hands its slice back to the survivors and an arrival
  /// claims one. `active` must be one flag per workload; an all-active
  /// mask restores the constructor's partition exactly. With no active
  /// app every cap is +infinity (there is nothing to partition between).
  void set_active(const std::vector<char>& active);

  [[nodiscard]] CoordinatorMode mode() const { return mode_; }
  [[nodiscard]] std::size_t apps() const { return shares_.size(); }
  /// True when the priority-ordered total-budget trim is in effect (at
  /// least two apps' priorities differ).
  [[nodiscard]] bool prioritized() const { return prioritized_; }

 private:
  /// Shared merge tail: folds the SLO spares into the (post-trim)
  /// contributions and sums them into the cluster-wide target.
  [[nodiscard]] Combination finish_merge(
      const std::vector<Combination>& spares,
      std::vector<Combination>& contributions) const;

  const Catalog* candidates_;
  CoordinatorMode mode_;
  std::vector<double> shares_;
  double share_total_ = 0.0;
  ReqRate budget_;
  std::vector<int> priorities_;
  bool prioritized_ = false;
  /// App indices in trim order (ascending priority, descending index).
  std::vector<std::size_t> trim_order_;
};

}  // namespace bml
