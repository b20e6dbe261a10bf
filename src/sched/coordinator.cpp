#include "sched/coordinator.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace bml {

const char* to_string(CoordinatorMode mode) {
  switch (mode) {
    case CoordinatorMode::kSum: return "sum";
    case CoordinatorMode::kPartitioned: return "partitioned";
  }
  // Unreachable for valid enum values; a corrupted mode must not leak a
  // placeholder into CSV/report output.
  throw std::logic_error("to_string(CoordinatorMode): invalid mode");
}

CoordinatorMode parse_coordinator_mode(const std::string& name) {
  if (name == "sum") return CoordinatorMode::kSum;
  if (name == "partitioned") return CoordinatorMode::kPartitioned;
  throw std::runtime_error("coordinator must be sum or partitioned, got '" +
                           name + "'");
}

Coordinator::Coordinator(const Catalog& candidates, CoordinatorMode mode,
                         std::vector<double> shares, ReqRate budget,
                         std::vector<int> priorities)
    : candidates_(&candidates),
      mode_(mode),
      shares_(std::move(shares)),
      budget_(budget),
      priorities_(std::move(priorities)) {
  if (shares_.empty())
    throw std::invalid_argument("Coordinator: no workloads");
  for (double s : shares_) {
    if (!(s > 0.0))
      throw std::invalid_argument("Coordinator: shares must be > 0");
    share_total_ += s;
  }
  if (!priorities_.empty() && priorities_.size() != shares_.size())
    throw std::invalid_argument(
        "Coordinator: priority count does not match workload count");
  for (std::size_t i = 1; i < priorities_.size(); ++i)
    if (priorities_[i] != priorities_[0]) {
      prioritized_ = true;
      break;
    }
  if (prioritized_) {
    trim_order_.resize(priorities_.size());
    std::iota(trim_order_.begin(), trim_order_.end(), std::size_t{0});
    std::stable_sort(trim_order_.begin(), trim_order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       if (priorities_[a] != priorities_[b])
                         return priorities_[a] < priorities_[b];
                       return a > b;
                     });
  }
}

ReqRate Coordinator::capacity_cap(std::size_t i) const {
  if (i >= shares_.size())
    throw std::out_of_range("Coordinator: app index out of range");
  if (mode_ != CoordinatorMode::kPartitioned || budget_ <= 0.0 ||
      share_total_ <= 0.0)
    return std::numeric_limits<ReqRate>::infinity();
  return budget_ * (shares_[i] / share_total_);
}

void Coordinator::set_active(const std::vector<char>& active) {
  if (active.size() != shares_.size())
    throw std::invalid_argument(
        "Coordinator: active mask does not match workload count");
  share_total_ = 0.0;
  for (std::size_t i = 0; i < shares_.size(); ++i)
    if (active[i]) share_total_ += shares_[i];
}

Combination Coordinator::merge(const std::vector<Combination>& proposals,
                               const std::vector<Combination>& spares,
                               std::vector<Combination>& contributions) const {
  if (proposals.size() != shares_.size())
    throw std::invalid_argument(
        "Coordinator: proposal count does not match workload count");
  const std::size_t kinds = candidates_->size();
  contributions = proposals;
  if (prioritized_ && mode_ == CoordinatorMode::kPartitioned &&
      budget_ > 0.0) {
    // Priority-ordered total-budget trim: the budget binds on the *sum*
    // of the proposals, and machines are shed from the lowest-priority
    // apps first (descending index inside a class) — the same
    // largest-first / smallest-sufficient removal order as the per-share
    // clamp, but measured against the total. A high-priority app is
    // untouched until every lower class has been trimmed empty.
    ReqRate have = 0.0;
    for (Combination& c : contributions) {
      if (c.counts().size() > kinds)
        throw std::invalid_argument("Coordinator: proposal too wide");
      c.resize(kinds);
      have += capacity(*candidates_, c);
    }
    for (std::size_t victim : trim_order_) {
      if (have <= budget_) break;
      Combination& c = contributions[victim];
      while (have > budget_) {
        std::size_t pick = kinds;
        for (std::size_t a = kinds; a-- > 0;)
          if (c.count(a) > 0 &&
              have - (*candidates_)[a].max_perf() <= budget_) {
            pick = a;  // smallest arch whose removal satisfies the budget
            break;
          }
        if (pick == kinds)
          for (std::size_t a = 0; a < kinds; ++a)
            if (c.count(a) > 0) {
              pick = a;  // largest available arch sheds capacity fastest
              break;
            }
        if (pick == kinds) break;  // this victim has nothing left
        c.add(pick, -1);
        have -= (*candidates_)[pick].max_perf();
      }
    }
    return finish_merge(spares, contributions);
  }
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    Combination& c = contributions[i];
    if (c.counts().size() > kinds)
      throw std::invalid_argument("Coordinator: proposal too wide");
    c.resize(kinds);
    const ReqRate cap = capacity_cap(i);
    if (cap == std::numeric_limits<ReqRate>::infinity()) continue;
    // Trim the proposal to the app's capacity share, one machine at a
    // time. When a single removal can already land under the cap, drop
    // the *smallest* architecture that suffices (candidates are sorted by
    // descending max_perf, so scan from the back) — the old
    // largest-arch-first final step could overshoot by nearly one Big
    // machine when shedding a Little would have done. While no single
    // removal suffices, keep shedding largest-first (fastest to
    // converge). Deterministic either way.
    ReqRate have = capacity(*candidates_, c);
    while (have > cap) {
      std::size_t pick = kinds;
      for (std::size_t a = kinds; a-- > 0;)
        if (c.count(a) > 0 && have - (*candidates_)[a].max_perf() <= cap) {
          pick = a;  // smallest arch whose removal satisfies the cap
          break;
        }
      if (pick == kinds)
        for (std::size_t a = 0; a < kinds; ++a)
          if (c.count(a) > 0) {
            pick = a;  // largest available arch sheds capacity fastest
            break;
          }
      if (pick == kinds) break;  // nothing left to remove
      c.add(pick, -1);
      have -= (*candidates_)[pick].max_perf();
    }
  }
  return finish_merge(spares, contributions);
}

Combination Coordinator::finish_merge(
    const std::vector<Combination>& spares,
    std::vector<Combination>& contributions) const {
  const std::size_t kinds = candidates_->size();
  // Spare capacity lands after the clamp: the SLO loop's headroom rides on
  // top of the app's budget share (and the contribution carries it, so
  // reconfiguration energy for spare boots is attributed to the app whose
  // SLO provisioned them).
  if (!spares.empty()) {
    if (spares.size() != contributions.size())
      throw std::invalid_argument(
          "Coordinator: spare count does not match workload count");
    for (std::size_t i = 0; i < contributions.size(); ++i) {
      if (spares[i].counts().size() > kinds)
        throw std::invalid_argument("Coordinator: spare too wide");
      for (std::size_t a = 0; a < spares[i].counts().size(); ++a)
        contributions[i].add(a, spares[i].count(a));
    }
  }
  Combination merged;
  merged.resize(kinds);
  for (const Combination& c : contributions)
    for (std::size_t a = 0; a < kinds; ++a) merged.add(a, c.count(a));
  return merged;
}

}  // namespace bml
