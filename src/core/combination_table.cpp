#include "core/combination_table.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/dispatch_plan.hpp"

namespace bml {

namespace {

std::atomic<std::uint64_t> g_tables_built{0};

}  // namespace

std::uint64_t CombinationTable::built_count() {
  return g_tables_built.load(std::memory_order_relaxed);
}

CombinationTable::CombinationTable(const CombinationSolver& solver,
                                   ReqRate max_rate)
    : candidates_(solver.candidates()), plan_(candidates_) {
  g_tables_built.fetch_add(1, std::memory_order_relaxed);
  if (max_rate < 0.0)
    throw std::invalid_argument("CombinationTable: max_rate must be >= 0");
  const auto n = static_cast<std::size_t>(std::ceil(max_rate)) + 1;
  entries_.reserve(n);
  powers_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto rate = static_cast<ReqRate>(r);
    entries_.push_back(solver.solve(rate));
    powers_.push_back(plan_.power_at(entries_.back().counts(), rate));
  }
}

std::size_t CombinationTable::index_for(ReqRate rate) const {
  if (rate < 0.0)
    throw std::invalid_argument("CombinationTable: rate must be >= 0");
  const auto idx = static_cast<std::size_t>(std::ceil(rate));
  if (idx >= entries_.size())
    throw std::out_of_range("CombinationTable: rate beyond table");
  return idx;
}

const Combination& CombinationTable::combination(ReqRate rate) const {
  return entries_[index_for(rate)];
}

Watts CombinationTable::power(ReqRate rate) const {
  const std::size_t idx = index_for(rate);
  // The cache holds power at the grid rate; a fractional query still means
  // "the grid combination serving exactly `rate`", so evaluate it.
  if (static_cast<ReqRate>(idx) == rate) return powers_[idx];
  return plan_.power_at(entries_[idx].counts(), rate);
}

BmlLinearReference::BmlLinearReference(Watts little_idle, Watts big_peak,
                                       ReqRate big_max_perf)
    : idle_(little_idle), peak_(big_peak), max_perf_(big_max_perf) {
  if (max_perf_ <= 0.0)
    throw std::invalid_argument("BmlLinearReference: max perf must be > 0");
  if (idle_ < 0.0 || peak_ < idle_)
    throw std::invalid_argument(
        "BmlLinearReference: need 0 <= idle <= peak power");
}

Watts BmlLinearReference::power(ReqRate rate) const {
  const ReqRate r = std::clamp(rate, 0.0, max_perf_);
  return idle_ + (peak_ - idle_) * (r / max_perf_);
}

}  // namespace bml
