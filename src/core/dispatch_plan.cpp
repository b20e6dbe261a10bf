#include "core/dispatch_plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace bml {

DispatchPlan::DispatchPlan(const Catalog& candidates) {
  if (candidates.empty())
    throw std::invalid_argument("DispatchPlan: empty candidate catalog");
  const std::size_t n = candidates.size();
  max_perf_.reserve(n);
  idle_.reserve(n);
  max_power_.reserve(n);
  slope_.reserve(n);
  linear_.reserve(n);
  models_.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    const ArchitectureProfile& p = candidates[i];
    max_perf_.push_back(p.max_perf());
    idle_.push_back(p.idle_power());
    max_power_.push_back(p.max_power());
    slope_.push_back(p.slope());
    const bool is_linear =
        dynamic_cast<const LinearPowerModel*>(&p.model()) != nullptr;
    linear_.push_back(is_linear ? 1 : 0);
    if (!is_linear) models_[i] = p.model().clone();
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  // Must match dispatch()'s ordering exactly: slope ascending, catalog
  // index as the tie-break.
  std::sort(order_.begin(), order_.end(), [this](std::size_t a,
                                                 std::size_t b) {
    if (slope_[a] != slope_[b]) return slope_[a] < slope_[b];
    return a < b;
  });
}

ReqRate DispatchPlan::capacity_of(std::span<const int> counts) const {
  if (counts.size() > arch_kinds())
    throw std::invalid_argument(
        "DispatchPlan: more architecture kinds than candidates");
  ReqRate total = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i)
    total += counts[i] * max_perf_[i];
  return total;
}

Watts DispatchPlan::evaluate(std::span<const int> counts, ReqRate rate,
                             ReqRate* remaining_out,
                             std::vector<ReqRate>* loads) const {
  if (counts.size() > arch_kinds())
    throw std::invalid_argument(
        "DispatchPlan: more architecture kinds than candidates");
  if (rate < 0.0)
    throw std::invalid_argument("DispatchPlan: rate must be >= 0");

  ReqRate remaining = rate;
  Watts power = 0.0;
  for (std::size_t arch : order_) {
    if (arch >= counts.size()) continue;
    const int n = counts[arch];
    if (n == 0) continue;
    const ReqRate perf = max_perf_[arch];
    const ReqRate arch_capacity = n * perf;
    const ReqRate assigned = std::min(remaining, arch_capacity);
    if (loads) (*loads)[arch] = assigned;
    remaining -= assigned;

    const int full = static_cast<int>(assigned / perf);
    const ReqRate partial = assigned - full * perf;
    power += full * max_power_[arch];
    const int idle_machines = n - full - (partial > 0.0 ? 1 : 0);
    if (partial > 0.0) power += machine_power_at(arch, partial);
    power += idle_machines * idle_[arch];
  }
  if (remaining_out) *remaining_out = remaining;
  return power;
}

Watts DispatchPlan::power_at(std::span<const int> counts,
                             ReqRate rate) const {
  return evaluate(counts, rate, nullptr, nullptr);
}

void DispatchPlan::compile_fleet(std::span<const int> counts,
                                 FleetPowerCurve& out) const {
  if (counts.size() > arch_kinds())
    throw std::invalid_argument(
        "DispatchPlan: more architecture kinds than candidates");
  out.active_.clear();
  for (std::size_t arch : order_) {
    if (arch >= counts.size()) continue;
    const int n = counts[arch];
    if (n == 0) continue;
    FleetPowerCurve::Active a;
    a.perf = max_perf_[arch];
    a.capacity = n * a.perf;
    a.max_power = max_power_[arch];
    a.idle = idle_[arch];
    a.slope = slope_[arch];
    a.model = models_[arch].get();
    a.count = n;
    a.linear = linear_[arch];
    out.active_.push_back(a);
  }
  // Affine piece table: walk machines in dispatch order; the piece where
  // machine j of arch a is the partial one has
  //   power(rate) = pre_full + j*max_power                 (full machines)
  //               + idle + slope*(rate - prefix_cap - j*perf)  (partial)
  //               + (count-j-1)*idle + post_idle           (idle machines)
  // which is affine in rate. Stops at the first piecewise-model arch
  // (its curve is not affine) and at kMaxPieces; rates past the table
  // fall back to the general loop above.
  out.pieces_.clear();
  out.bounds_.clear();
  Watts post_idle = 0.0;
  for (const FleetPowerCurve::Active& a : out.active_)
    post_idle += a.count * a.idle;
  ReqRate prefix_cap = 0.0;
  Watts pre_full = 0.0;
  for (const FleetPowerCurve::Active& a : out.active_) {
    post_idle -= a.count * a.idle;
    if (!a.linear) break;
    bool capped = false;
    for (int j = 0; j < a.count; ++j) {
      if (out.pieces_.size() >= FleetPowerCurve::kMaxPieces) {
        capped = true;
        break;
      }
      FleetPowerCurve::Piece piece;
      piece.slope = a.slope;
      piece.base = pre_full + j * a.max_power + a.idle -
                   a.slope * (prefix_cap + j * a.perf) +
                   (a.count - j - 1) * a.idle + post_idle;
      out.pieces_.push_back(piece);
      out.bounds_.push_back(prefix_cap + (j + 1) * a.perf);
    }
    if (capped) break;
    prefix_cap += a.capacity;
    pre_full += a.count * a.max_power;
  }
  out.table_end_ = out.bounds_.empty() ? 0.0 : out.bounds_.back();
  const std::size_t padded = std::bit_ceil(out.bounds_.size());
  out.bounds_.resize(padded, std::numeric_limits<ReqRate>::infinity());
  out.depth_ = static_cast<unsigned>(std::countr_zero(padded));
}

Watts FleetPowerCurve::general_power(ReqRate rate) const {
  ReqRate remaining = rate;
  Watts power = 0.0;
  for (const Active& a : active_) {
    if (remaining > 0.0) {
      const ReqRate assigned = remaining < a.capacity ? remaining : a.capacity;
      remaining -= assigned;
      const int full = static_cast<int>(assigned / a.perf);
      const ReqRate partial = assigned - full * a.perf;
      power += full * a.max_power;
      const int idle_machines = a.count - full - (partial > 0.0 ? 1 : 0);
      if (partial > 0.0) {
        if (a.linear) {
          const ReqRate r = partial > a.perf ? a.perf : partial;
          power += a.idle + a.slope * r;
        } else {
          power += a.model->power_at(partial);
        }
      }
      power += idle_machines * a.idle;
    } else {
      // Exactly what the reference loop adds once remaining hit 0.0.
      power += a.count * a.idle;
    }
  }
  return power;
}

void DispatchPlan::dispatch_into(std::span<const int> counts, ReqRate rate,
                                 DispatchResult& out) const {
  out.load_per_arch.assign(counts.size(), 0.0);
  ReqRate remaining = 0.0;
  out.power = evaluate(counts, rate, &remaining, &out.load_per_arch);
  out.served = rate - remaining;
  out.feasible = remaining <= 1e-9;
}

}  // namespace bml
