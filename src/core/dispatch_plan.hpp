// Compiled dispatch plans: the allocation-free fast path for power queries.
//
// `dispatch()` (core/combination.hpp) re-derives the slope-sorted
// architecture order and heap-allocates two vectors on every call. That is
// fine for one-off queries, but the simulator, the DP solvers and the
// combination-table builder evaluate power millions of times per trace
// replay. A DispatchPlan compiles, once per catalog, everything dispatch
// needs into flat arrays:
//   * the slope-ascending dispatch order (ties broken by catalog index),
//   * per-architecture max_perf / idle_power / max_power,
//   * the linear-model slope, with a cloned PowerModel fallback for
//     piecewise profiles (at most one partially loaded machine per
//     architecture ever needs the curve).
//
// `power_at` and `dispatch_into` then evaluate a combination without
// allocating, producing bit-identical results to `dispatch()` (asserted by
// tests/test_dispatch_plan.cpp). The plan is immutable and self-contained
// (profiles are copied, not referenced), so one plan can be shared across
// parallel_for workers; per-worker mutable state is confined to the
// caller-owned DispatchResult scratch.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "power/power_model.hpp"
#include "util/units.hpp"

namespace bml {

/// A power curve compiled for one fixed fleet (machine counts): the
/// event-driven simulator evaluates compute power once per trace segment
/// while the fleet is constant. DispatchPlan::compile_fleet bakes two
/// forms out of the fleet:
///   * an affine piece table with one breakpoint per machine (dispatch
///     fills machine by machine, so power is piecewise linear in the
///     load): power(rate) = base_k + slope_k * rate inside piece k, where
///     k is the number of piece bounds <= rate. A branch-free binary
///     search over the bounds, padded to a power of two with +inf, finds
///     k in depth() = log2(#padded bounds) steps — no division, no
///     data-dependent branch. The table stops at the first non-linear
///     (piecewise PowerModel) architecture and is capped at kMaxPieces, so
///     depth() is at most kMaxDepth; and
///   * the active (non-zero-count) architectures in dispatch order, the
///     general loop for rate 0 and for rates at or past the table's end.
/// The search is one function template, lookup<kDepth>, unrolled for a
/// fixed depth: a span walk picks the instantiation once per span
/// (with_depth) and calls it per run, and power_at dispatches to the same
/// code per call.
/// The curve holds no lookup state: power_at(rate) is a pure function of
/// the compiled fleet and the rate, whatever was queried before.
/// Results match DispatchPlan::power_at for the same counts within
/// floating-point reassociation distance — a few ulp, from the pieces'
/// refactored sums — everywhere, including exactly at a piece bound,
/// where the piece above it answers (asserted at 1e-12 relative by
/// tests/test_dispatch_plan.cpp). The general loop performs the same
/// operations in the same order as the plan, merely skipping exact
/// no-ops (zero-count architectures, += 0.0 products). That sits far
/// inside the simulator's 1e-9 equivalence contract, and no integer
/// counter depends on power values.
/// The curve borrows the plan's piecewise PowerModels — it must not
/// outlive the DispatchPlan that compiled it.
class FleetPowerCurve {
 public:
  FleetPowerCurve() = default;

  /// Most pieces the affine table holds, and the search steps they take.
  static constexpr std::size_t kMaxPieces = 64;
  static constexpr unsigned kMaxDepth = 6;
  static_assert(std::size_t{1} << kMaxDepth == kMaxPieces);

  /// Search steps of a lookup: log2 of the padded bound count (0 for a
  /// table of at most one piece, kMaxDepth for 33-64 pieces).
  [[nodiscard]] unsigned depth() const { return depth_; }

  /// The last piece's bound (0 with no pieces): rates at or above it, and
  /// rate 0, take the general loop.
  [[nodiscard]] ReqRate table_end() const { return table_end_; }

  /// Affine piece k covers rate in [bound k-1, bound k) (piece 0 starts
  /// just above 0): j machines of the piece's architecture fully
  /// loaded, one partial, everything later idle.
  struct Piece {
    Watts base = 0.0;
    double slope = 0.0;
  };
  /// The compiled piece table, for inspection.
  [[nodiscard]] std::span<const Piece> pieces() const { return pieces_; }

  /// power_at for a curve of depth kDepth (== depth()): the piece search
  /// unrolled into kDepth selects. Adds one to `fallbacks` when the
  /// general loop answers.
  template <unsigned kDepth>
  [[nodiscard]] Watts lookup(ReqRate rate, std::uint64_t& fallbacks) const {
    assert(kDepth == depth_);
    if (rate > 0.0 && rate < table_end_) {
      // k = the number of bounds <= rate. The answer lies in
      // [0, 2^kDepth), as the last real bound (table_end_) exceeds rate;
      // each step halves that range with a select, not a branch.
      const ReqRate* bounds = bounds_.data();
      std::size_t k = 0;
#pragma GCC unroll 8
      for (std::size_t half = std::size_t{1} << kDepth >> 1; half > 0;
           half /= 2)
        k += bounds[k + half - 1] <= rate ? half : 0;
      return pieces_[k].base + pieces_[k].slope * rate;
    }
    ++fallbacks;
    return general_power(rate);
  }

  /// Returns f.template operator()<kDepth>() for this curve's depth: the
  /// one switch a span walk pays per span to call lookup<kDepth>.
  template <class F>
  decltype(auto) with_depth(F&& f) const {
    switch (depth_) {
      case 0: return f.template operator()<0>();
      case 1: return f.template operator()<1>();
      case 2: return f.template operator()<2>();
      case 3: return f.template operator()<3>();
      case 4: return f.template operator()<4>();
      case 5: return f.template operator()<5>();
      default: return f.template operator()<kMaxDepth>();
    }
  }

  /// Power of the compiled fleet serving `rate` (negative rates are the
  /// caller's bug; the simulator's loads are validated non-negative).
  [[nodiscard]] Watts power_at(ReqRate rate) const {
    std::uint64_t fallbacks = 0;
    return with_depth([&]<unsigned kDepth>() {
      return lookup<kDepth>(rate, fallbacks);
    });
  }

 private:
  friend class DispatchPlan;

  /// The general loop: every active architecture in dispatch order.
  [[nodiscard]] Watts general_power(ReqRate rate) const;

  struct Active {
    ReqRate perf = 0.0;
    ReqRate capacity = 0.0;  // count * perf
    Watts max_power = 0.0;
    Watts idle = 0.0;
    double slope = 0.0;  // valid when linear
    const PowerModel* model = nullptr;  // piecewise only
    int count = 0;
    char linear = 0;
  };
  std::vector<Active> active_;

  std::vector<Piece> pieces_;
  /// Exclusive upper bound of each piece, ascending, padded with +inf to
  /// 2^depth_ entries for the search.
  std::vector<ReqRate> bounds_;
  unsigned depth_ = 0;
  ReqRate table_end_ = 0.0;
};

/// Immutable compiled form of a candidate catalog for power evaluation.
class DispatchPlan {
 public:
  DispatchPlan() = default;
  explicit DispatchPlan(const Catalog& candidates);

  [[nodiscard]] std::size_t arch_kinds() const { return max_perf_.size(); }

  /// Power of a combination (`counts[i]` machines of architecture i, in
  /// catalog order; shorter spans mean zero for the missing entries)
  /// serving `rate`. No allocations. Throws std::invalid_argument when the
  /// span is wider than the catalog or rate is negative.
  [[nodiscard]] Watts power_at(std::span<const int> counts,
                               ReqRate rate) const;

  /// Full dispatch into a caller-owned result; `out.load_per_arch` is
  /// resized (no allocation once warm) and refilled. Same contract as
  /// `dispatch()`.
  void dispatch_into(std::span<const int> counts, ReqRate rate,
                     DispatchResult& out) const;

  /// Serving capacity of the combination, req/s.
  [[nodiscard]] ReqRate capacity_of(std::span<const int> counts) const;

  /// Compiles the fleet `counts` into `out` (reusing its storage). See
  /// FleetPowerCurve: out.power_at(rate) matches power_at(counts, rate)
  /// within a few ulp (the affine pieces refactor the sum), and `out`
  /// borrows this plan's piecewise models.
  void compile_fleet(std::span<const int> counts, FleetPowerCurve& out) const;

  [[nodiscard]] ReqRate max_perf(std::size_t arch) const {
    return max_perf_[arch];
  }
  [[nodiscard]] Watts idle_power(std::size_t arch) const {
    return idle_[arch];
  }
  [[nodiscard]] Watts max_power(std::size_t arch) const {
    return max_power_[arch];
  }

  /// Power of one machine of `arch` serving `rate` — exactly
  /// ArchitectureProfile::power_at, with the virtual call flattened away
  /// for linear models. Inline so per-rate loops (the DP solvers) pay no
  /// call overhead.
  [[nodiscard]] Watts machine_power_at(std::size_t arch, ReqRate rate) const {
    if (linear_[arch]) {
      // Same expression as LinearPowerModel::power_at so results stay
      // bit-identical to the reference dispatch().
      const ReqRate r = rate < 0.0
                            ? 0.0
                            : (rate > max_perf_[arch] ? max_perf_[arch] : rate);
      return idle_[arch] + slope_[arch] * r;
    }
    return models_[arch]->power_at(rate);
  }

 private:
  /// The shared dispatch kernel: fills low-slope machines first and
  /// accumulates power; optionally records per-arch loads. Both public
  /// entry points delegate here so there is exactly one copy of the
  /// bit-exactness-critical loop.
  [[nodiscard]] Watts evaluate(std::span<const int> counts, ReqRate rate,
                               ReqRate* remaining_out,
                               std::vector<ReqRate>* loads) const;

  std::vector<std::size_t> order_;  // slope-ascending catalog indices
  std::vector<ReqRate> max_perf_;   // catalog order, as are all below
  std::vector<Watts> idle_;
  std::vector<Watts> max_power_;
  std::vector<double> slope_;  // valid where linear_[i]
  std::vector<char> linear_;
  std::vector<std::shared_ptr<const PowerModel>> models_;  // piecewise only
};

}  // namespace bml
