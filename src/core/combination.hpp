// Machine combinations: a multiset of machines drawn from a candidate list,
// plus the optimal way to dispatch a load onto one.
//
// A Combination stores one count per candidate architecture (indices match
// the sorted candidate Catalog). Power at a given rate assumes the load
// balancer splits traffic optimally: since every switched-on machine pays
// its idle power regardless, the cheapest split loads machines in
// increasing order of marginal power per req/s (their slope).
#pragma once

#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "util/units.hpp"

namespace bml {

/// Counts of machines per candidate architecture. counts()[i] machines of
/// candidates[i]. Value type with structural equality.
class Combination {
 public:
  Combination() = default;
  explicit Combination(std::vector<int> counts);

  [[nodiscard]] const std::vector<int>& counts() const { return counts_; }
  [[nodiscard]] std::size_t arch_kinds() const { return counts_.size(); }
  [[nodiscard]] int count(std::size_t arch) const;
  [[nodiscard]] int total_machines() const;
  [[nodiscard]] bool empty() const;

  void set_count(std::size_t arch, int count);
  void add(std::size_t arch, int count = 1);

  /// Grows the vector to `kinds` entries (zero-filled) so combinations built
  /// before/after a catalog extension compare safely.
  void resize(std::size_t kinds);

  friend bool operator==(const Combination&, const Combination&) = default;

 private:
  std::vector<int> counts_;
};

/// Result of dispatching a load onto a combination.
struct DispatchResult {
  /// True when the combination's capacity covers the requested rate.
  bool feasible = true;
  /// Total electrical power of all machines (idle + load), Watts.
  Watts power = 0.0;
  /// Actually served rate (== requested when feasible).
  ReqRate served = 0.0;
  /// Per-architecture aggregate load (req/s across that arch's machines).
  std::vector<ReqRate> load_per_arch;
};

/// Total capacity (sum of max_perf over machines), req/s.
[[nodiscard]] ReqRate capacity(const Catalog& candidates,
                               const Combination& combo);

/// Sum of idle powers — the combination's floor consumption.
[[nodiscard]] Watts idle_power(const Catalog& candidates,
                               const Combination& combo);

/// Sum of peak powers — the combination's ceiling consumption.
[[nodiscard]] Watts peak_power(const Catalog& candidates,
                               const Combination& combo);

/// Optimally dispatches `rate` onto the combination: machines are loaded in
/// increasing slope order; excess load beyond capacity is dropped and
/// `feasible` is cleared. Throws std::invalid_argument when the combination
/// width does not match the candidate list or rate is negative.
[[nodiscard]] DispatchResult dispatch(const Catalog& candidates,
                                      const Combination& combo, ReqRate rate);

/// Shorthand: power of the combination serving `rate` (machines beyond the
/// needed capacity still pay idle power).
[[nodiscard]] Watts power_at(const Catalog& candidates,
                             const Combination& combo, ReqRate rate);

/// Human-readable rendering, e.g. "2xparavance + 3xraspberry".
[[nodiscard]] std::string to_string(const Catalog& candidates,
                                    const Combination& combo);

/// Machines to switch on (positive) / off (negative) per architecture when
/// moving from `from` to `to`.
[[nodiscard]] std::vector<int> delta(const Combination& from,
                                     const Combination& to);

}  // namespace bml
