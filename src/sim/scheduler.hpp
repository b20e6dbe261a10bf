// Scheduler interface.
//
// A Scheduler is consulted once per simulated second — except while a
// reconfiguration is in flight, matching the paper's "during the
// reconfiguration, no other decision can be made". It returns the machine
// combination the data center should converge to; returning the current
// target (or std::nullopt) means "no change".
//
// A decision depends only on the trace, the time and the scheduler's own
// call history: decide() sees no cluster state, so nothing the fleet does
// (reconfigurations, transition completions, faults, other tenants) can
// change what a scheduler answers at a given second. That is what lets the
// event-driven simulator keep each scheduler's stability bound until it
// expires.
#pragma once

#include <optional>
#include <string>

#include "core/combination.hpp"
#include "predict/predictor.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Desired combination at time `now`. `trace` carries the workload
  /// (oracle predictors read ahead; reactive ones must only read strictly
  /// before `now`).
  [[nodiscard]] virtual std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) = 0;

  /// The combination the simulator should pre-warm at t = 0. Default: let
  /// the first decide() call boot everything from cold.
  [[nodiscard]] virtual Combination initial_combination(
      const LoadTrace& trace) {
    (void)trace;
    return Combination{};
  }

  /// First time strictly after `now` at which decide() may return a
  /// decision different from the one it returned at `now`. The
  /// event-driven simulator asks once per decision run, right after
  /// decide(now), and skips this scheduler's consults until the bound,
  /// however often the fleet changes meanwhile. So a bound is valid only
  /// if every call it skips, in any subset the per-second loop would
  /// make, would return the decision of `now` and leave the scheduler's
  /// state as it is: a scheduler with call history bounds itself by the
  /// first call that could change that history (hysteresis: its inner
  /// scheduler's bound, or a pending scale-down's hold expiry). One that
  /// cannot tell (cost-aware, BML over a stateful predictor) keeps the
  /// default of now + 1, which degrades gracefully to per-second
  /// consultation.
  [[nodiscard]] virtual TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) {
    (void)trace;
    return now + 1;
  }

  /// The work this scheduler's prediction cursors have done so far (the
  /// metrics work ledger); zero for a scheduler without one.
  [[nodiscard]] virtual PredictionWork prediction_work() const { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace bml
