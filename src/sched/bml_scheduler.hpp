// The paper's pro-active BML scheduler (Section V-C).
//
// Every second (while no reconfiguration is in flight) the scheduler:
//   1. obtains a load prediction — by default the maximum over a sliding
//      look-ahead window of 2x the longest On duration (378 s for the
//      Table I catalog);
//   2. looks up the ideal BML combination for that prediction;
//   3. returns it; the simulator starts a reconfiguration when it differs
//      from the current target and blocks further decisions until the
//      On/Off actions complete.
//
// The optional QoS class applies a capacity headroom factor to the
// prediction (Section III's critical vs tolerant applications).
//
// With a pure predictor (one that offers a PredictionCursor) the decision
// at t is the threshold bucket of the prediction at t, a function of the
// trace alone. The scheduler reads it from the cursor's bounds(t): when
// both ends of that interval fall in one bucket, either end decides, and
// only an interval that straddles a cut costs the exact value(t) (for
// linear-trend, a refit). It answers decision_stable_until exactly, by
// walking the cursor to the first second whose bucket differs. The
// event-driven simulator asks once per decision run and skips the
// scheduler until the bound, so no second is walked twice. Only
// decision_stable_until walks, so the per-second reference loop, which
// never asks for a bound, evaluates each second once and no second
// inside a reconfiguration is evaluated. The cursor is built on the
// first query for a trace, so a scheduler holds no per-second state.
#pragma once

#include <cstddef>
#include <memory>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sim/qos.hpp"
#include "sim/scheduler.hpp"

namespace bml {

class BmlScheduler final : public Scheduler {
 public:
  /// `window` <= 0 selects the paper's default: twice the longest On
  /// duration among the design's candidates.
  BmlScheduler(std::shared_ptr<const BmlDesign> design,
               std::shared_ptr<Predictor> predictor, Seconds window = 0.0,
               QosClass qos = QosClass::kTolerant);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;

  /// The first second after `now` whose prediction falls in another
  /// threshold bucket (max() when none ever does). now + 1 for a stateful
  /// predictor, which cannot be probed ahead, and for a design built
  /// without a combination table, which has no buckets.
  [[nodiscard]] TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) override;

  /// Pre-warms the combination for the initial prediction (never less than
  /// the first second's load, so a cold oracle still covers t = 0).
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;

  /// The work of every cursor this scheduler has built.
  [[nodiscard]] PredictionWork prediction_work() const override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Seconds window() const { return window_; }

  /// Default prediction window for a design: 2x the longest On duration.
  [[nodiscard]] static Seconds default_window(const BmlDesign& design);

 private:
  /// Points the cursor at `trace`, rebuilding it when the trace changed.
  void bind(const LoadTrace& trace);
  /// A prediction scaled by the QoS headroom and clamped to the table
  /// range.
  [[nodiscard]] ReqRate target_rate(ReqRate predicted) const;
  /// The target rate at `now`.
  [[nodiscard]] ReqRate target_rate(const LoadTrace& trace, TimePoint now);
  /// A target rate in the threshold bucket of the one at `now`, so with
  /// its ideal combination: from the cursor's bounds where they settle
  /// the bucket, else the exact target rate.
  [[nodiscard]] ReqRate decision_rate(const LoadTrace& trace, TimePoint now);
  /// The smallest prediction whose target rate reaches grid index `grid`
  /// (+inf when none does): a bucket edge mapped back to predictions, so
  /// the walk compares raw predictions.
  [[nodiscard]] ReqRate prediction_edge(double grid) const;

  std::shared_ptr<const BmlDesign> design_;
  std::shared_ptr<Predictor> predictor_;
  Seconds window_;
  QosClass qos_;

  const LoadTrace* bound_trace_ = nullptr;
  std::size_t bound_size_ = 0;
  std::unique_ptr<PredictionCursor> cursor_;  // null: stateful predictor
  PredictionWork retired_work_;  // of the cursors replaced by bind()
};

}  // namespace bml
