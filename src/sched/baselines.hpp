// Baseline data center management policies — the paper's comparison
// scenarios (Section V-C) plus reactive ablations.
//
//  * StaticMaxScheduler   — "UpperBound Global": a homogeneous data center
//    with a constant number of Big machines sized for the whole trace's
//    maximum request rate (the classical over-provisioned data center;
//    4 Big machines in the paper's evaluation).
//  * PerDayScheduler      — "UpperBound PerDay": homogeneous Big machines
//    re-dimensioned at each midnight for that day's maximum rate (coarse
//    grain capacity planning).
//  * ReactiveScheduler    — ablation: no look-ahead; targets the ideal
//    combination for the *current* load each second. Demonstrates why the
//    paper's pro-active window matters (boot latency causes QoS loss).
//  * HysteresisScheduler  — ablation: wraps another scheduler and only
//    follows scale-downs after they persist for `hold` seconds, trading
//    energy for fewer reconfigurations.
#pragma once

#include <memory>

#include "core/bml_design.hpp"
#include "sim/scheduler.hpp"

namespace bml {

/// Homogeneous always-on fleet sized for the trace's global peak.
class StaticMaxScheduler final : public Scheduler {
 public:
  /// `big` is the machine type the data center is built from; `arch_index`
  /// its index in the simulator's candidate catalog.
  StaticMaxScheduler(ArchitectureProfile big, std::size_t arch_index);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;
  /// The fleet never changes: stable for the whole replay.
  [[nodiscard]] TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] std::string name() const override {
    return "upper-bound-global";
  }

  /// Machines needed for `rate` (ceil of rate / max_perf, at least 1).
  [[nodiscard]] int machines_for(ReqRate rate) const;

 private:
  ArchitectureProfile big_;
  std::size_t arch_index_;
};

/// Homogeneous fleet re-dimensioned each day for the daily peak (oracle
/// capacity planning, as in the paper).
class PerDayScheduler final : public Scheduler {
 public:
  PerDayScheduler(ArchitectureProfile big, std::size_t arch_index);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;
  /// Decisions change only at midnight boundaries.
  [[nodiscard]] TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] std::string name() const override {
    return "upper-bound-per-day";
  }

 private:
  [[nodiscard]] Combination combination_for_day(const LoadTrace& trace,
                                                std::size_t day);

  ArchitectureProfile big_;
  std::size_t arch_index_;
  // Daily peaks scan a day of samples each; cache them per trace.
  const void* cached_trace_ = nullptr;
  std::vector<int> cached_daily_machines_;
};

/// No look-ahead: ideal combination for the instantaneous load.
class ReactiveScheduler final : public Scheduler {
 public:
  explicit ReactiveScheduler(std::shared_ptr<const BmlDesign> design,
                             double headroom = 1.0);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;
  /// Tracks the instantaneous load: stable until the trace value changes.
  [[nodiscard]] TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] std::string name() const override { return "reactive"; }

 private:
  std::shared_ptr<const BmlDesign> design_;
  double headroom_;
};

/// Scale-down damping: scale-ups pass through immediately; a scale-down is
/// followed only once the inner scheduler has kept asking for a target with
/// lower idle power for `hold` consecutive seconds.
class HysteresisScheduler final : public Scheduler {
 public:
  /// `hold` >= 0; +infinity never follows a scale-down.
  HysteresisScheduler(std::shared_ptr<Scheduler> inner,
                      std::shared_ptr<const BmlDesign> design, Seconds hold);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;
  /// The inner scheduler's bound, or the first second at which a pending
  /// scale-down's hold expires when that comes first. Before both, decide()
  /// sees the same inner decision, so it returns the current combination
  /// and leaves its state as it is.
  [[nodiscard]] TimePoint decision_stable_until(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] PredictionWork prediction_work() const override {
    return inner_->prediction_work();
  }
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<Scheduler> inner_;
  std::shared_ptr<const BmlDesign> design_;
  Seconds hold_;
  Combination current_;
  bool primed_ = false;
  TimePoint down_since_ = -1;
  Combination pending_down_;
  // The inner scheduler's last bound, asked at inner_from_ on this trace.
  const LoadTrace* inner_trace_ = nullptr;
  std::size_t inner_size_ = 0;
  TimePoint inner_from_ = 0;
  TimePoint inner_until_ = 0;
};

}  // namespace bml
