// Reconfiguration-cost-aware scheduler — the paper's closing future work:
// "take in account their corresponding overheads when taking
// reconfiguration decisions."
//
// Like BmlScheduler it targets the ideal combination for the predicted
// load, but before committing to a reconfiguration that is not forced by
// capacity it weighs the switch costs (On/Off energies plus application
// migration) against the predicted power savings:
//
//     reconfigure iff  savings_W * payback_window  >  transition_J
//
// The transition price of a switch-off includes the machine's *future
// boot* (round trip): a machine sent to sleep during a lull will have to
// come back, and ignoring that cost makes the scheduler cycle Big machines
// through every short dip. Scale-ups required to keep capacity above the
// prediction always pass — QoS outranks energy, as in the paper.
#pragma once

#include <memory>

#include "app/migration.hpp"
#include "core/bml_design.hpp"
#include "core/dispatch_plan.hpp"
#include "predict/predictor.hpp"
#include "sim/scheduler.hpp"

namespace bml {

class CostAwareScheduler final : public Scheduler {
 public:
  /// `payback_window` <= 0 defaults to the prediction window (savings must
  /// repay the switch before the next predictable load change).
  CostAwareScheduler(std::shared_ptr<const BmlDesign> design,
                     std::shared_ptr<Predictor> predictor,
                     ApplicationModel app = {}, MigrationModel migration = {},
                     Seconds window = 0.0, Seconds payback_window = 0.0);

  [[nodiscard]] std::optional<Combination> decide(
      TimePoint now, const LoadTrace& trace) override;
  [[nodiscard]] Combination initial_combination(
      const LoadTrace& trace) override;
  [[nodiscard]] std::string name() const override;

  /// Joules needed to reconfigure `from` into `to` (On/Off transitions
  /// plus application migration). With `charge_round_trip` every switched
  /// off machine is also charged its future boot energy — the price used
  /// by decide() for non-forced reconfigurations.
  [[nodiscard]] Joules transition_energy(const Combination& from,
                                         const Combination& to,
                                         bool charge_round_trip = false) const;

 private:
  std::shared_ptr<const BmlDesign> design_;
  DispatchPlan plan_;  // compiled from the design's candidates
  std::shared_ptr<Predictor> predictor_;
  ApplicationModel app_;
  MigrationModel migration_;
  Seconds window_;
  Seconds payback_window_;
  Combination current_;
  bool primed_ = false;
};

}  // namespace bml
