#include "sched/cost_aware.hpp"

#include <algorithm>
#include <stdexcept>

#include "sched/bml_scheduler.hpp"

namespace bml {

CostAwareScheduler::CostAwareScheduler(
    std::shared_ptr<const BmlDesign> design,
    std::shared_ptr<Predictor> predictor, ApplicationModel app,
    MigrationModel migration, Seconds window, Seconds payback_window)
    : design_(std::move(design)),
      predictor_(std::move(predictor)),
      app_(std::move(app)),
      migration_(migration),
      window_(window),
      payback_window_(payback_window) {
  if (!design_) throw std::invalid_argument("CostAwareScheduler: null design");
  if (!predictor_)
    throw std::invalid_argument("CostAwareScheduler: null predictor");
  app_.validate();
  migration_.validate();
  plan_ = DispatchPlan(design_->candidates());
  if (window_ <= 0.0) window_ = BmlScheduler::default_window(*design_);
  if (payback_window_ <= 0.0) payback_window_ = window_;
}

Joules CostAwareScheduler::transition_energy(const Combination& from,
                                             const Combination& to,
                                             bool charge_round_trip) const {
  const Catalog& cand = design_->candidates();
  const std::vector<int> d = delta(from, to);
  Joules energy = 0.0;
  for (std::size_t a = 0; a < d.size() && a < cand.size(); ++a) {
    if (d[a] > 0) energy += d[a] * cand[a].on_cost().energy;
    if (d[a] < 0) {
      energy += -d[a] * cand[a].off_cost().energy;
      if (charge_round_trip) energy += -d[a] * cand[a].on_cost().energy;
    }
  }
  energy += migration_.reconfiguration_cost(app_, from, to).energy;
  return energy;
}

std::optional<Combination> CostAwareScheduler::decide(
    TimePoint now, const LoadTrace& trace) {
  const ReqRate predicted = std::min(
      predictor_->predict(trace, now, window_) * headroom_factor(app_.qos),
      design_->max_rate());
  Combination target = design_->ideal_combination(predicted);
  target.resize(design_->candidates().size());

  if (!primed_) {
    current_ = target;
    primed_ = true;
    return current_;
  }
  if (target == current_) return current_;

  const Catalog& cand = design_->candidates();

  // Forced scale-up: the current fleet cannot cover the prediction.
  if (capacity(cand, current_) < predicted) {
    current_ = target;
    return current_;
  }

  // Optional reconfiguration (scale-down / reshaping): only when the power
  // savings repay the transition energy within the payback window.
  const Watts current_power = plan_.power_at(current_.counts(), predicted);
  const Watts target_power = plan_.power_at(target.counts(), predicted);
  const Watts savings = current_power - target_power;
  if (savings <= 0.0) return current_;

  const Joules cost =
      transition_energy(current_, target, /*charge_round_trip=*/true);
  if (savings * payback_window_ > cost) {
    current_ = target;
  }
  return current_;
}

Combination CostAwareScheduler::initial_combination(const LoadTrace& trace) {
  const ReqRate first_load = trace.empty() ? 0.0 : trace.at(0);
  const ReqRate predicted =
      std::max(predictor_->predict(trace, 0, window_), first_load);
  current_ = design_->ideal_combination(
      std::min(predicted * headroom_factor(app_.qos), design_->max_rate()));
  current_.resize(design_->candidates().size());
  primed_ = true;
  return current_;
}

std::string CostAwareScheduler::name() const {
  return "cost-aware(" + predictor_->name() + ")";
}

}  // namespace bml
