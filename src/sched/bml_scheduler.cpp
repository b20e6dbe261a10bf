#include "sched/bml_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bml {

BmlScheduler::BmlScheduler(std::shared_ptr<const BmlDesign> design,
                           std::shared_ptr<Predictor> predictor,
                           Seconds window, QosClass qos)
    : design_(std::move(design)),
      predictor_(std::move(predictor)),
      window_(window),
      qos_(qos) {
  if (!design_) throw std::invalid_argument("BmlScheduler: null design");
  if (!predictor_) throw std::invalid_argument("BmlScheduler: null predictor");
  if (window_ <= 0.0) window_ = default_window(*design_);
}

Seconds BmlScheduler::default_window(const BmlDesign& design) {
  Seconds longest_on = 0.0;
  for (const ArchitectureProfile& p : design.candidates())
    longest_on = std::max(longest_on, p.on_cost().duration);
  // "a window of 378 seconds, equivalent to 2 times the longest On
  // duration" — the window must cover the boot of the slowest machine plus
  // the decision that triggered it.
  return std::max(1.0, 2.0 * longest_on);
}

void BmlScheduler::bind(const LoadTrace& trace) {
  if (&trace == bound_trace_ && trace.size() == bound_size_) return;
  bound_trace_ = &trace;
  bound_size_ = trace.size();
  if (cursor_) retired_work_ += cursor_->work();
  cursor_ = predictor_->cursor(trace, window_);
}

ReqRate BmlScheduler::target_rate(ReqRate predicted) const {
  // Never aim below what the design can answer; clamp to table range.
  return std::min(predicted * headroom_factor(qos_), design_->max_rate());
}

ReqRate BmlScheduler::target_rate(const LoadTrace& trace, TimePoint now) {
  bind(trace);
  return target_rate(cursor_ ? cursor_->value(now)
                             : predictor_->predict(trace, now, window_));
}

ReqRate BmlScheduler::decision_rate(const LoadTrace& trace, TimePoint now) {
  bind(trace);
  if (cursor_ == nullptr) return target_rate(trace, now);
  // The target rate is monotone in the prediction and a bucket is one run
  // of equal table entries, so when both ends of the interval land in one
  // bucket, every prediction inside it (the exact one among them) does.
  const PredictionBounds b = cursor_->bounds(now);
  const ReqRate lo = target_rate(b.lo);
  if (b.lo == b.hi) return lo;
  const DecisionThresholds* cuts = design_->decision_thresholds();
  if (cuts != nullptr &&
      cuts->index_for(lo) == cuts->index_for(target_rate(b.hi)))
    return lo;
  return target_rate(cursor_->value(now));
}

ReqRate BmlScheduler::prediction_edge(double grid) const {
  // ceil(rate) >= grid exactly when rate > grid - 1, and the target rate
  // is monotone in the prediction: step from the quotient to the exact
  // edge, a few ulps at most.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (grid == -kInf) return -kInf;
  const double below = grid - 1.0;
  if (!(design_->max_rate() > below)) return kInf;
  double v = std::max(0.0, below / headroom_factor(qos_));
  while (v > 0.0 && target_rate(v) > below) v = std::nextafter(v, 0.0);
  while (!(target_rate(v) > below)) v = std::nextafter(v, kInf);
  return v;
}

std::optional<Combination> BmlScheduler::decide(TimePoint now,
                                                const LoadTrace& trace) {
  return design_->ideal_combination(decision_rate(trace, now));
}

TimePoint BmlScheduler::decision_stable_until(TimePoint now,
                                              const LoadTrace& trace) {
  bind(trace);
  const DecisionThresholds* cuts = design_->decision_thresholds();
  if (cursor_ == nullptr || cuts == nullptr) return now + 1;
  const auto [grid_lo, grid_hi] =
      cuts->bucket_grid_range(cuts->index_for(decision_rate(trace, now)));
  return cursor_->first_outside(now, prediction_edge(grid_lo),
                                prediction_edge(grid_hi));
}

Combination BmlScheduler::initial_combination(const LoadTrace& trace) {
  const ReqRate first_load = trace.empty() ? 0.0 : trace.at(0);
  const ReqRate rate = std::max(target_rate(trace, 0), first_load);
  return design_->ideal_combination(std::min(rate, design_->max_rate()));
}

PredictionWork BmlScheduler::prediction_work() const {
  PredictionWork work = retired_work_;
  if (cursor_) work += cursor_->work();
  return work;
}

std::string BmlScheduler::name() const {
  return "bml(" + predictor_->name() + ")";
}

}  // namespace bml
