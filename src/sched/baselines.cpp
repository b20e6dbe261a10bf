#include "sched/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "util/run_length.hpp"

namespace bml {

namespace {

Combination homogeneous(std::size_t arch_index, int n) {
  Combination combo;
  combo.set_count(arch_index, n);
  return combo;
}

}  // namespace

StaticMaxScheduler::StaticMaxScheduler(ArchitectureProfile big,
                                       std::size_t arch_index)
    : big_(std::move(big)), arch_index_(arch_index) {}

int StaticMaxScheduler::machines_for(ReqRate rate) const {
  if (rate < 0.0)
    throw std::invalid_argument("StaticMaxScheduler: negative rate");
  return std::max(1, static_cast<int>(std::ceil(rate / big_.max_perf())));
}

std::optional<Combination> StaticMaxScheduler::decide(
    TimePoint /*now*/, const LoadTrace& trace) {
  // Constant fleet: always the globally sized combination (peak() reads
  // the trace's range-max index: two block scans and a table lookup).
  return homogeneous(arch_index_, machines_for(trace.peak()));
}

Combination StaticMaxScheduler::initial_combination(const LoadTrace& trace) {
  return homogeneous(arch_index_, machines_for(trace.peak()));
}

TimePoint StaticMaxScheduler::decision_stable_until(TimePoint /*now*/,
                                                    const LoadTrace& /*trace*/) {
  return std::numeric_limits<TimePoint>::max();
}

PerDayScheduler::PerDayScheduler(ArchitectureProfile big,
                                 std::size_t arch_index)
    : big_(std::move(big)), arch_index_(arch_index) {}

Combination PerDayScheduler::combination_for_day(const LoadTrace& trace,
                                                 std::size_t day) {
  if (cached_trace_ != &trace) {
    cached_daily_machines_.clear();
    cached_daily_machines_.reserve(trace.days());
    for (std::size_t d = 0; d < trace.days(); ++d)
      cached_daily_machines_.push_back(std::max(
          1,
          static_cast<int>(std::ceil(trace.day_peak(d) / big_.max_perf()))));
    cached_trace_ = &trace;
  }
  return homogeneous(arch_index_, cached_daily_machines_.at(day));
}

std::optional<Combination> PerDayScheduler::decide(TimePoint now,
                                                   const LoadTrace& trace) {
  const auto day = static_cast<std::size_t>(now / kSecondsPerDay);
  if (day >= trace.days()) return std::nullopt;
  return combination_for_day(trace, day);
}

Combination PerDayScheduler::initial_combination(const LoadTrace& trace) {
  if (trace.empty()) return {};
  return combination_for_day(trace, 0);
}

TimePoint PerDayScheduler::decision_stable_until(TimePoint now,
                                                 const LoadTrace& trace) {
  const auto day = static_cast<std::size_t>(now / kSecondsPerDay);
  if (day >= trace.days())  // past the trace: std::nullopt forever
    return std::numeric_limits<TimePoint>::max();
  return (static_cast<TimePoint>(day) + 1) * kSecondsPerDay;
}

ReactiveScheduler::ReactiveScheduler(std::shared_ptr<const BmlDesign> design,
                                     double headroom)
    : design_(std::move(design)), headroom_(headroom) {
  if (!design_) throw std::invalid_argument("ReactiveScheduler: null design");
  if (headroom_ < 1.0)
    throw std::invalid_argument("ReactiveScheduler: headroom must be >= 1");
}

std::optional<Combination> ReactiveScheduler::decide(TimePoint now,
                                                     const LoadTrace& trace) {
  const ReqRate rate =
      std::min(trace.at(now) * headroom_, design_->max_rate());
  return design_->ideal_combination(rate);
}

TimePoint ReactiveScheduler::decision_stable_until(TimePoint now,
                                                   const LoadTrace& trace) {
  constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
  const DecisionThresholds* cuts = design_->decision_thresholds();
  if (cuts == nullptr) return trace.next_change(now);
  // The decision is the threshold bucket of the instantaneous load: walk
  // the trace's run-length segments until one leaves the current bucket.
  // On a noisy trace whose wiggles stay inside one bucket this merges what
  // used to be per-second spans. The simulator asks once per decision run,
  // so the walks of one replay cover the trace's segments about once.
  const ReqRate max_rate = design_->max_rate();
  const auto bucket = [&](TimePoint t) {
    return cuts->index_for(std::min(trace.at(t) * headroom_, max_rate));
  };
  const std::size_t current = bucket(now);
  const auto size = static_cast<TimePoint>(trace.size());
  if (now >= size) return kNever;  // past the end the trace holds 0
  // Seat the run holding `now` once, then step the run index: run r + 1
  // starts where run r ends. A change at `size` is the implicit 0 tail,
  // which holds forever.
  const std::span<const std::uint32_t> ends = trace.run_ends();
  std::size_t run = run_index(ends, static_cast<std::size_t>(now));
  TimePoint t = run_end(ends, run);
  while (t < kNever && bucket(t) == current)
    t = t >= size ? kNever : run_end(ends, ++run);
  return t;
}

Combination ReactiveScheduler::initial_combination(const LoadTrace& trace) {
  if (trace.empty()) return {};
  return design_->ideal_combination(
      std::min(trace.at(0) * headroom_, design_->max_rate()));
}

HysteresisScheduler::HysteresisScheduler(std::shared_ptr<Scheduler> inner,
                                         std::shared_ptr<const BmlDesign> design,
                                         Seconds hold)
    : inner_(std::move(inner)), design_(std::move(design)), hold_(hold) {
  if (!inner_) throw std::invalid_argument("HysteresisScheduler: null inner");
  if (!design_)
    throw std::invalid_argument("HysteresisScheduler: null design");
  if (!(hold_ >= 0.0))
    throw std::invalid_argument("HysteresisScheduler: hold must be >= 0");
}

std::optional<Combination> HysteresisScheduler::decide(
    TimePoint now, const LoadTrace& trace) {
  std::optional<Combination> wanted = inner_->decide(now, trace);
  if (!wanted.has_value()) return std::nullopt;
  if (!primed_) {
    current_ = *wanted;
    primed_ = true;
    return current_;
  }
  if (*wanted == current_) {
    down_since_ = -1;
    return current_;
  }

  const Catalog& cand = design_->candidates();
  const bool is_scale_down =
      idle_power(cand, *wanted) < idle_power(cand, current_);
  if (!is_scale_down) {
    // More capacity requested: follow immediately, clear any pending down.
    current_ = *wanted;
    down_since_ = -1;
    return current_;
  }

  // Scale-down: require the inner scheduler to sustain the request.
  if (down_since_ < 0 || !(pending_down_ == *wanted)) {
    down_since_ = now;
    pending_down_ = *wanted;
    return current_;
  }
  if (static_cast<Seconds>(now - down_since_) >= hold_) {
    current_ = pending_down_;
    down_since_ = -1;
  }
  return current_;
}

TimePoint HysteresisScheduler::decision_stable_until(TimePoint now,
                                                    const LoadTrace& trace) {
  // The inner decision holds until the inner bound, so a bound that a hold
  // expiry cut short still holds at the next consult: no walk twice.
  if (&trace != inner_trace_ || trace.size() != inner_size_ ||
      now < inner_from_ || now >= inner_until_) {
    inner_trace_ = &trace;
    inner_size_ = trace.size();
    inner_from_ = now;
    inner_until_ = inner_->decision_stable_until(now, trace);
  }
  const TimePoint inner = inner_until_;
  if (down_since_ < 0) return inner;
  // decide() follows the pending scale-down at the first second s with
  // static_cast<Seconds>(s - down_since_) >= hold_: s - down_since_ =
  // ceil(hold_) while every whole number up to it is a double. A longer
  // hold needs at least 2^52 s, which bounds it early, never late.
  constexpr Seconds kExact = 0x1p52;
  const auto held = static_cast<TimePoint>(hold_ <= kExact ? std::ceil(hold_)
                                                           : kExact);
  return std::min(inner, std::max(now + 1, down_since_ + held));
}

Combination HysteresisScheduler::initial_combination(const LoadTrace& trace) {
  current_ = inner_->initial_combination(trace);
  primed_ = true;
  return current_;
}

std::string HysteresisScheduler::name() const {
  return inner_->name() + "+hysteresis";
}

}  // namespace bml
