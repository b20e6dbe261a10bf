#include "sim/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace bml {

Cluster::Cluster(Catalog candidates, const Combination& initial,
                 FaultModel faults, std::shared_ptr<const DispatchPlan> plan)
    : candidates_(std::move(candidates)),
      plan_(std::move(plan)),
      faults_(faults) {
  if (candidates_.empty())
    throw std::invalid_argument("Cluster: empty candidate catalog");
  if (!plan_) plan_ = std::make_shared<DispatchPlan>(candidates_);
  if (plan_->arch_kinds() != candidates_.size())
    throw std::invalid_argument("Cluster: plan does not match catalog");
  if (!(faults_.boot_time_jitter >= 0.0 &&
        faults_.boot_time_jitter <= FaultModel::kMaxBootTimeJitter) ||
      faults_.boot_failure_prob < 0.0 ||
      faults_.boot_failure_prob > 1.0 || faults_.mtbf < 0.0 ||
      faults_.mttr < 0.0 || faults_.groups < 0 || faults_.group_mtbf < 0.0 ||
      faults_.group_mttr < 0.0 || faults_.crews < 0)
    throw std::invalid_argument("Cluster: invalid fault model");
  if (faults_.active()) fault_rng_.emplace(faults_.seed);
  if (initial.counts().size() > candidates_.size())
    throw std::invalid_argument("Cluster: initial combination too wide");
  on_.assign(candidates_.size(), 0);
  booting_.assign(candidates_.size(), 0);
  shutting_.assign(candidates_.size(), 0);
  failed_.assign(candidates_.size(), 0);
  parked_.assign(candidates_.size(), 0);
  for (std::size_t arch = 0; arch < initial.counts().size(); ++arch) {
    on_[arch] += initial.counts()[arch];
    provisioned_ += static_cast<std::size_t>(initial.counts()[arch]);
  }
}

Seconds Cluster::boot_duration(std::size_t arch) {
  const Seconds nominal = candidates_[arch].on_cost().duration;
  if (!fault_rng_.has_value()) return -1.0;  // use the profile value
  double duration = nominal;
  if (faults_.boot_time_jitter > 0.0)
    duration *= std::max(
        0.25, 1.0 + fault_rng_->normal(0.0, faults_.boot_time_jitter));
  if (faults_.boot_failure_prob > 0.0 &&
      fault_rng_->chance(faults_.boot_failure_prob))
    duration += nominal;  // one failed attempt, then the retry succeeds
  return duration;
}

void Cluster::note_transition(Seconds remaining) {
  if (next_transition_min_ < 0.0 || remaining < next_transition_min_)
    next_transition_min_ = remaining;
}

void Cluster::switch_on(std::size_t arch, int n) {
  if (arch >= candidates_.size())
    throw std::invalid_argument("Cluster: arch index out of range");
  if (n < 0) throw std::invalid_argument("Cluster: n must be >= 0");
  const int reused = std::min(n, parked_[arch]);
  parked_[arch] -= reused;
  provisioned_ += static_cast<std::size_t>(n - reused);
  // One boot-duration draw per machine, in machine order — identical RNG
  // consumption to booting individual FSMs. Equal consecutive draws (the
  // common case: no fault RNG at all, or retry-only models where most
  // draws land on the nominal duration) coalesce into one record.
  Transition pending{};
  int started = 0;
  for (int i = 0; i < n; ++i) {
    Seconds duration = boot_duration(arch);
    if (duration < 0.0) duration = candidates_[arch].on_cost().duration;
    if (duration <= 0.0) {
      ++on_[arch];  // zero-duration boot completes immediately
      continue;
    }
    ++started;
    if (pending.count > 0 && duration == pending.remaining) {
      ++pending.count;
      continue;
    }
    if (pending.count > 0) transitions_.push_back(pending);
    pending = Transition{duration, 1, static_cast<std::uint32_t>(arch), true};
    note_transition(duration);
  }
  if (pending.count > 0) transitions_.push_back(pending);
  booting_[arch] += started;
}

void Cluster::switch_off(std::size_t arch, int n) {
  if (arch >= candidates_.size())
    throw std::invalid_argument("Cluster: arch index out of range");
  if (n < 0) throw std::invalid_argument("Cluster: n must be >= 0");
  const int taken = std::min(n, on_[arch]);
  if (taken > 0) {
    const Seconds duration = candidates_[arch].off_cost().duration;
    on_[arch] -= taken;
    if (duration <= 0.0) {
      parked_[arch] += taken;  // zero-duration shutdown
    } else {
      shutting_[arch] += taken;
      transitions_.push_back(
          Transition{duration, taken, static_cast<std::uint32_t>(arch), false});
      note_transition(duration);
    }
  }
  if (taken < n)
    throw std::logic_error(
        "Cluster: asked to switch off more machines than are On");
}

bool Cluster::fail_one(std::size_t arch) {
  if (arch >= candidates_.size())
    throw std::invalid_argument("Cluster: arch index out of range");
  if (on_[arch] == 0) return false;
  --on_[arch];
  ++failed_[arch];
  return true;
}

void Cluster::repair_one(std::size_t arch) {
  if (arch >= candidates_.size())
    throw std::invalid_argument("Cluster: arch index out of range");
  if (failed_[arch] == 0)
    throw std::logic_error("Cluster: no Failed machine of this arch to repair");
  --failed_[arch];
  ++parked_[arch];
}

int Cluster::failed_count() const {
  int total = 0;
  for (int f : failed_) total += f;
  return total;
}

int Cluster::booting_total() const {
  int total = 0;
  for (int b : booting_) total += b;
  return total;
}

int Cluster::shutting_down_total() const {
  int total = 0;
  for (int s : shutting_) total += s;
  return total;
}

ClusterSnapshot Cluster::snapshot() const {
  ClusterSnapshot snap{Combination(on_), Combination(booting_),
                       Combination(shutting_), Combination(failed_)};
  snap.on_capacity = capacity(candidates_, snap.on);
  return snap;
}

bool Cluster::transitioning() const { return !transitions_.empty(); }

ReqRate Cluster::on_capacity() const {
  ReqRate total = 0.0;
  for (std::size_t a = 0; a < candidates_.size(); ++a)
    total += on_[a] * candidates_[a].max_perf();
  return total;
}

Watts Cluster::compute_power(ReqRate load) const {
  return plan_->power_at(on_, load);
}

void Cluster::compile_power_curve(FleetPowerCurve& out) const {
  plan_->compile_fleet(on_, out);
}

Watts Cluster::transition_power() const {
  Watts transition = 0.0;
  for (std::size_t a = 0; a < candidates_.size(); ++a) {
    transition += booting_[a] * candidates_[a].on_cost().average_power();
    transition += shutting_[a] * candidates_[a].off_cost().average_power();
  }
  return transition;
}

ClusterPower Cluster::step_power(ReqRate load) const {
  return ClusterPower{compute_power(load), transition_power()};
}

void Cluster::split_capacity(const std::vector<ReqRate>& loads, ReqRate total,
                             std::vector<ReqRate>& alloc) const {
  split_capacity(loads, total, on_capacity(), alloc);
}

void Cluster::split_capacity(const std::vector<ReqRate>& loads, ReqRate total,
                             ReqRate capacity, std::vector<ReqRate>& alloc) {
  const std::size_t n = loads.size();
  alloc.resize(n);
  if (n == 0) return;
  if (total > 0.0) {
    for (std::size_t i = 0; i < n; ++i)
      alloc[i] = capacity * (loads[i] / total);
  } else {
    const double equal = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) alloc[i] = capacity * equal;
  }
}

int Cluster::step(Seconds dt) {
  if (transitions_.empty()) return 0;
  if (dt <= 0.0) throw std::invalid_argument("Cluster: dt must be > 0");
  int completed = 0;
  // The record loop doubles as the incremental-minimum refresh: every
  // surviving record was decremented by dt, and completions drop out. The
  // completion threshold matches the per-machine FSM arithmetic exactly
  // (remaining -= dt; done when remaining <= 1e-9).
  Seconds next = -1.0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    Transition t = transitions_[i];
    t.remaining -= dt;
    if (t.remaining > 1e-9) {
      if (next < 0.0 || t.remaining < next) next = t.remaining;
      transitions_[out++] = t;
      continue;
    }
    completed += t.count;
    if (t.booting) {
      booting_[t.arch] -= t.count;
      on_[t.arch] += t.count;
    } else {
      shutting_[t.arch] -= t.count;
      parked_[t.arch] += t.count;
    }
  }
  transitions_.resize(out);
  next_transition_min_ = next;
  return completed;
}

}  // namespace bml
