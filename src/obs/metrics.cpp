#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace bml {

namespace {

/// Deterministic numeric rendering (12 significant digits, the same rule
/// the sweep CSV uses) so registry text is stable across platforms and
/// thread counts.
std::string render_num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: no buckets");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i] > bounds_[i - 1]))
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::exponential(double first, double factor,
                                 std::size_t count) {
  if (!(first > 0.0) || !(factor > 1.0) || count == 0)
    throw std::invalid_argument(
        "Histogram::exponential: need first > 0, factor > 1, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = first;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::observe(double value) {
  if (bounds_.empty()) return;  // unconfigured histograms drop observations
  std::size_t bucket = bounds_.size();  // overflow unless a bound covers it
  // Linear scan: the ladders used here have ~20 buckets and observations
  // land in the low buckets; a binary search would not pay for itself.
  for (std::size_t i = 0; i < bounds_.size(); ++i)
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  ++counts_[bucket];
  ++total_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (!other.configured()) return;
  if (!configured()) {
    *this = other;
    return;
  }
  if (bounds_ != other.bounds_)
    throw std::invalid_argument("Histogram::merge: bucket bounds differ");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  os << "count=" << total_ << " mean=" << render_num(mean());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    os << ' ';
    if (i < bounds_.size())
      os << "le" << render_num(bounds_[i]);
    else
      os << "inf";
    os << ':' << counts_[i];
  }
  return os.str();
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::max_gauge(const std::string& name, double value) {
  auto [it, inserted] = gauges_.try_emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void MetricsRegistry::merge_histogram(const std::string& name,
                                      const Histogram& histogram) {
  histograms_[name].merge(histogram);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, value] : other.gauges_) max_gauge(name, value);
  for (const auto& [name, histogram] : other.histograms_)
    histograms_[name].merge(histogram);
}

std::string MetricsRegistry::to_text() const {
  // One pre-sorted pass per kind; names are disjoint by convention
  // (counters end in plain nouns, histograms carry their own rendering).
  std::ostringstream os;
  for (const auto& [name, value] : counters_)
    os << name << ' ' << value << '\n';
  for (const auto& [name, value] : gauges_)
    os << name << ' ' << render_num(value) << '\n';
  for (const auto& [name, histogram] : histograms_)
    os << name << ' ' << histogram.to_string() << '\n';
  return os.str();
}

const char* to_string(SpanEndCause cause) {
  switch (cause) {
    case SpanEndCause::kSchedulerStable: return "scheduler-stable";
    case SpanEndCause::kTraceChange: return "trace-change";
    case SpanEndCause::kTransitionComplete: return "transition-complete";
    case SpanEndCause::kFault: return "fault";
    case SpanEndCause::kCrewCompletion: return "crew-completion";
    case SpanEndCause::kSloCrossing: return "slo-crossing";
    case SpanEndCause::kOverloadCrossing: return "overload-crossing";
    case SpanEndCause::kChurn: return "churn";
    case SpanEndCause::kDayBoundary: return "day-boundary";
    case SpanEndCause::kTraceEnd: return "trace-end";
  }
  throw std::logic_error("to_string(SpanEndCause): invalid cause");
}

void SimMetrics::enable() {
  enabled = true;
  // 1 s .. ~1.5 days in doubling buckets: every span the simulator can
  // produce lands in a real bucket (spans are clamped at day boundaries,
  // so the ladder tops out just above kSecondsPerDay).
  if (!span_seconds.configured())
    span_seconds = Histogram::exponential(1.0, 2.0, 18);
}

void SimMetrics::merge(const SimMetrics& other) {
  if (!other.enabled) return;
  enabled = true;
  spans += other.spans;
  ticks += other.ticks;
  for (std::size_t i = 0; i < span_end_causes.size(); ++i)
    span_end_causes[i] += other.span_end_causes[i];
  scheduler_consults += other.scheduler_consults;
  decisions_applied += other.decisions_applied;
  predict_refits += other.predict_refits;
  predict_walk_seconds += other.predict_walk_seconds;
  walk_sub_runs += other.walk_sub_runs;
  walk_power_fallbacks += other.walk_power_fallbacks;
  merge_frontier_advances += other.merge_frontier_advances;
  merge_apps_max = std::max(merge_apps_max, other.merge_apps_max);
  preemptions += other.preemptions;
  apps_active_max = std::max(apps_active_max, other.apps_active_max);
  span_seconds.merge(other.span_seconds);
}

void SimMetrics::export_to(MetricsRegistry& out) const {
  if (!enabled) return;
  out.add_counter("sim.spans", spans);
  out.add_counter("sim.ticks", ticks);
  for (std::size_t i = 0; i < span_end_causes.size(); ++i)
    out.add_counter(std::string("sim.span_end.") +
                        to_string(static_cast<SpanEndCause>(i)),
                    span_end_causes[i]);
  out.add_counter("sim.scheduler_consults", scheduler_consults);
  out.add_counter("sim.decisions_applied", decisions_applied);
  out.add_counter("sim.predict.refits", predict_refits);
  out.add_counter("sim.predict.walk_seconds", predict_walk_seconds);
  out.add_counter("sim.walk.sub_runs", walk_sub_runs);
  out.add_counter("sim.walk.power_fallbacks", walk_power_fallbacks);
  out.add_counter("sim.merge.frontier_advances", merge_frontier_advances);
  out.max_gauge("sim.merge.apps_max", static_cast<double>(merge_apps_max));
  out.add_counter("sim.preemptions", preemptions);
  out.max_gauge("sim.apps_active", static_cast<double>(apps_active_max));
  if (span_seconds.configured())
    out.merge_histogram("sim.span_seconds", span_seconds);
}

}  // namespace bml
