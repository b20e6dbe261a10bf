// Simulation self-metrics: the registry and the simulator's own
// instrumentation.
//
// The fleet-scale roadmap item needs to know *why* the event-driven fast
// path does the work it does — which bound ends each span, how long spans
// get, how much of a sweep's wall-clock went into shared builds versus
// replays. This header provides:
//
//   * Histogram — fixed upper-bound buckets (plus an implicit overflow
//     bucket), integer counts, exact merges;
//   * MetricsRegistry — named counters / gauges / histograms with a
//     deterministic text rendering (names sorted) and a deterministic
//     merge, so per-sweep-worker shards folded in grid order produce
//     byte-identical output for every --threads value;
//   * SpanEndCause + SimMetrics — the simulator's own counters: one
//     SimMetrics per run, incremented through a nullable pointer so a
//     disabled run costs one branch per span and allocates nothing.
//
// Everything here is plain data: no atomics, no locks. Parallel sweeps
// give every scenario its own SimMetrics shard and merge the shards
// sequentially in grid index order (scenario/sweep.hpp), which is both
// race-free and thread-count-independent.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bml {

class MetricsRegistry;

/// Fixed-bucket histogram: bucket i counts observations with
/// value <= upper_bounds[i] (first matching bucket), and one implicit
/// overflow bucket counts everything beyond the last bound. Bounds are
/// immutable after construction; merges require identical bounds.
class Histogram {
 public:
  Histogram() = default;
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Geometric bucket ladder: first, first*factor, ... (`count` bounds).
  [[nodiscard]] static Histogram exponential(double first, double factor,
                                             std::size_t count);

  /// True once constructed with bounds (a default-constructed histogram
  /// drops observations — SimMetrics uses this so disabled runs allocate
  /// nothing).
  [[nodiscard]] bool configured() const { return !bounds_.empty(); }

  void observe(double value);

  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }
  /// Per-bucket counts; size upper_bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total_count() const { return total_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }

  /// Adds `other`'s counts bucket-wise. Throws std::invalid_argument on a
  /// bound mismatch; merging an unconfigured histogram is a no-op, and
  /// merging into an unconfigured one adopts the other's bounds.
  void merge(const Histogram& other);

  /// One-line rendering: count, mean, and the non-empty buckets as
  /// "<=bound:count" pairs (deterministic).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Named metrics with deterministic merge and rendering. Counters add,
/// gauges keep the maximum, histograms merge bucket-wise; to_text() walks
/// the (ordered) maps, so two registries built from the same shards in the
/// same order render byte-identically regardless of how many threads
/// produced the shards.
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta);
  void max_gauge(const std::string& name, double value);
  void merge_histogram(const std::string& name, const Histogram& histogram);

  /// Current counter value; 0 when the name was never added.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Folds another registry in (counters add, gauges max, histograms
  /// merge).
  void merge(const MetricsRegistry& other);

  /// Deterministic "name value" lines, sorted by name; histograms render
  /// through Histogram::to_string.
  [[nodiscard]] std::string to_text() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Why an event-driven span ended — the binding bound among the fast
/// path's candidates (sim/simulator.cpp step 2). One counter per cause
/// answers "what limits batching" directly: a scheduler-stable-dominated
/// run is decision-bound, a trace-change-dominated one is
/// threshold-crossing-bound, a fault/crew-dominated one is
/// availability-bound.
enum class SpanEndCause {
  /// Some scheduler's decision may change (predictor horizon, decision
  /// window, hysteresis hold, ...).
  kSchedulerStable,
  /// The decision bound coincides with a trace run boundary — the load
  /// crossed a decision threshold.
  kTraceChange,
  /// A machine boot/shutdown completes (or a reconfiguration drains).
  kTransitionComplete,
  /// A failure strike (machine or rack) is due.
  kFault,
  /// A repair completion is due (the crew frees up).
  kCrewCompletion,
  /// An availability-SLO trailing window crosses an error budget.
  kSloCrossing,
  /// The offered load crossed the On fleet's rated capacity while
  /// degraded-mode serving is on (overload entry or exit).
  kOverloadCrossing,
  /// A tenant arrival or departure is due (Workload::arrive / depart):
  /// the active-app set changes at the span end, so attribution
  /// integrands never straddle a churn event.
  kChurn,
  /// The span was clamped at a day boundary (per-day energy buckets).
  kDayBoundary,
  /// The replay ran out of trace.
  kTraceEnd,
};
inline constexpr std::size_t kSpanEndCauseCount = 10;

[[nodiscard]] const char* to_string(SpanEndCause cause);

/// One run's self-instrumentation. Disabled by default: enable() allocates
/// the histograms; the simulator increments fields through a pointer that
/// is null when metrics are off, so the fast path pays one branch per span
/// and the numbers never feed back into the simulation. merge() is exact
/// (integer counters), so folding shards in a fixed order is
/// thread-count-independent.
struct SimMetrics {
  bool enabled = false;

  /// Event-driven spans executed / per-second reference ticks executed
  /// (one of the two is 0 depending on the execution strategy).
  std::uint64_t spans = 0;
  std::uint64_t ticks = 0;
  /// Per-cause span-end counts; sums to `spans` on the event-driven path.
  std::array<std::uint64_t, kSpanEndCauseCount> span_end_causes{};
  /// Scheduler decide() consultations: one per active workload per idle
  /// decision point, except those the event-driven path skips while the
  /// workload's cached stability bound has not expired.
  std::uint64_t scheduler_consults = 0;
  /// Merged decisions that changed the cluster target (== reconfigurations
  /// started).
  std::uint64_t decisions_applied = 0;
  /// Work ledger of the schedulers' prediction cursors (PredictionWork):
  /// linear-trend window refits, and seconds stepped one at a time.
  std::uint64_t predict_refits = 0;
  std::uint64_t predict_walk_seconds = 0;
  /// Work ledger of the span walks (sim/span_walk.hpp): the constant-load
  /// sub-runs both walks integrated, counted per span, and the power
  /// lookups of those sub-runs that the fleet curve's piece table could not
  /// answer (rate 0, or at or above the table's end), which took its
  /// general loop.
  std::uint64_t walk_sub_runs = 0;
  std::uint64_t walk_power_fallbacks = 0;
  /// Fused k-way merge instrumentation (multi-app event-driven path):
  /// frontier cursor advances (RLE runs consumed across all apps, seeding
  /// included) and the largest app count any merge ran with.
  std::uint64_t merge_frontier_advances = 0;
  std::uint64_t merge_apps_max = 0;
  /// Machines preempted from low-priority apps to backfill high-priority
  /// ones after strikes (units, summed over all preemption instants).
  std::uint64_t preemptions = 0;
  /// Largest number of simultaneously active tenants the run saw
  /// (tenant lifecycle; equals the app count for fixed-tenant runs).
  /// Merged as a maximum and exported as the sim.apps_active gauge.
  std::uint64_t apps_active_max = 0;
  /// Span lengths in seconds (event-driven path only).
  Histogram span_seconds;

  /// Allocates the histograms and marks the struct live.
  void enable();

  /// Exact bucket/counter merge (both sides may be disabled; a disabled
  /// side contributes nothing).
  void merge(const SimMetrics& other);

  /// Exports into `out` under "sim." names (sim.spans, sim.span_end.*,
  /// sim.span_seconds, ...). A disabled SimMetrics exports nothing.
  void export_to(MetricsRegistry& out) const;
};

}  // namespace bml
