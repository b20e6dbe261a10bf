// Quality-of-service accounting.
//
// The paper requires the reconfiguration policy to "satisfy QoS
// constraints": the On capacity must cover the offered load. QosTracker
// integrates every second's shortfall so experiments can report how close a
// policy sails to violation, and the application-class extension (critical
// vs tolerant, Section III) scales the capacity requirement by a headroom
// factor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/units.hpp"

namespace bml {

/// Aggregated totals of one span, accumulated by a caller that fused the
/// per-run QoS arithmetic into its own segment walk (the event-driven
/// simulator's single-workload fast path). Fields mirror what
/// record_runs would have accumulated for the same runs.
struct QosSpanTotals {
  std::int64_t seconds = 0;
  std::int64_t violation_seconds = 0;
  double offered = 0.0;
  double unserved = 0.0;
  ReqRate worst_shortfall = 0.0;
};

/// Application QoS classes from Section III of the paper.
enum class QosClass {
  kCritical,  // strict performance requirements (banking, medical)
  kTolerant,  // soft requirements (enterprise services, flexible deadlines)
};

/// Capacity headroom demanded by a QoS class: critical applications keep a
/// safety margin above the instantaneous load; tolerant ones accept running
/// at the edge.
[[nodiscard]] double headroom_factor(QosClass qos);

/// Parses a QoS class name (`tolerant` | `critical`) — the single
/// validation point for every spec layer; throws std::runtime_error
/// naming the accepted values otherwise.
[[nodiscard]] QosClass parse_qos_class(const std::string& name);

/// Aggregated QoS statistics over a simulation.
struct QosStats {
  /// Seconds during which load exceeded On capacity.
  std::int64_t violation_seconds = 0;
  /// Integral of (load - capacity)+ over time: dropped request-seconds.
  double unserved_requests = 0.0;
  /// Integral of offered load (total requests).
  double offered_requests = 0.0;
  /// Largest single-second shortfall observed (req/s).
  ReqRate worst_shortfall = 0.0;
  /// Total simulated seconds.
  std::int64_t total_seconds = 0;

  /// Fraction of offered requests actually served, in [0, 1]; 1 when no
  /// load was offered.
  [[nodiscard]] double served_fraction() const {
    if (offered_requests <= 0.0) return 1.0;
    return 1.0 - unserved_requests / offered_requests;
  }

  /// Fraction of seconds without violation, in [0, 1].
  [[nodiscard]] double availability() const {
    if (total_seconds == 0) return 1.0;
    return 1.0 - static_cast<double>(violation_seconds) /
                     static_cast<double>(total_seconds);
  }
};

/// Per-second accumulator for QosStats.
class QosTracker {
 public:
  /// Records one second with `load` offered and `capacity` available.
  void record(ReqRate load, ReqRate capacity);

  /// Records `seconds` consecutive seconds with constant load and capacity
  /// in closed form — the event-driven simulator's batch path. Counters
  /// match `seconds` repeated record() calls (up to floating-point
  /// summation order on the request integrals). Inline: the multi-app
  /// fast path calls this once per app per trace sub-run.
  void record_span(ReqRate load, ReqRate capacity, std::int64_t seconds) {
    if (load < 0.0 || capacity < 0.0)
      throw std::invalid_argument("QosTracker: negative load or capacity");
    if (seconds < 0) throw std::invalid_argument("QosTracker: negative span");
    if (seconds == 0) return;
    stats_.total_seconds += seconds;
    stats_.offered_requests += load * static_cast<double>(seconds);
    const double shortfall = load - capacity;
    if (shortfall > 0.0) {
      stats_.violation_seconds += seconds;
      stats_.unserved_requests += shortfall * static_cast<double>(seconds);
      stats_.worst_shortfall = std::max(stats_.worst_shortfall, shortfall);
    }
  }

  /// Piecewise-constant span kernel: records every run of `runs`, each
  /// against its own capacity, in one call — the varying-load counterpart
  /// of record_span for spans where the fleet is fixed but the trace is
  /// not. Accumulates locally and flushes once (this runs once per
  /// event-driven span with one entry per trace segment). Integer counters
  /// are exact; request integrals match per-second recording up to
  /// floating-point summation order.
  ///
  /// `runs` is any range whose elements expose `load`, `seconds` and `cap`
  /// members, `cap` being the run's effective serving capacity: the On
  /// capacity, or more in a degraded-mode overload, where the spill-over
  /// absorbed above rated capacity varies with each run's load. The
  /// simulator passes its fused per-segment scratch rows directly so this
  /// loop inlines into the span walk.
  template <typename Runs>
  void record_runs(const Runs& runs) {
    std::int64_t total = 0;
    std::int64_t violation = 0;
    double offered = 0.0;
    double unserved = 0.0;
    ReqRate worst = 0.0;
    for (const auto& run : runs) {
      if (run.load < 0.0 || run.cap < 0.0)
        throw std::invalid_argument("QosTracker: negative load or capacity");
      if (run.seconds < 0)
        throw std::invalid_argument("QosTracker: negative span");
      if (run.seconds == 0) continue;  // a 0 s run must not touch worst_
      total += run.seconds;
      offered += run.load * static_cast<double>(run.seconds);
      const double shortfall = run.load - run.cap;
      if (shortfall > 0.0) {
        violation += run.seconds;
        unserved += shortfall * static_cast<double>(run.seconds);
        if (shortfall > worst) worst = shortfall;
      }
    }
    stats_.total_seconds += total;
    stats_.violation_seconds += violation;
    stats_.offered_requests += offered;
    stats_.unserved_requests += unserved;
    stats_.worst_shortfall = std::max(stats_.worst_shortfall, worst);
  }

  /// Folds caller-accumulated span totals in (the fully fused counterpart
  /// of record_runs — see QosSpanTotals).
  void record_totals(const QosSpanTotals& totals) {
    stats_.total_seconds += totals.seconds;
    stats_.violation_seconds += totals.violation_seconds;
    stats_.offered_requests += totals.offered;
    stats_.unserved_requests += totals.unserved;
    stats_.worst_shortfall =
        std::max(stats_.worst_shortfall, totals.worst_shortfall);
  }

  [[nodiscard]] const QosStats& stats() const { return stats_; }

 private:
  QosStats stats_;
};

}  // namespace bml
