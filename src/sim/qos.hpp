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

/// Aggregated totals of a run of sub-runs, accumulated from zero by a
/// caller that fused the per-run QoS arithmetic into its own segment walk
/// (the event-driven simulator's cluster-wide totals) and folded in with
/// QosTracker::record_totals.
struct QosSpanTotals {
  std::int64_t seconds = 0;
  std::int64_t violation_seconds = 0;
  double offered = 0.0;
  double unserved = 0.0;
  ReqRate worst_shortfall = 0.0;

  /// Adds a run of `len` seconds (>= 1) with `load` offered against
  /// `capacity`.
  void add(ReqRate load, ReqRate capacity, std::int64_t len) {
    const auto run_seconds = static_cast<double>(len);
    seconds += len;
    offered += load * run_seconds;
    if (load > capacity) {
      const double shortfall = load - capacity;
      violation_seconds += len;
      unserved += shortfall * run_seconds;
      if (shortfall > worst_shortfall) worst_shortfall = shortfall;
    }
  }
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
  /// summation order on the request integrals).
  void record_span(ReqRate load, ReqRate capacity, std::int64_t seconds) {
    if (load < 0.0 || capacity < 0.0)
      throw std::invalid_argument("QosTracker: negative load or capacity");
    if (seconds < 0) throw std::invalid_argument("QosTracker: negative span");
    if (seconds == 0) return;  // an empty run must not touch the worst
    stats_.total_seconds += seconds;
    accumulate(stats_, load, capacity, seconds);
  }

  /// The tracker's stats held open across a sequence of record_span calls:
  /// the constructor copies them out, record() performs record_span's
  /// arithmetic on the copy but for the seconds count, and close(seconds)
  /// adds the runs' seconds at once and writes the copy back, so the stats
  /// are bit-identical to calling record_span for each run. record()
  /// checks nothing: its caller passes validated, non-negative values and
  /// runs of at least one second. The event-driven simulator keeps one
  /// open per active app across a span's sub-runs. The tracker must not be
  /// touched between opening and close().
  class OpenSpan {
   public:
    explicit OpenSpan(QosTracker& tracker)
        : tracker_(&tracker), stats_(tracker.stats_) {}
    void record(ReqRate load, ReqRate capacity, std::int64_t seconds) {
      accumulate(stats_, load, capacity, seconds);
    }
    /// `seconds`: the sum of the recorded runs' seconds.
    void close(std::int64_t seconds) {
      stats_.total_seconds += seconds;
      tracker_->stats_ = stats_;
    }

   private:
    QosTracker* tracker_;
    QosStats stats_;
  };

  /// Folds caller-accumulated totals in (see QosSpanTotals).
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
  /// record_span's arithmetic on `stats` for a non-empty run, unchecked,
  /// but for the seconds count.
  static void accumulate(QosStats& stats, ReqRate load, ReqRate capacity,
                         std::int64_t seconds) {
    stats.offered_requests += load * static_cast<double>(seconds);
    const double shortfall = load - capacity;
    if (shortfall > 0.0) {
      stats.violation_seconds += seconds;
      stats.unserved_requests += shortfall * static_cast<double>(seconds);
      stats.worst_shortfall = std::max(stats.worst_shortfall, shortfall);
    }
  }

  QosStats stats_;
};

}  // namespace bml
