// Workload statistics for trace characterization.
//
// Used to compare the synthetic World-Cup-like workload against real
// traces (or any two traces): peak-to-mean ratio, burstiness (index of
// dispersion), second-to-second jitter, diurnal strength (autocorrelation
// at the 24 h lag), and day-level summaries. These are the quantities that
// determine the Fig. 5 overhead spread, and so the gap between the
// synthetic trace's overheads and the paper's on the real one.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

/// Aggregate statistics of one load trace.
struct TraceStats {
  std::size_t seconds = 0;
  std::size_t days = 0;
  ReqRate mean = 0.0;
  ReqRate peak = 0.0;
  /// Peak divided by mean (over-provisioning factor of static sizing).
  double peak_to_mean = 0.0;
  /// Index of dispersion: variance / mean of the per-second counts.
  /// 1 for a Poisson process; > 1 means burstier than Poisson.
  double index_of_dispersion = 0.0;
  /// Mean absolute second-to-second change, normalised by the mean rate.
  double normalized_jitter = 0.0;
  /// Autocorrelation of the rate at a 24 h lag, in [-1, 1]; near 1 for a
  /// strongly diurnal workload.
  double diurnal_autocorrelation = 0.0;
  /// Ratio of the quietest day's peak to the busiest day's peak — the
  /// dynamic range the reconfiguring data center must span.
  double day_peak_dynamic_range = 0.0;
};

/// Computes TraceStats; throws std::invalid_argument on an empty trace.
[[nodiscard]] TraceStats analyze_trace(const LoadTrace& trace);

/// Renders the stats as "key: value" lines for reports.
[[nodiscard]] std::string to_string(const TraceStats& stats);

}  // namespace bml
