// Timeline export: a run rendered as Chrome trace-event JSON.
//
// The paper argues with time-series figures — machines-on per arch,
// power, served load over a WC98 day. A traced run captures exactly that:
// TraceRecording holds the sampled counter tracks and the run's EventLog
// the structured event stream, and chrome_trace_json() renders both in
// the Chrome trace-event format, so `bmlsim run --trace-out run.json`
// produces a file that loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing:
//
//   * counter tracks ("C" events): machines per state per architecture,
//     offered vs served load, provisioned SLO spare machines;
//   * duration slices ("X" events): each reconfiguration from its start
//     to its completion;
//   * instant events ("i"): every other event — completed transition
//     batches, machine failures/repairs, rack strikes, QoS violations,
//     overload entry/exit, preemptions, tenant arrivals/departures, spare
//     provision/release.
//
// Simulated seconds map to trace microseconds (1 s -> 1e6 "us"), so the
// viewer's time axis reads directly in simulated time. The rendering is
// byte-deterministic: fixed field order, integer timestamps, fixed-
// precision values — the golden test in tests/test_obs.cpp pins it.
//
// Recording (SimulatorOptions::record_timeline) is a pure read of the
// run: either execution strategy records the same timeline, and the
// run's results are bit-identical with recording on or off.
#pragma once

#include <string>
#include <vector>

#include "sim/event_log.hpp"
#include "util/units.hpp"

namespace bml {

class MetricsRegistry;

/// One sampled instant of the fleet + load state. The per-arch vectors
/// are parallel to TraceRecording::arch_names.
struct TimelineSample {
  TimePoint time = 0;
  std::vector<int> on;
  std::vector<int> booting;
  std::vector<int> shutting_down;
  std::vector<int> failed;
  ReqRate offered = 0.0;
  ReqRate served = 0.0;
  /// Machines currently provisioned as SLO spares (all apps).
  int spare_machines = 0;
};

/// A run's sampled counters. Filled by the simulator when
/// SimulatorOptions::record_timeline is set; the run's events stay in its
/// EventLog (SimulationResult::events).
struct TraceRecording {
  bool enabled = false;
  /// Seconds between counter samples.
  TimePoint sample_every = 60;
  std::vector<std::string> arch_names;
  std::vector<TimelineSample> samples;
};

/// Renders `recording` and the run's `events` as Chrome trace-event JSON
/// (Perfetto / chrome://tracing compatible). Deterministic byte-for-byte
/// for a given run.
[[nodiscard]] std::string chrome_trace_json(const TraceRecording& recording,
                                            const EventLog& events);

/// Exports an event log's monotone per-kind counters into `out` as
/// "events.<kind>" counters plus "events.total".
void export_event_counts(const EventLog& log, MetricsRegistry& out);

}  // namespace bml
