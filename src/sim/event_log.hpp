// Structured simulation event log.
//
// When enabled, the simulator records the decisions and state changes a
// data center operator would audit: reconfiguration start/completion,
// machine transitions, QoS violations. The log keeps every event in
// order, with per-kind counters, and exports to CSV for offline analysis.
// Only observed runs (obs.trace) write it, and their trace shows the
// whole run: its event count is events.total.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "util/units.hpp"

namespace bml {

enum class EventKind {
  kReconfigurationStart,
  kReconfigurationComplete,
  kBootComplete,
  kShutdownComplete,
  kQosViolation,
  kMachineFailure,
  kMachineRepair,
  kGroupStrike,
  kSpareProvision,
  kSpareRelease,
  kPreemption,
  kOverloadEnter,
  kOverloadExit,
  kAppArrival,
  kAppDeparture,  // the last kind: kEventKindCount counts up to it
};

/// Number of EventKinds; every per-kind table and loop is sized by it.
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kAppDeparture) + 1;

[[nodiscard]] const char* to_string(EventKind kind);

/// One logged event. `detail` is event-specific:
///   reconfiguration start    — target combination rendering
///   reconfiguration complete — seconds it took
///   boot complete            — "<n> transitions": the boots and shutdowns
///                              that completed that second (shutdown
///                              complete is never recorded; the batch
///                              counts them)
///   QoS violation            — shortfall in req/s
///   machine failure / repair — architecture name
///   group strike             — machines felled by the rack-level strike
///   spare provision/release  — the SLO app's name
///   preemption               — machines taken and the victim app's name
///   overload enter/exit      — spill-over above rated capacity in req/s
///   app arrival/departure    — the tenant's name
struct SimEvent {
  TimePoint time = 0;
  EventKind kind = EventKind::kReconfigurationStart;
  std::string detail;
};

/// Event recorder.
class EventLog {
 public:
  void record(TimePoint time, EventKind kind, std::string detail);

  /// Every recorded event, oldest first.
  [[nodiscard]] const std::vector<SimEvent>& events() const {
    return events_;
  }

  /// Total events recorded per kind.
  [[nodiscard]] std::size_t count(EventKind kind) const;
  [[nodiscard]] std::size_t total() const { return events_.size(); }

  /// "time,kind,detail" CSV of the events.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<SimEvent> events_;
  std::array<std::size_t, kEventKindCount> counts_{};
};

}  // namespace bml
