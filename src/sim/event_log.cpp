#include "sim/event_log.hpp"

#include <sstream>
#include <stdexcept>

namespace bml {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kReconfigurationStart: return "reconfiguration-start";
    case EventKind::kReconfigurationComplete:
      return "reconfiguration-complete";
    case EventKind::kBootComplete: return "boot-complete";
    case EventKind::kShutdownComplete: return "shutdown-complete";
    case EventKind::kQosViolation: return "qos-violation";
    case EventKind::kMachineFailure: return "machine-failure";
    case EventKind::kMachineRepair: return "machine-repair";
    case EventKind::kGroupStrike: return "group-strike";
    case EventKind::kSpareProvision: return "spare-provision";
    case EventKind::kSpareRelease: return "spare-release";
    case EventKind::kPreemption: return "preemption";
    case EventKind::kOverloadEnter: return "overload-enter";
    case EventKind::kOverloadExit: return "overload-exit";
    case EventKind::kAppArrival: return "app-arrival";
    case EventKind::kAppDeparture: return "app-departure";
  }
  throw std::logic_error("to_string(EventKind): invalid kind");
}

void EventLog::record(TimePoint time, EventKind kind, std::string detail) {
  ++counts_[static_cast<std::size_t>(kind)];
  events_.push_back(SimEvent{time, kind, std::move(detail)});
}

std::size_t EventLog::count(EventKind kind) const {
  return counts_[static_cast<std::size_t>(kind)];
}

std::string EventLog::to_csv() const {
  std::ostringstream os;
  os << "time,kind,detail\n";
  for (const SimEvent& e : events_)
    os << e.time << ',' << to_string(e.kind) << ',' << e.detail << '\n';
  return os.str();
}

}  // namespace bml
