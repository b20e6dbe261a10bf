#include "obs/trace_export.hpp"

#include <cstddef>
#include <cstdio>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"

namespace bml {

namespace {

/// Simulated seconds -> trace microseconds (the viewer's native unit).
constexpr std::int64_t kMicrosPerSecond = 1'000'000;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Deterministic value rendering (12 significant digits, matching the
/// sweep CSV and the metrics registry).
std::string render_num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// Emits one JSON trace event per line; tracks the leading comma so the
/// array stays valid whatever subset of emitters fires.
class EventWriter {
 public:
  explicit EventWriter(std::ostringstream& os) : os_(os) {}

  std::ostringstream& next() {
    if (first_)
      first_ = false;
    else
      os_ << ",\n";
    return os_;
  }

 private:
  std::ostringstream& os_;
  bool first_ = true;
};

void emit_counter(EventWriter& w, const char* name, std::int64_t ts,
                  const std::string& args) {
  w.next() << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"ts\":" << ts
           << ",\"pid\":1,\"args\":{" << args << "}}";
}

std::string per_arch_args(const std::vector<std::string>& arch_names,
                          const std::vector<int>& counts) {
  std::string args;
  for (std::size_t a = 0; a < arch_names.size(); ++a) {
    if (a > 0) args += ',';
    args += '"' + json_escape(arch_names[a]) + "\":";
    args += std::to_string(a < counts.size() ? counts[a] : 0);
  }
  return args;
}

void emit_instant(EventWriter& w, const char* name, std::int64_t ts,
                  const std::string& detail) {
  w.next() << "{\"name\":\"" << name << "\",\"ph\":\"i\",\"ts\":" << ts
           << ",\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{\"detail\":\""
           << json_escape(detail) << "\"}}";
}

}  // namespace

std::string chrome_trace_json(const TraceRecording& recording,
                              const EventLog& events) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  EventWriter w(os);

  // Metadata names the process and the event thread in the viewer.
  w.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"bmlsim\"}}";
  w.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"args\":{\"name\":\"events\"}}";

  // Counter tracks, one multi-series counter per fleet state plus load
  // and spares. Samples are already in time order.
  for (const TimelineSample& s : recording.samples) {
    const std::int64_t ts = s.time * kMicrosPerSecond;
    emit_counter(w, "machines on", ts,
                 per_arch_args(recording.arch_names, s.on));
    emit_counter(w, "machines booting", ts,
                 per_arch_args(recording.arch_names, s.booting));
    emit_counter(w, "machines shutting down", ts,
                 per_arch_args(recording.arch_names, s.shutting_down));
    emit_counter(w, "machines failed", ts,
                 per_arch_args(recording.arch_names, s.failed));
    emit_counter(w, "load", ts,
                 "\"offered\":" + render_num(s.offered) +
                     ",\"served\":" + render_num(s.served));
    emit_counter(w, "slo spares", ts,
                 "\"machines\":" + std::to_string(s.spare_machines));
  }

  // Events. Reconfigurations pair start -> completion into duration
  // slices; everything else is an instant. Starts and completions
  // strictly alternate; a completion without an open start degrades to an
  // instant, as does a start the run ended before completing.
  bool reconfig_open = false;
  std::int64_t reconfig_ts = 0;
  std::string reconfig_target;
  for (const SimEvent& e : events.events()) {
    const std::int64_t ts = e.time * kMicrosPerSecond;
    switch (e.kind) {
      case EventKind::kReconfigurationStart:
        reconfig_open = true;
        reconfig_ts = ts;
        reconfig_target = e.detail;
        break;
      case EventKind::kReconfigurationComplete:
        if (reconfig_open) {
          // The completion detail is "<n> s", inclusive of the start
          // second; the slice spans the same interval.
          const std::int64_t dur = ts - reconfig_ts + kMicrosPerSecond;
          w.next() << "{\"name\":\"reconfiguration\",\"ph\":\"X\",\"ts\":"
                   << reconfig_ts << ",\"dur\":" << dur
                   << ",\"pid\":1,\"tid\":1,\"args\":{\"target\":\""
                   << json_escape(reconfig_target) << "\"}}";
          reconfig_open = false;
        } else {
          emit_instant(w, to_string(e.kind), ts, e.detail);
        }
        break;
      default:
        emit_instant(w, to_string(e.kind), ts, e.detail);
        break;
    }
  }
  if (reconfig_open)
    emit_instant(w, to_string(EventKind::kReconfigurationStart), reconfig_ts,
                 reconfig_target);

  os << "\n]}\n";
  return os.str();
}

void export_event_counts(const EventLog& log, MetricsRegistry& out) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::size_t n = log.count(kind);
    if (n > 0)
      out.add_counter(std::string("events.") + to_string(kind), n);
  }
  out.add_counter("events.total", log.total());
}

}  // namespace bml
