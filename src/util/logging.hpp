// Minimal leveled logger.
//
// The simulator and schedulers log reconfiguration decisions at kDebug;
// experiment runners log progress at kInfo. Logging defaults to kWarn so
// that test output stays clean; benches raise it explicitly.
//
// A line below the threshold costs nothing beyond the level check: its
// LogLine builds no stream and formats none of its operands. Operands
// that are expensive to compute before `<<` sees them (a to_string of a
// combination, say) belong behind `if (log_enabled(level))` at the call
// site — the simulator's per-decision lines are.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace bml {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold. Not thread-safe by design: it is set once at
/// program start by tests/benches before any parallel section.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// True when a line at `level` would be printed: `level` is at or above
/// the threshold and is not kOff.
[[nodiscard]] bool log_enabled(LogLevel level);

/// Emits `message` to stderr when `level` passes the threshold.
void log_message(LogLevel level, const std::string& message);

namespace detail {

/// Builds the message lazily; operator<< chains then emits on destruction.
/// A line whose level does not pass holds no stream, and its operator<<
/// formats nothing.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (log_enabled(level)) stream_.emplace();
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (stream_) log_message(level_, stream_->str());
  }

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> stream_;
};

}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine log_error() { return detail::LogLine(LogLevel::kError); }

}  // namespace bml
