#include "util/logging.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace bml {

namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  throw std::logic_error("level_name(LogLevel): invalid level");
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }

LogLevel log_level() { return g_level; }

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(g_level) &&
         level != LogLevel::kOff;
}

void log_message(LogLevel level, const std::string& message) {
  if (!log_enabled(level)) return;
  // One fwrite per line: parallel sweep workers logging concurrently can't
  // interleave fragments of each other's messages.
  std::string line;
  line.reserve(message.size() + 16);
  line += "[bml ";
  line += level_name(level);
  line += "] ";
  line += message;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace bml
