// Units and unit helpers used across the BML library.
//
// The library manipulates three physical dimensions plus one application
// dimension (the paper's "application metric"):
//   * power        — Watts
//   * energy       — Joules
//   * time         — seconds (the simulator is a 1 Hz discrete-time engine)
//   * performance  — requests per second (req/s) for the web-server use case
//
// We deliberately use documented aliases over `double` rather than wrapper
// types: every public signature names its unit, and the conversion helpers
// below keep magic constants out of call sites.
#pragma once

#include <cstdint>

namespace bml {

/// Power in Watts.
using Watts = double;
/// Energy in Joules (1 J = 1 W * 1 s).
using Joules = double;
/// Durations and timestamps in seconds.
using Seconds = double;
/// Application performance rate (the paper's application metric);
/// requests per second for the stateless web server.
using ReqRate = double;

/// Integer simulation timestamp, seconds since trace start.
using TimePoint = std::int64_t;

/// Joules -> kilowatt-hours (the usual unit for daily data center energy).
constexpr double joules_to_kwh(Joules j) { return j / 3.6e6; }

/// Seconds in one day; the World Cup evaluation aggregates per day.
inline constexpr TimePoint kSecondsPerDay = 86'400;

/// Relative difference (a - b) / b expressed in percent, as used by the
/// paper when reporting BML overhead against the theoretical lower bound.
constexpr double percent_over(double a, double b) {
  return (a - b) / b * 100.0;
}

}  // namespace bml
