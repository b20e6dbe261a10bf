// Trace transforms: scaling, smoothing, slicing, seasonality and spikes.
//
// The scenario registry (scenario/registry.cpp) applies compose_seasonality
// and add_spikes to a generated trace (the trace.seasonal.* and
// trace.spikes.* keys); scale, smooth and slice are called from the tests
// only.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

/// Multiplies every rate by `factor` (>= 0).
[[nodiscard]] LoadTrace scale(const LoadTrace& trace, double factor);

/// Centered moving average over a window of `window` seconds (>= 1);
/// the window is truncated at the trace boundaries.
[[nodiscard]] LoadTrace smooth(const LoadTrace& trace, std::size_t window);

/// Keeps seconds [begin, end) of the trace.
[[nodiscard]] LoadTrace slice(const LoadTrace& trace, TimePoint begin,
                              TimePoint end);

/// Multiplies the trace by composed diurnal (24 h) and weekly (7 d)
/// cosine envelopes: rate(t) *= (1 + Ad*cos(2pi*(t - peak)/86400)) *
/// (1 + Aw*cos(2pi*(t - peak)/604800)) where peak = peak_hour*3600.
/// Amplitudes must lie in [0, 1] so the envelope never goes negative;
/// an amplitude of 0 disables that period. Composable on top of any
/// generator — turns a flat or noisy base trace into a seasonal one.
[[nodiscard]] LoadTrace compose_seasonality(const LoadTrace& trace,
                                            double diurnal_amplitude,
                                            double weekly_amplitude,
                                            double peak_hour);

/// Superimposes heavy-tailed load spikes: spike starts are spaced by
/// exponential gaps with mean `interarrival` seconds (> 0), each spike's
/// height is Pareto-distributed — `magnitude * (1-u)^(-1/alpha)` req/s,
/// capped at 100x magnitude — and decays linearly to zero over
/// `duration` seconds (>= 1). Deterministic in `seed`.
[[nodiscard]] LoadTrace add_spikes(const LoadTrace& trace,
                                   double interarrival, double magnitude,
                                   double alpha, std::size_t duration,
                                   std::uint64_t seed);

}  // namespace bml
