#include "trace/transforms.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace bml {

namespace {

std::vector<double> copy_rates(const LoadTrace& trace) {
  const auto span = trace.series().values();
  return std::vector<double>(span.begin(), span.end());
}

}  // namespace

LoadTrace scale(const LoadTrace& trace, double factor) {
  if (factor < 0.0) throw std::invalid_argument("scale: factor must be >= 0");
  auto rates = copy_rates(trace);
  for (double& r : rates) r *= factor;
  return LoadTrace(std::move(rates));
}

LoadTrace smooth(const LoadTrace& trace, std::size_t window) {
  if (window == 0) throw std::invalid_argument("smooth: window must be >= 1");
  const auto rates = copy_rates(trace);
  const std::size_t n = rates.size();
  // Prefix sums make each window average O(1).
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + rates[i];
  std::vector<double> out(n, 0.0);
  const std::size_t half = window / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t begin = i >= half ? i - half : 0;
    const std::size_t end = std::min(n, i + window - half);
    out[i] = (prefix[end] - prefix[begin]) / static_cast<double>(end - begin);
  }
  return LoadTrace(std::move(out));
}

LoadTrace slice(const LoadTrace& trace, TimePoint begin, TimePoint end) {
  if (begin < 0 || end < begin)
    throw std::invalid_argument("slice: need 0 <= begin <= end");
  const auto rates = copy_rates(trace);
  const auto b = std::min<std::size_t>(static_cast<std::size_t>(begin),
                                       rates.size());
  const auto e =
      std::min<std::size_t>(static_cast<std::size_t>(end), rates.size());
  return LoadTrace(std::vector<double>(rates.begin() + static_cast<std::ptrdiff_t>(b),
                                       rates.begin() + static_cast<std::ptrdiff_t>(e)));
}

LoadTrace compose_seasonality(const LoadTrace& trace,
                              double diurnal_amplitude,
                              double weekly_amplitude, double peak_hour) {
  if (diurnal_amplitude < 0.0 || diurnal_amplitude > 1.0)
    throw std::invalid_argument(
        "compose_seasonality: diurnal amplitude must be in [0, 1]");
  if (weekly_amplitude < 0.0 || weekly_amplitude > 1.0)
    throw std::invalid_argument(
        "compose_seasonality: weekly amplitude must be in [0, 1]");
  constexpr double kDay = 86400.0;
  constexpr double kWeek = 604800.0;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double peak = peak_hour * 3600.0;
  auto rates = copy_rates(trace);
  for (std::size_t t = 0; t < rates.size(); ++t) {
    const double phase = static_cast<double>(t) - peak;
    double envelope = 1.0;
    if (diurnal_amplitude > 0.0)
      envelope *= 1.0 + diurnal_amplitude * std::cos(kTwoPi * phase / kDay);
    if (weekly_amplitude > 0.0)
      envelope *= 1.0 + weekly_amplitude * std::cos(kTwoPi * phase / kWeek);
    rates[t] *= envelope;
  }
  return LoadTrace(std::move(rates));
}

LoadTrace add_spikes(const LoadTrace& trace, double interarrival,
                     double magnitude, double alpha, std::size_t duration,
                     std::uint64_t seed) {
  if (interarrival <= 0.0)
    throw std::invalid_argument("add_spikes: interarrival must be > 0");
  if (magnitude < 0.0)
    throw std::invalid_argument("add_spikes: magnitude must be >= 0");
  if (alpha <= 0.0)
    throw std::invalid_argument("add_spikes: alpha must be > 0");
  if (duration == 0)
    throw std::invalid_argument("add_spikes: duration must be >= 1");
  auto rates = copy_rates(trace);
  Rng rng(seed);
  double at = 0.0;
  while (true) {
    // Exponential gap with a 1 s floor, mirroring the fault timeline.
    const double u = rng.uniform(0.0, 1.0);
    at += std::max(1.0, -interarrival * std::log(1.0 - u));
    if (at >= static_cast<double>(rates.size())) break;
    // Pareto(alpha) height scaled by `magnitude`; the cap keeps a single
    // extreme draw from dwarfing the rest of the trace.
    const double v = rng.uniform(0.0, 1.0);
    const double height =
        std::min(magnitude * std::pow(1.0 - v, -1.0 / alpha),
                 100.0 * magnitude);
    const auto start = static_cast<std::size_t>(at);
    for (std::size_t k = 0; k < duration && start + k < rates.size(); ++k)
      rates[start + k] += height * (1.0 - static_cast<double>(k) /
                                              static_cast<double>(duration));
  }
  return LoadTrace(std::move(rates));
}

}  // namespace bml
