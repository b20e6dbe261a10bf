#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace bml {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Raised-cosine bump: 0 at x=0 and x=1, 1 at x=0.5.
double raised_cosine(double x) {
  if (x <= 0.0 || x >= 1.0) return 0.0;
  return 0.5 * (1.0 - std::cos(kTwoPi * x));
}

}  // namespace

LoadTrace constant_trace(ReqRate rate, Seconds duration) {
  if (rate < 0.0) throw std::invalid_argument("constant_trace: rate < 0");
  if (duration < 0.0)
    throw std::invalid_argument("constant_trace: duration < 0");
  check_trace_seconds("constant_trace: duration", duration);
  return LoadTrace(
      std::vector<double>(static_cast<std::size_t>(duration), rate));
}

LoadTrace step_trace(const std::vector<StepSegment>& segments) {
  double seconds = 0.0;
  for (const StepSegment& s : segments) {
    if (s.rate < 0.0 || s.duration < 0.0)
      throw std::invalid_argument("step_trace: negative rate or duration");
    seconds += std::floor(s.duration);
  }
  check_trace_seconds("step_trace: the segments' duration", seconds);
  std::vector<double> rates;
  for (const StepSegment& s : segments)
    rates.insert(rates.end(), static_cast<std::size_t>(s.duration), s.rate);
  return LoadTrace(std::move(rates));
}

LoadTrace diurnal_trace(const DiurnalOptions& options, std::size_t days) {
  if (options.peak <= 0.0)
    throw std::invalid_argument("diurnal_trace: peak must be > 0");
  if (options.trough_fraction < 0.0 || options.trough_fraction > 1.0)
    throw std::invalid_argument(
        "diurnal_trace: trough_fraction must be in [0,1]");
  if (!(options.noise >= 0.0))
    throw std::invalid_argument("diurnal_trace: noise must be >= 0");
  check_trace_seconds("diurnal_trace: " + std::to_string(days) + " days",
                      static_cast<double>(days) * kSecondsPerDay);
  Rng rng(options.seed);
  std::vector<double> rates;
  rates.reserve(days * static_cast<std::size_t>(kSecondsPerDay));
  for (std::size_t d = 0; d < days; ++d) {
    for (TimePoint s = 0; s < kSecondsPerDay; ++s) {
      const double tod = static_cast<double>(s) / 3600.0;
      const double shape =
          options.trough_fraction +
          (1.0 - options.trough_fraction) * 0.5 *
              (1.0 + std::cos(kTwoPi * (tod - options.peak_hour) / 24.0));
      double rate = options.peak * shape;
      if (options.noise > 0.0)
        rate *= std::max(0.0, 1.0 + rng.normal(0.0, options.noise));
      rates.push_back(std::max(0.0, rate));
    }
  }
  return LoadTrace(std::move(rates));
}

LoadTrace flash_crowd_trace(const FlashCrowdOptions& options) {
  if (options.duration <= 0.0)
    throw std::invalid_argument("flash_crowd_trace: duration must be > 0");
  check_trace_seconds("flash_crowd_trace: duration", options.duration);
  std::vector<double> rates;
  const auto n = static_cast<std::size_t>(options.duration);
  rates.reserve(n);
  const double up_end = options.burst_start + options.ramp;
  const double hold_end = up_end + options.hold;
  const double down_end = hold_end + options.ramp;
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<double>(i);
    double burst = 0.0;
    if (t >= options.burst_start && t < up_end && options.ramp > 0.0)
      burst = (t - options.burst_start) / options.ramp;
    else if (t >= up_end && t < hold_end)
      burst = 1.0;
    else if (t >= hold_end && t < down_end && options.ramp > 0.0)
      burst = 1.0 - (t - hold_end) / options.ramp;
    rates.push_back(options.base +
                    burst * (options.burst_peak - options.base));
  }
  return LoadTrace(std::move(rates));
}

LoadTrace worldcup_like_trace(const WorldCupOptions& options) {
  if (options.days == 0)
    throw std::invalid_argument("worldcup_like_trace: days must be > 0");
  check_trace_seconds(
      "worldcup_like_trace: " + std::to_string(options.days) + " days",
      static_cast<double>(options.days) * kSecondsPerDay);
  if (options.peak <= 0.0)
    throw std::invalid_argument("worldcup_like_trace: peak must be > 0");
  if (options.tournament_end_day < options.tournament_start_day)
    throw std::invalid_argument(
        "worldcup_like_trace: tournament must end after it starts");
  if (!(options.noise >= 0.0))
    throw std::invalid_argument("worldcup_like_trace: noise must be >= 0");
  // Every burst must fit in one day, or its start offset has an empty
  // range to be drawn from. Written so that NaN fails too.
  const auto require = [](bool ok, const char* what) {
    if (!ok)
      throw std::invalid_argument(std::string("worldcup_like_trace: ") + what);
  };
  const double day = static_cast<double>(kSecondsPerDay);
  require(options.news_burst_min_amplitude <= options.news_burst_max_amplitude,
          "news_burst_min_amplitude must be <= news_burst_max_amplitude");
  require(options.news_burst_min_duration >= 0.0 &&
              options.news_burst_min_duration <=
                  options.news_burst_max_duration,
          "news burst durations must satisfy 0 <= news_burst_min_duration "
          "<= news_burst_max_duration");
  require(options.news_burst_ramp >= 0.0, "news_burst_ramp must be >= 0");
  require(options.news_burst_max_duration + 2.0 * options.news_burst_ramp +
                  1.0 <=
              day,
          "news_burst_max_duration + 2 * news_burst_ramp + 1 must fit in a "
          "day (86400 s)");
  require(options.micro_bursts_per_day >= 0.0,
          "micro_bursts_per_day must be >= 0");
  require(
      options.micro_burst_min_amplitude <= options.micro_burst_max_amplitude,
      "micro_burst_min_amplitude must be <= micro_burst_max_amplitude");
  require(options.micro_burst_min_duration >= 0.0 &&
              options.micro_burst_min_duration <=
                  options.micro_burst_max_duration,
          "micro burst durations must satisfy 0 <= micro_burst_min_duration "
          "<= micro_burst_max_duration");
  require(options.micro_burst_max_duration < day,
          "micro_burst_max_duration must be < a day (86400 s)");

  Rng rng(options.seed);

  // Per-day traffic envelope: modest pre-tournament growth, a strong ramp
  // through the group stage, the maximum around the knockout/finals, and a
  // quick decay afterwards. Mirrors the WC98 trace's published volume curve.
  std::vector<double> envelope(options.days, options.base_fraction);
  for (std::size_t d = 0; d < options.days; ++d) {
    double e;
    if (d < options.tournament_start_day) {
      const double x = static_cast<double>(d) /
                       std::max<std::size_t>(1, options.tournament_start_day);
      e = options.base_fraction + 0.12 * x * x;
    } else if (d <= options.tournament_end_day) {
      const double span = std::max<std::size_t>(
          1, options.tournament_end_day - options.tournament_start_day);
      const double x =
          static_cast<double>(d - options.tournament_start_day) / span;
      e = 0.30 + 0.70 * std::pow(x, 1.4);
    } else {
      const double after = static_cast<double>(d - options.tournament_end_day);
      e = std::max(options.base_fraction, 1.0 * std::exp(-after / 4.0));
    }
    // Mild weekly modulation (weekend uplift for a sports event site).
    const bool weekend = (d % 7 == 5) || (d % 7 == 6);
    envelope[d] = e * (weekend ? 1.05 : 1.0);
  }

  // The diurnal shape (peaking in the evening) and each match's surge
  // depend only on the second of the day: tabulate them once, kick-major
  // within each second.
  const auto per_day = static_cast<std::size_t>(kSecondsPerDay);
  const std::size_t kicks = options.match_hours.size();
  std::vector<double> diurnal(per_day);
  std::vector<double> surge(per_day * kicks);
  const double trough = options.diurnal_trough;
  const double hours = options.match_duration / 3600.0;
  for (std::size_t s = 0; s < per_day; ++s) {
    const double tod = static_cast<double>(s) / 3600.0;
    diurnal[s] = trough + (1.0 - trough) * 0.5 *
                              (1.0 + std::cos(kTwoPi * (tod - 18.0) / 24.0));
    for (std::size_t k = 0; k < kicks; ++k)
      surge[s * kicks + k] =
          raised_cosine((tod - options.match_hours[k]) / hours);
  }

  std::vector<double> rates(options.days * per_day, 0.0);
  double raw_max = 0.0;
  for (std::size_t d = 0; d < options.days; ++d) {
    const bool match_day =
        d >= options.tournament_start_day && d <= options.tournament_end_day;
    const double boost = envelope[d] * options.match_boost;
    for (std::size_t s = 0; s < per_day; ++s) {
      double value = envelope[d] * diurnal[s];
      if (match_day)
        for (std::size_t k = 0; k < kicks; ++k)
          value += boost * surge[s * kicks + k];
      rates[d * per_day + s] = value;
      raw_max = std::max(raw_max, value);
    }
  }

  // News flash crowds: trapezoidal surges at a random time of day on a
  // random subset of days, in raw (pre-normalisation) units.
  for (std::size_t d = 0; d < options.days; ++d) {
    if (!rng.chance(options.news_burst_prob_per_day)) continue;
    const double amplitude = rng.uniform(options.news_burst_min_amplitude,
                                         options.news_burst_max_amplitude);
    const double plateau = rng.uniform(options.news_burst_min_duration,
                                       options.news_burst_max_duration);
    const double ramp = options.news_burst_ramp;
    const auto start = static_cast<TimePoint>(
        rng.uniform(0.0, static_cast<double>(kSecondsPerDay) - plateau -
                             2.0 * ramp - 1.0));
    const auto day_base =
        static_cast<TimePoint>(d) * kSecondsPerDay;
    for (TimePoint s = 0;
         s < static_cast<TimePoint>(plateau + 2.0 * ramp); ++s) {
      const auto x = static_cast<double>(s);
      double factor = 1.0;
      if (x < ramp)
        factor = x / ramp;
      else if (x > ramp + plateau)
        factor = 1.0 - (x - ramp - plateau) / ramp;
      const auto idx = static_cast<std::size_t>(day_base + start + s);
      if (idx < rates.size()) rates[idx] += amplitude * factor;
    }
  }

  // Micro-bursts: short rectangular spikes at Poisson-random times.
  if (options.micro_bursts_per_day > 0.0) {
    for (std::size_t d = 0; d < options.days; ++d) {
      const auto count = rng.poisson(options.micro_bursts_per_day);
      for (std::int64_t b = 0; b < count; ++b) {
        const double amplitude =
            rng.uniform(options.micro_burst_min_amplitude,
                        options.micro_burst_max_amplitude);
        const auto duration = static_cast<TimePoint>(
            rng.uniform(options.micro_burst_min_duration,
                        options.micro_burst_max_duration));
        const auto start =
            static_cast<TimePoint>(d) * kSecondsPerDay +
            rng.uniform_int(0, kSecondsPerDay - duration - 1);
        for (TimePoint s = 0; s < duration; ++s) {
          const auto idx = static_cast<std::size_t>(start + s);
          if (idx < rates.size()) rates[idx] += amplitude;
        }
      }
    }
  }

  // Multiplicative intensity noise (slow workload wander).
  double shaped_max = 0.0;
  for (double& r : rates) {
    if (options.noise > 0.0)
      r *= std::max(0.0, 1.0 + rng.normal(0.0, options.noise));
    shaped_max = std::max(shaped_max, r);
  }
  if (shaped_max <= 0.0)
    throw std::logic_error("worldcup_like_trace: degenerate trace");

  // Pre-scale the smooth intensity to the requested peak, then (optionally)
  // draw per-second Poisson request counts around it — the granularity of
  // the real access log. A final rescale pins the realised maximum to
  // `peak` so "dimensioned for the maximum request rate" is well-defined.
  const double intensity_scale = options.peak / shaped_max;
  double realized_max = 0.0;
  for (double& r : rates) {
    r *= intensity_scale;
    if (options.poisson_arrivals)
      r = static_cast<double>(rng.poisson(r));
    realized_max = std::max(realized_max, r);
  }
  if (realized_max <= 0.0)
    throw std::logic_error("worldcup_like_trace: degenerate trace");
  const double final_scale = options.peak / realized_max;
  for (double& r : rates) r = std::max(0.0, r * final_scale);

  return LoadTrace(std::move(rates));
}

}  // namespace bml
