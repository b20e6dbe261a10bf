// Synthetic load generators.
//
// The 1998 World Cup access trace the paper replays (days 6-92) is not
// redistributable, so `worldcup_like_trace` synthesises a workload with the
// same structure: ~3 months at 1 Hz, strong diurnal cycles, a tournament
// envelope that grows towards the finals, match-time flash crowds, and
// request-level noise. The evaluation only depends on this *shape* (peak /
// trough ratio, daily variability, growth trend).
//
// Additional generators cover tests and examples: constant, step, diurnal,
// and flash-crowd workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

/// Constant-rate trace.
[[nodiscard]] LoadTrace constant_trace(ReqRate rate, Seconds duration);

/// Piecewise-constant trace: each (rate, duration) segment in order.
struct StepSegment {
  ReqRate rate = 0.0;
  Seconds duration = 0.0;
};
[[nodiscard]] LoadTrace step_trace(const std::vector<StepSegment>& segments);

/// Options for the daily sinusoidal pattern shared by the generators.
struct DiurnalOptions {
  /// Peak rate of the cycle (req/s).
  ReqRate peak = 1000.0;
  /// Trough as a fraction of peak, in [0, 1].
  double trough_fraction = 0.25;
  /// Hour of day (0-24) when the load peaks.
  double peak_hour = 18.0;
  /// Multiplicative Gaussian noise stddev (0 = deterministic).
  double noise = 0.02;
  std::uint64_t seed = 1;
};

/// `days` days of a diurnal cycle.
[[nodiscard]] LoadTrace diurnal_trace(const DiurnalOptions& options,
                                      std::size_t days);

/// A flash crowd: `base` rate with one burst of `burst_peak` req/s starting
/// at `burst_start`, ramping up over `ramp`, holding `hold`, decaying over
/// `ramp`. Total length `duration`.
struct FlashCrowdOptions {
  ReqRate base = 50.0;
  ReqRate burst_peak = 2000.0;
  Seconds duration = 3600.0;
  Seconds burst_start = 1200.0;
  Seconds ramp = 120.0;
  Seconds hold = 600.0;
};
[[nodiscard]] LoadTrace flash_crowd_trace(const FlashCrowdOptions& options);

/// Options for the World-Cup-like synthetic trace.
struct WorldCupOptions {
  /// Number of days (the paper replays 87: days 6 to 92).
  std::size_t days = 87;
  /// Peak rate of the whole trace. The default needs 4 Big (Paravance)
  /// machines, matching the paper's over-provisioned upper bound.
  ReqRate peak = 5200.0;
  /// Pre-tournament base traffic as a fraction of peak. The real WC98
  /// trace starts nearly idle relative to the finals' flood.
  double base_fraction = 0.004;
  /// 0-based day the tournament starts / ends within the trace window
  /// (the 1998 tournament spans roughly days 40-72 of the replayed range).
  std::size_t tournament_start_day = 40;
  std::size_t tournament_end_day = 72;
  /// Overnight trough as a fraction of the day's envelope. The 1998
  /// audience was regionally concentrated, giving strong (~10x) day/night
  /// swings.
  double diurnal_trough = 0.10;
  /// Local hours at which matches kick off on tournament days.
  std::vector<double> match_hours = {14.5, 17.5, 21.0};
  /// Match surge amplitude as a fraction of the day's envelope.
  double match_boost = 0.9;
  /// Match surge duration (s): ~2h of match plus buildup/teardown.
  Seconds match_duration = 2.0 * 3600.0;
  /// Probability that any given day carries a "news" flash crowd — a sharp
  /// surge unrelated to the diurnal cycle (injury news, draw announcements,
  /// ...). These bursts dominate the worst-case daily overhead of the
  /// pro-active scheduler: on a quiet day one burst forces a Big boot that
  /// the per-second lower bound never pays for.
  double news_burst_prob_per_day = 0.30;
  /// Burst amplitude range in pre-normalisation units (the tournament peak
  /// is ~1.9 units), i.e. roughly 5-25 % of the final peak rate.
  double news_burst_min_amplitude = 0.10;
  double news_burst_max_amplitude = 0.50;
  /// Burst plateau duration range (s) and ramp time (s).
  Seconds news_burst_min_duration = 600.0;
  Seconds news_burst_max_duration = 2400.0;
  Seconds news_burst_ramp = 120.0;
  /// Short micro-bursts (crawler sweeps, referral spikes): mean count per
  /// day, absolute amplitude range in raw units (0.002-0.02 of the
  /// tournament scale ~ 10-100 req/s) and duration range (s). Invisible on
  /// busy days; on quiet days they keep the look-ahead maximum well above
  /// the instantaneous load — the regime behind the paper's worst-day
  /// overhead.
  double micro_bursts_per_day = 30.0;
  double micro_burst_min_amplitude = 0.002;
  double micro_burst_max_amplitude = 0.05;
  Seconds micro_burst_min_duration = 30.0;
  Seconds micro_burst_max_duration = 300.0;
  /// Multiplicative Gaussian noise stddev applied to the smooth intensity
  /// (slow workload wander).
  double noise = 0.06;
  /// Emit integer per-second request counts drawn from a Poisson process
  /// around the smooth intensity — the statistical character of the real
  /// WC98 access log. Gives quiet periods the high *relative* variance
  /// that makes window-max prediction expensive (the effect behind the
  /// paper's per-day overhead spread). Disable for a smooth rate curve.
  bool poisson_arrivals = true;
  std::uint64_t seed = 1998;
};

/// Synthesises the World-Cup-like trace; see file comment.
[[nodiscard]] LoadTrace worldcup_like_trace(const WorldCupOptions& options);

}  // namespace bml
