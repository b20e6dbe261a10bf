// Energy accounting: the cluster's compute and reconfiguration energy, in
// total and per day.
//
// The simulator steps 1 s at a time: the per-second loop feeds one power
// sample per simulated second, and the event-driven one adds each span it
// integrated itself (add_integrated_span; its spans end at day
// boundaries). EnergyMeter accumulates Joules and keeps per-day totals for
// the Fig. 5 report. Separate channels split compute energy from
// reconfiguration (On/Off) energy, as the paper does ("total consumption
// per day contains the energy consumed by computation and by On/Off
// reconfigurations").
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// Accumulates energy from 1 s power samples on two channels, per day.
class EnergyMeter {
 public:
  /// Integrates one second of `power` on the compute channel.
  void add_compute_sample(Watts power);

  /// Adds a lump of reconfiguration energy (an On or Off action's Joules),
  /// attributed to the current day.
  void add_reconfiguration_energy(Joules energy);

  /// Advances the internal clock by one second. Call once per simulated
  /// second, after the samples for that second were added.
  void tick();

  /// Adds a span whose compute energy the caller already integrated
  /// (`compute_energy` = sum of power_i * seconds_i over the span's runs)
  /// with constant `transition` power over `seconds`. The span must lie
  /// within the current day — the event-driven simulator clamps spans at
  /// day boundaries — because an integrated energy cannot be attributed
  /// across days; throws std::logic_error otherwise.
  void add_integrated_span(Joules compute_energy, Watts transition,
                           std::size_t seconds) {
    if (compute_energy < 0.0)
      throw std::invalid_argument("EnergyMeter: negative power sample");
    if (transition < 0.0)
      throw std::invalid_argument(
          "EnergyMeter: negative reconfiguration energy");
    if (seconds == 0) return;
    const std::size_t day = refresh_day();
    if (seconds > day_end_tick_ - ticks_)
      throw std::logic_error(
          "EnergyMeter: integrated span crosses a day boundary");
    const Joules transition_e = transition * static_cast<double>(seconds);
    compute_energy_ += compute_energy;
    day_compute_[day] += compute_energy;
    reconf_energy_ += transition_e;
    day_reconf_[day] += transition_e;
    ticks_ += seconds;
  }

  [[nodiscard]] Joules compute_energy() const { return compute_energy_; }
  [[nodiscard]] Joules reconfiguration_energy() const {
    return reconf_energy_;
  }

  /// Per-day energies; the current, possibly partial, day is included as
  /// the last element.
  [[nodiscard]] const std::vector<Joules>& per_day_compute() const {
    return day_compute_;
  }
  [[nodiscard]] const std::vector<Joules>& per_day_reconfiguration() const {
    return day_reconf_;
  }

 private:
  /// Grows the day buckets to cover the current tick and returns the day
  /// index. The day window [.., day_end_tick_) is cached, so the common
  /// within-day call is one compare.
  std::size_t refresh_day() {
    if (ticks_ < day_end_tick_) return current_day_;
    return refresh_day_slow();
  }
  std::size_t refresh_day_slow();

  std::size_t ticks_ = 0;
  Joules compute_energy_ = 0.0;
  Joules reconf_energy_ = 0.0;
  // Cached day window: while ticks_ < day_end_tick_, the current tick
  // belongs to day current_day_ (invariant maintained by refresh_day).
  std::size_t current_day_ = 0;
  std::size_t day_end_tick_ = 0;
  std::vector<Joules> day_compute_;
  std::vector<Joules> day_reconf_;
};

}  // namespace bml
