// Energy accounting: integrate a power signal over time.
//
// The per-second simulator feeds one power sample per simulated second;
// the event-driven one integrates constant-power runs in closed form
// (add_span, an OpenSpan held across a span's sub-runs, or a span it
// integrated itself, add_integrated_span). EnergyMeter accumulates Joules
// and keeps per-day totals for the Fig. 5 report. Separate channels let
// callers split compute energy from reconfiguration (On/Off) energy, as
// the paper does ("total consumption per day contains the energy consumed
// by computation and by On/Off reconfigurations").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// Accumulates energy from fixed-step power samples on named channels.
class EnergyMeter {
 public:
  /// `step` is the sampling interval of add_sample (1 s in the simulator).
  explicit EnergyMeter(Seconds step = 1.0);

  /// Integrates one power sample on the compute channel.
  void add_compute_sample(Watts power);

  /// Adds a lump of reconfiguration energy (an On or Off action's Joules),
  /// attributed to the current day.
  void add_reconfiguration_energy(Joules energy);

  /// Advances the internal clock by one sample period. Call once per
  /// simulated second, after the samples for that second were added.
  void tick();

  /// Batch equivalent of `seconds` iterations of
  /// { add_compute_sample(compute); add_reconfiguration_energy(transition *
  /// step); tick(); }: integrates constant power over a span, splitting the
  /// energy across day buckets in closed form. Totals match the per-second
  /// calls up to floating-point summation order.
  void add_span(Watts compute, Watts transition, std::size_t seconds) {
    if (compute < 0.0)
      throw std::invalid_argument("EnergyMeter: negative power sample");
    if (transition < 0.0)
      throw std::invalid_argument(
          "EnergyMeter: negative reconfiguration energy");
    while (seconds > 0) {
      const std::size_t day = refresh_day();
      const std::size_t chunk = std::min(seconds, day_end_tick_ - ticks_);
      const Joules compute_e = compute * step_ * static_cast<double>(chunk);
      const Joules transition_e =
          transition * step_ * static_cast<double>(chunk);
      compute_energy_ += compute_e;
      day_compute_[day] += compute_e;
      reconf_energy_ += transition_e;
      day_reconf_[day] += transition_e;
      ticks_ += chunk;
      seconds -= chunk;
    }
  }

  /// The meter held open across a sequence of add_span calls that share
  /// one `transition` power: the constructor copies the totals, the tick
  /// and the current day's buckets out, add() performs add_span's
  /// arithmetic on the copies, and close() writes them back, so the meter
  /// is bit-identical to calling add_span for each run. A run that
  /// reaches past the current day goes through add_span itself (closing
  /// and reopening around it). When a whole sequence of runs fits the
  /// open day (fits(its seconds)), its runs can skip the day-window check
  /// and count (kInDay = true), and take_day() takes their seconds at
  /// once. The constructor checks `transition`; add() checks nothing, as
  /// its caller passes validated, non-negative powers. The event-driven
  /// simulator keeps one open per active app across a span's sub-runs.
  /// The meter must not be touched between opening and close().
  class OpenSpan {
   public:
    OpenSpan(EnergyMeter& meter, Watts transition)
        : meter_(&meter),
          transition_(transition),
          step_(meter.step_),
          transition_step_(transition * meter.step_) {
      if (transition < 0.0)
        throw std::invalid_argument(
            "EnergyMeter: negative reconfiguration energy");
      load();
    }

    /// add_span(compute, transition, seconds) for `seconds` >= 0.
    /// kInDay: the run is part of a sequence that fits() the open day,
    /// whose seconds take_day() takes.
    template <bool kInDay = false>
    void add(Watts compute, std::int64_t seconds) {
      if (!enter_day<kInDay>(compute, seconds)) return;
      add_in_day(compute, seconds);
      const Joules transition_e =
          transition_step_ * static_cast<double>(seconds);
      reconf_ += transition_e;
      day_reconf_ += transition_e;
    }

    /// add() for a meter opened with no transition power, whose
    /// reconfiguration adds would each add +0.0 to a non-negative sum and
    /// so leave its bits as they are: the compute channel only.
    template <bool kInDay = false>
    void add_compute(Watts compute, std::int64_t seconds) {
      assert(transition_ == 0.0);
      if (!enter_day<kInDay>(compute, seconds)) return;
      add_in_day(compute, seconds);
    }

    /// Whether `seconds` more fit the open day bucket.
    [[nodiscard]] bool fits(std::int64_t seconds) const {
      return seconds <= day_left_;
    }

    /// Takes `seconds` of the open day at once: the seconds of a sequence
    /// of runs that fit() it and were added with kInDay.
    void take_day(std::int64_t seconds) { day_left_ -= seconds; }

    /// The transition power the span was opened with.
    Watts transition() const { return transition_; }

    void close() const {
      // Inside the day window the tick is where the seconds left end.
      meter_->ticks_ =
          in_day_ ? meter_->day_end_tick_ - static_cast<std::size_t>(day_left_)
                  : ticks_;
      meter_->compute_energy_ = compute_;
      meter_->reconf_energy_ = reconf_;
      if (in_day_) {
        meter_->day_compute_[day_] = day_compute_;
        meter_->day_reconf_[day_] = day_reconf_;
      }
    }

   private:
    /// Takes a run's seconds of the open day, or adds a run that reaches
    /// past it through add_span and returns false. With kInDay the caller
    /// takes the seconds (take_day) and the run fits.
    template <bool kInDay>
    bool enter_day(Watts compute, std::int64_t seconds) {
      if constexpr (!kInDay) {
        if (seconds > day_left_) {
          add_across_days(compute, seconds);
          return false;
        }
        day_left_ -= seconds;
      }
      return true;
    }

    void add_in_day(Watts compute, std::int64_t seconds) {
      const Joules compute_e = compute * step_ * static_cast<double>(seconds);
      compute_ += compute_e;
      day_compute_ += compute_e;
    }

    /// A run past the open day bucket goes through add_span itself.
    void add_across_days(Watts compute, std::int64_t seconds) {
      close();
      meter_->add_span(compute, transition_, static_cast<std::size_t>(seconds));
      load();
    }

    /// Copies the meter out. Outside the cached day window (a fresh meter,
    /// or a tick at the day's end) no bucket is open and day_left_ is 0,
    /// so the next non-empty add() takes add_span's path.
    void load() {
      ticks_ = meter_->ticks_;
      compute_ = meter_->compute_energy_;
      reconf_ = meter_->reconf_energy_;
      in_day_ = ticks_ < meter_->day_end_tick_;
      day_left_ = in_day_ ? static_cast<std::int64_t>(meter_->day_end_tick_ -
                                                      ticks_)
                          : 0;
      day_ = meter_->current_day_;
      day_compute_ = in_day_ ? meter_->day_compute_[day_] : 0.0;
      day_reconf_ = in_day_ ? meter_->day_reconf_[day_] : 0.0;
    }

    EnergyMeter* meter_;
    Watts transition_;
    Seconds step_;
    Joules transition_step_;  // transition * step, as add_span forms it
    std::size_t ticks_ = 0;     // at load
    std::int64_t day_left_ = 0;  // seconds to the end of the open bucket
    std::size_t day_ = 0;
    bool in_day_ = false;
    Joules compute_ = 0.0;
    Joules reconf_ = 0.0;
    Joules day_compute_ = 0.0;
    Joules day_reconf_ = 0.0;
  };

  /// Adds a span whose compute energy the caller already integrated
  /// (`compute_energy` = sum of power_i * step * seconds_i over the span's
  /// runs) with constant `transition` power over `seconds`. The span must
  /// lie within the current day — the event-driven simulator clamps spans
  /// at day boundaries — because an integrated energy cannot be attributed
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
    const Joules transition_e =
        transition * step_ * static_cast<double>(seconds);
    compute_energy_ += compute_energy;
    day_compute_[day] += compute_energy;
    reconf_energy_ += transition_e;
    day_reconf_[day] += transition_e;
    ticks_ += seconds;
  }

  [[nodiscard]] Joules total_energy() const {
    return compute_energy_ + reconf_energy_;
  }
  [[nodiscard]] Joules compute_energy() const { return compute_energy_; }
  [[nodiscard]] Joules reconfiguration_energy() const {
    return reconf_energy_;
  }

  /// Elapsed integrated time in seconds.
  [[nodiscard]] Seconds elapsed() const {
    return step_ * static_cast<double>(ticks_);
  }

  /// Per-day total (compute + reconfiguration) energy; the current,
  /// possibly partial, day is included as the last element.
  [[nodiscard]] std::vector<Joules> per_day_total() const;
  [[nodiscard]] const std::vector<Joules>& per_day_compute() const {
    return day_compute_;
  }
  [[nodiscard]] const std::vector<Joules>& per_day_reconfiguration() const {
    return day_reconf_;
  }

 private:
  /// Grows the day buckets to cover the current tick and returns the day
  /// index. The day window [.., day_end_tick_) is cached, so the common
  /// within-day call is one compare. (Whenever ticks_ < day_end_tick_, a
  /// previous slow refresh already sized the buckets for current_day_, so
  /// the fast path — and OpenSpan's load — can skip the grow loop too.)
  std::size_t refresh_day() {
    if (ticks_ < day_end_tick_) return current_day_;
    return refresh_day_slow();
  }
  std::size_t refresh_day_slow();

  Seconds step_;
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
