#include "power/energy_meter.hpp"

#include <stdexcept>

namespace bml {

namespace {
constexpr auto kDayTicks = static_cast<std::size_t>(kSecondsPerDay);
}  // namespace

std::size_t EnergyMeter::refresh_day_slow() {
  if (ticks_ >= day_end_tick_) {
    current_day_ = ticks_ / kDayTicks;
    day_end_tick_ = (current_day_ + 1) * kDayTicks;
  }
  while (day_compute_.size() <= current_day_) {
    day_compute_.push_back(0.0);
    day_reconf_.push_back(0.0);
  }
  return current_day_;
}

void EnergyMeter::add_compute_sample(Watts power) {
  if (power < 0.0)
    throw std::invalid_argument("EnergyMeter: negative power sample");
  const std::size_t day = refresh_day();
  compute_energy_ += power;
  day_compute_[day] += power;
}

void EnergyMeter::add_reconfiguration_energy(Joules energy) {
  if (energy < 0.0)
    throw std::invalid_argument("EnergyMeter: negative reconfiguration energy");
  const std::size_t day = refresh_day();
  reconf_energy_ += energy;
  day_reconf_[day] += energy;
}

void EnergyMeter::tick() { ++ticks_; }

}  // namespace bml
