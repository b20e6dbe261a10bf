// Simulated profiling testbed.
//
// Substitutes the paper's physical measurement setup (Grid'5000 servers,
// a Samsung Chromebook and a Raspberry Pi behind a WattsUp?Pro wattmeter,
// lighttpd serving a CPU-bound CGI script, Siege as the load generator).
//
// A SimulatedMachine hides a *ground-truth* profile (unknown to the
// profiler) and exposes only what the real testbed exposes: offered
// concurrency in, completed requests out, and a noisy sampled power draw.
// The Profiler (profiler.hpp) must recover Table I from those observables,
// exercising the exact code path a user with real hardware would run.
#pragma once

#include <cstdint>
#include <string>

#include "arch/profile.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bml {

/// Power state of a testbed machine; boots and shutdowns take the
/// profile's transition durations.
enum class MachineState { kOff, kBooting, kOn, kShuttingDown };

/// Ground truth describing one machine type under the target application.
struct MachineSpec {
  /// The true profile (max rate, power curve, transition costs).
  ArchitectureProfile truth;
  /// Concurrency scale at which throughput saturates: with c closed-loop
  /// clients the machine completes max_perf * c / (c + saturation_clients)
  /// requests per second. Smaller = saturates earlier.
  double saturation_clients = 4.0;
  /// Relative power measurement noise (wattmeter + workload variation).
  double power_noise = 0.01;
  /// Relative throughput noise (request work is randomised: the CGI loop
  /// count is drawn uniformly per request in the paper's benchmark).
  double throughput_noise = 0.02;

  explicit MachineSpec(ArchitectureProfile profile)
      : truth(std::move(profile)) {}
};

/// One bootable, loadable machine. All observable quantities are noisy.
class SimulatedMachine {
 public:
  SimulatedMachine(MachineSpec spec, std::uint64_t seed);

  [[nodiscard]] const std::string& name() const { return spec_.truth.name(); }
  [[nodiscard]] const MachineSpec& spec() const { return spec_; }

  [[nodiscard]] MachineState state() const { return state_; }

  /// Sets the number of concurrent closed-loop clients (0 = idle).
  void set_clients(int clients);

  /// Requests completed during one second at the current concurrency;
  /// 0 unless On. Stochastic.
  [[nodiscard]] double observe_throughput();

  /// Instantaneous power draw (W) as a wattmeter would sample it: idle/load
  /// power when On, transition power while booting or shutting down, a
  /// small standby draw when Off. Stochastic.
  [[nodiscard]] Watts observe_power();

  /// Starts booting (machine must be Off).
  void power_on();
  /// Starts shutting down (machine must be On).
  void power_off();
  /// Advances wall-clock one second.
  void tick();

 private:
  [[nodiscard]] double noisy(double value, double sigma);

  MachineSpec spec_;
  Rng rng_;
  MachineState state_ = MachineState::kOff;
  Seconds transition_left_ = 0.0;
  int clients_ = 0;
};

/// WattsUp?Pro-style sampled meter: averages machine power over a window.
class Wattmeter {
 public:
  /// Samples `machine` once per second for `duration` seconds (the machine
  /// is ticked); returns the average power.
  [[nodiscard]] static Watts average_power(SimulatedMachine& machine,
                                           Seconds duration);

  /// Integrates power over `duration` seconds; returns Joules.
  [[nodiscard]] static Joules energy(SimulatedMachine& machine,
                                     Seconds duration);
};

}  // namespace bml
