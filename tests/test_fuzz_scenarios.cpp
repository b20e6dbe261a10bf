// Scenario fuzzer: randomised `.scn` specs over the cartesian space of
// traces x schedulers (cost-aware included) x predictors (ewma included)
// x fault channels x SLO targets x degrade models x priority classes x
// tenant lifecycles (arrive/depart intervals and stochastic churn) x app
// counts, each replayed through both execution strategies. The property
// under test is the engine-wide equivalence contract: integer counters
// bit-exact, floating-point integrals within 1e-9, for *any* valid spec —
// not just the hand-picked ones in test_simulator_fastpath.cpp. Every
// other spec is also observed: both strategies must record the same event
// log and timeline, and the observed fast run must equal the unobserved
// one bit for bit. The run is seeded and bounded (fixed iteration count,
// short traces) so it is a deterministic part of the normal test suite,
// not a soak job; bump kIterations locally to fuzz harder. Half the specs
// are biased to fleet scale (8-32 effective apps via `replicas`, fault
// domains shared across apps) so the wide fused merge gets fuzzed as hard
// as the 1-3 app specs; every spec, at any app count, runs the consult
// cache. The small specs may replay a noisy diurnal day, where
// linear-trend's cursor slides and falls back to exact fits. A mutation
// pass then breaks random specs one key at a time: each must end in a
// named error, never a crash or an unnamed allocation failure.
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_export.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "util/rng.hpp"

namespace bml {
namespace {

constexpr int kIterations = 40;

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
}

/// One random `[app]` section (or the top-level workload block when
/// `top_level`). Trace durations stay short: the per-second reference
/// loop replays every generated spec too. The one noisy trace, a diurnal
/// day, is drawn only where `allow_noisy` (specs of at most three apps).
std::string random_workload(Rng& rng, bool top_level, int shared_domains = 0,
                            bool allow_priority = false,
                            bool allow_noisy = false) {
  std::ostringstream os;
  std::vector<std::string> traces{"constant", "step", "flash_crowd"};
  if (allow_noisy) traces.push_back("diurnal");
  const std::string trace = pick(rng, traces);
  const int duration = trace == "diurnal"
                           ? 86'400
                           : static_cast<int>(rng.uniform_int(1800, 7200));
  os << "trace = " << trace << '\n';
  if (trace == "diurnal") {
    os << "trace.peak = " << rng.uniform_int(300, 2500) << '\n';
    os << "trace.noise = " << static_cast<double>(rng.uniform_int(5, 30)) / 100
       << '\n';
  } else if (trace == "constant") {
    os << "trace.rate = " << rng.uniform_int(100, 2500) << '\n';
    os << "trace.duration = " << duration << '\n';
  } else if (trace == "step") {
    const int segments = static_cast<int>(rng.uniform_int(2, 5));
    os << "trace.segments = ";
    for (int s = 0; s < segments; ++s)
      os << (s ? ";" : "") << rng.uniform_int(50, 2600) << ':'
         << duration / segments;
    os << '\n';
  } else {
    const int base = static_cast<int>(rng.uniform_int(50, 600));
    os << "trace.base = " << base << '\n';
    os << "trace.burst_peak = " << base + rng.uniform_int(400, 2000) << '\n';
    os << "trace.duration = " << duration << '\n';
    os << "trace.burst_start = " << rng.uniform_int(0, duration / 2) << '\n';
  }
  const std::string scheduler = pick(
      rng, std::vector<std::string>{"bml", "reactive", "hysteresis",
                                    "cost-aware"});
  os << "scheduler = " << scheduler << '\n';
  // The predictor's window: the default (0), half of it, and a
  // fractional one past it.
  if (scheduler != "reactive" && rng.chance(0.3))
    os << "scheduler.window = "
       << pick(rng, std::vector<std::string>{"0", "189", "1000.5"}) << '\n';
  // Cost-aware with its payback check off, short and long.
  if (scheduler == "cost-aware")
    os << "scheduler.payback_window = "
       << pick(rng, std::vector<std::string>{"0", "30", "1800"}) << '\n';
  // Half the noisy days replay linear-trend, whose cursor the noise
  // drives through its slid sums and their exact fallback.
  const std::string predictor =
      trace == "diurnal" && rng.chance(0.5)
          ? "linear-trend"
          : pick(rng, std::vector<std::string>{"oracle-max", "last-value",
                                               "moving-max", "linear-trend",
                                               "seasonal", "ewma"});
  os << "predictor = " << predictor << '\n';
  if (predictor == "ewma") {
    os << "predictor.alpha = " << rng.uniform(0.05, 1.0) << '\n';
    os << "predictor.headroom = " << rng.uniform(1.0, 1.5) << '\n';
  }
  // Trailing windows from 2 s to past the trace end, sometimes
  // fractional, so the linear-trend cursor runs while its window grows,
  // while it slides, and where it falls back to exact fits. Below the
  // trace length they are log-uniform and, on the noisy day, under
  // 1200 s. A quarter of the smooth traces get a window past their end.
  if (predictor == "linear-trend" || predictor == "moving-max") {
    const double longest = trace == "diurnal" ? 1200.0 : duration;
    const double window =
        trace != "diurnal" && rng.chance(0.25)
            ? rng.uniform(duration, 1.5 * duration)
            : 2.0 * std::pow(longest / 2.0, rng.uniform(0.0, 1.0));
    os << "predictor.window = "
       << (rng.chance(0.5) ? std::floor(window) : window) << '\n';
  }
  // A seasonal period no shorter than the 378 s BML window (a shorter one
  // is a named error) and shorter than the trace, so replays cross the
  // switch from the warm-up window to the seasonal forecast.
  if (predictor == "seasonal")
    os << "predictor.period = " << rng.uniform_int(378, duration - 1) << '\n';
  os << "qos = " << (rng.chance(0.5) ? "tolerant" : "critical") << '\n';
  if (!top_level) {
    if (shared_domains > 0) {
      // Fleet sections almost always join one of a few shared domains,
      // so correlated strikes and crew-limited repairs span many apps
      // in one event.
      if (rng.chance(0.8))
        os << "fault_domain = dom" << rng.uniform_int(0, shared_domains - 1)
           << '\n';
    } else if (rng.chance(0.5)) {
      os << "fault_domain = pool\n";
    }
    if (rng.chance(0.5)) {
      os << "slo.availability = " << (rng.chance(0.5) ? "0.999" : "0.99")
         << '\n';
      os << "slo.spare = 0." << rng.uniform_int(2, 7) << "5\n";
    }
    // Priority classes mix ranked and default-class sections, so specs
    // cover all-equal (byte-identical to priority-unaware), two-class,
    // and many-class preemption orders. Single-[app] specs skip the key:
    // the sweep layer rejects a class that cannot rank anything.
    if (allow_priority && rng.chance(0.5))
      os << "priority = " << rng.uniform_int(0, 3) << '\n';
    // Tenant lifecycle: some sections arrive late and/or depart early, so
    // churn events cut fast-path spans in every regime the fuzzer visits.
    if (rng.chance(0.3))
      os << "arrive = " << rng.uniform_int(1, duration / 2) << '\n';
    if (rng.chance(0.3))
      os << "depart = " << rng.uniform_int(duration / 2 + 1, duration) << '\n';
  }
  return os.str();
}

/// Top-level stochastic churn block: seed-deterministic clone arrivals on
/// top of the declared sections, exercised at both small and fleet scale.
std::string random_churn(Rng& rng, int sections) {
  std::ostringstream os;
  os << "churn.interarrival = " << rng.uniform_int(600, 2400) << '\n';
  os << "churn.lifetime = " << rng.uniform_int(600, 3600) << '\n';
  os << "churn.max = " << rng.uniform_int(1, 4) << '\n';
  if (sections > 1 && rng.chance(0.5))
    os << "churn.template = " << rng.uniform_int(0, sections - 1) << '\n';
  if (rng.chance(0.5))
    os << "churn.seed = " << rng.uniform_int(1, 1'000'000) << '\n';
  return os.str();
}

std::string random_spec_text(Rng& rng, int iteration) {
  std::ostringstream os;
  os << "name = fuzz" << iteration << '\n';
  os << "seed = " << rng.uniform_int(1, 1'000'000) << '\n';
  os << "graceful_off = " << (rng.chance(0.75) ? "true" : "false") << '\n';
  // Fault channels, independently togglable so the fuzzer covers machine
  // strikes alone, rack strikes alone, both, and neither.
  if (rng.chance(0.6)) {
    os << "faults.mtbf = " << rng.uniform_int(900, 3600) << '\n';
    os << "faults.mttr = " << rng.uniform_int(120, 900) << '\n';
  }
  if (rng.chance(0.6)) {
    os << "faults.groups = " << rng.uniform_int(1, 3) << '\n';
    os << "faults.group_mtbf = " << rng.uniform_int(1800, 7200) << '\n';
    os << "faults.group_mttr = " << rng.uniform_int(300, 1500) << '\n';
  }
  if (rng.chance(0.5)) os << "faults.crews = " << rng.uniform_int(1, 2) << '\n';
  if (rng.chance(0.3))
    os << "faults.boot_failure_prob = 0." << rng.uniform_int(1, 3) << '\n';
  os << "faults.seed = " << rng.uniform_int(1, 1'000'000) << '\n';
  os << "slo.window = " << rng.uniform_int(1800, 7200) << '\n';
  // Degraded-mode serving, togglable independently of faults so the
  // fuzzer covers overload crossings driven by demand spikes alone as
  // well as by strikes; penalty spans the no-loss and total-loss edges.
  if (rng.chance(0.5)) {
    os << "degrade.overload_factor = 0." << rng.uniform_int(1, 9) << '\n';
    os << "degrade.penalty = " << pick(rng, std::vector<std::string>{
                                                "0", "0.25", "0.5", "1"})
       << '\n';
  }
  // Half the specs stay small (<= 3 apps, including the fused single-app
  // walk); the other half are stamped to fleet scale (8-32 effective
  // apps via `replicas`), where the k-way merge is widest and one strike
  // in a shared domain hits many apps at once.
  if (rng.chance(0.5)) {
    const int sections = static_cast<int>(rng.uniform_int(4, 8));
    const int domains = static_cast<int>(rng.uniform_int(2, 3));
    if (rng.chance(0.5)) {
      os << "coordinator = partitioned\n";
      os << "coordinator.budget = design-max\n";
    }
    if (rng.chance(0.4)) os << random_churn(rng, sections);
    for (int a = 0; a < sections; ++a) {
      os << "[app]\nname = app" << a << '\n';
      os << "replicas = " << rng.uniform_int(2, 4) << '\n';
      os << random_workload(rng, /*top_level=*/false, domains,
                            /*allow_priority=*/true);
    }
    return os.str();
  }
  const int apps = static_cast<int>(rng.uniform_int(0, 3));
  if (apps == 0) {
    if (rng.chance(0.3)) os << random_churn(rng, 1);
    os << random_workload(rng, /*top_level=*/true, /*shared_domains=*/0,
                          /*allow_priority=*/false, /*allow_noisy=*/true);
    if (rng.chance(0.4)) os << "slo.availability = 0.999\n";
  } else {
    if (rng.chance(0.4)) {
      os << "coordinator = partitioned\n";
      os << "coordinator.budget = design-max\n";
    }
    if (rng.chance(0.4)) os << random_churn(rng, apps);
    for (int a = 0; a < apps; ++a) {
      os << "[app]\nname = app" << a << '\n';
      os << random_workload(rng, /*top_level=*/false, /*shared_domains=*/0,
                            /*allow_priority=*/apps >= 2,
                            /*allow_noisy=*/true);
    }
  }
  return os.str();
}

void expect_close(double fast, double reference, const char* what) {
  const double tolerance = 1e-9 * std::max(1.0, std::abs(reference));
  EXPECT_NEAR(fast, reference, tolerance) << what;
}

/// Every result field of `r` with its exact bits (floats in hexfloat), so
/// two runs compare bit for bit with one string compare.
std::string exact_results(const ScenarioResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  const auto qos = [&os](const QosStats& q) {
    os << q.violation_seconds << ' ' << q.unserved_requests << ' '
       << q.offered_requests << ' ' << q.worst_shortfall << ' '
       << q.total_seconds << '\n';
  };
  const SimulationResult& s = r.sim;
  os << s.compute_energy << ' ' << s.reconfiguration_energy << '\n';
  for (const double e : s.per_day_compute) os << e << ' ';
  for (const double e : s.per_day_reconfiguration) os << e << ' ';
  os << '\n';
  qos(s.qos);
  os << s.reconfigurations << ' ' << s.reconfiguring_seconds << ' '
     << s.peak_machines << ' ' << s.machine_failures << ' '
     << s.unavailable_seconds << ' ' << s.availability << ' '
     << s.lost_capacity << ' ' << s.group_strikes << ' ' << s.spare_seconds
     << ' ' << s.spare_energy << ' ' << s.overload_seconds << ' '
     << s.penalty_lost_capacity << ' ' << s.preemptions << ' ' << s.arrivals
     << ' ' << s.departures << '\n';
  for (const WorkloadResult& a : r.apps) {
    qos(a.qos_stats);
    os << a.compute_energy << ' ' << a.reconfiguration_energy << ' '
       << a.failures << ' ' << a.unavailable_seconds << ' ' << a.availability
       << ' ' << a.lost_capacity << ' ' << a.spare_seconds << ' '
       << a.spare_energy << ' ' << a.overload_seconds << ' '
       << a.penalty_lost_capacity << ' ' << a.domain_overload_seconds << ' '
       << a.domain_penalty_lost << ' ' << a.preempted_seconds << ' '
       << a.active_seconds << '\n';
  }
  return os.str();
}

TEST(FuzzScenarios, EveryRandomSpecHoldsTheEquivalenceContract) {
  Rng rng(20260807);
  // Sample periods come from their own stream, so observing a spec leaves
  // the specs drawn after it unchanged.
  Rng sample_rng(99);
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = random_spec_text(rng, i);
    SCOPED_TRACE("spec:\n" + text);
    ScenarioSpec spec = parse_scenario(text);
    // Every other spec records its event log and timeline in both
    // strategies.
    const bool observed = i % 2 == 1;
    if (observed) {
      spec.obs_trace = true;
      spec.obs_sample = static_cast<int>(sample_rng.uniform_int(1, 3600));
    }
    spec.event_driven = true;
    const ScenarioResult fast = run_scenario(spec);
    spec.event_driven = false;
    const ScenarioResult reference = run_scenario(spec);
    if (observed) {
      // Both strategies record the same events at the same seconds, and
      // the same timeline; and observing changes no result bit.
      EXPECT_EQ(fast.sim.events.total(), reference.sim.events.total());
      EXPECT_EQ(fast.sim.events.to_csv(), reference.sim.events.to_csv());
      EXPECT_EQ(chrome_trace_json(fast.sim.timeline, fast.sim.events),
                chrome_trace_json(reference.sim.timeline,
                                  reference.sim.events));
      spec.event_driven = true;
      spec.obs_trace = false;
      EXPECT_EQ(exact_results(fast), exact_results(run_scenario(spec)));
    }

    EXPECT_EQ(fast.sim.reconfigurations, reference.sim.reconfigurations);
    EXPECT_EQ(fast.sim.reconfiguring_seconds,
              reference.sim.reconfiguring_seconds);
    EXPECT_EQ(fast.sim.peak_machines, reference.sim.peak_machines);
    EXPECT_EQ(fast.sim.machine_failures, reference.sim.machine_failures);
    EXPECT_EQ(fast.sim.unavailable_seconds,
              reference.sim.unavailable_seconds);
    EXPECT_EQ(fast.sim.group_strikes, reference.sim.group_strikes);
    EXPECT_EQ(fast.sim.spare_seconds, reference.sim.spare_seconds);
    EXPECT_EQ(fast.sim.overload_seconds, reference.sim.overload_seconds);
    EXPECT_EQ(fast.sim.preemptions, reference.sim.preemptions);
    EXPECT_EQ(fast.sim.arrivals, reference.sim.arrivals);
    EXPECT_EQ(fast.sim.departures, reference.sim.departures);
    EXPECT_EQ(fast.sim.qos.total_seconds, reference.sim.qos.total_seconds);
    EXPECT_EQ(fast.sim.qos.violation_seconds,
              reference.sim.qos.violation_seconds);
    expect_close(fast.sim.compute_energy, reference.sim.compute_energy,
                 "compute_energy");
    expect_close(fast.sim.reconfiguration_energy,
                 reference.sim.reconfiguration_energy,
                 "reconfiguration_energy");
    expect_close(fast.sim.lost_capacity, reference.sim.lost_capacity,
                 "lost_capacity");
    expect_close(fast.sim.spare_energy, reference.sim.spare_energy,
                 "spare_energy");
    expect_close(fast.sim.penalty_lost_capacity,
                 reference.sim.penalty_lost_capacity,
                 "penalty_lost_capacity");
    expect_close(fast.sim.qos.unserved_requests,
                 reference.sim.qos.unserved_requests, "unserved_requests");

    ASSERT_EQ(fast.apps.size(), reference.apps.size());
    for (std::size_t a = 0; a < reference.apps.size(); ++a) {
      EXPECT_EQ(fast.apps[a].failures, reference.apps[a].failures);
      EXPECT_EQ(fast.apps[a].unavailable_seconds,
                reference.apps[a].unavailable_seconds);
      EXPECT_EQ(fast.apps[a].spare_seconds, reference.apps[a].spare_seconds);
      EXPECT_EQ(fast.apps[a].overload_seconds,
                reference.apps[a].overload_seconds);
      EXPECT_EQ(fast.apps[a].domain_overload_seconds,
                reference.apps[a].domain_overload_seconds);
      EXPECT_EQ(fast.apps[a].preempted_seconds,
                reference.apps[a].preempted_seconds);
      EXPECT_EQ(fast.apps[a].active_seconds, reference.apps[a].active_seconds);
      EXPECT_EQ(fast.apps[a].qos_stats.violation_seconds,
                reference.apps[a].qos_stats.violation_seconds);
      expect_close(fast.apps[a].compute_energy,
                   reference.apps[a].compute_energy, "app compute_energy");
      expect_close(fast.apps[a].reconfiguration_energy,
                   reference.apps[a].reconfiguration_energy,
                   "app reconfiguration_energy");
      expect_close(fast.apps[a].spare_energy, reference.apps[a].spare_energy,
                   "app spare_energy");
      expect_close(fast.apps[a].lost_capacity,
                   reference.apps[a].lost_capacity, "app lost_capacity");
      expect_close(fast.apps[a].penalty_lost_capacity,
                   reference.apps[a].penalty_lost_capacity,
                   "app penalty_lost_capacity");
      expect_close(fast.apps[a].domain_penalty_lost,
                   reference.apps[a].domain_penalty_lost,
                   "app domain_penalty_lost");
    }
  }
}

/// `text` with `line` inserted after its first line, so it is set at the
/// top level whatever sections follow.
std::string with_top_level(const std::string& text, const std::string& line) {
  const std::size_t eol = text.find('\n') + 1;
  return text.substr(0, eol) + line + '\n' + text.substr(eol);
}

/// `text` with every workload's trace replaced by a diurnal trace of
/// `days` days (its other trace keys dropped).
std::string with_diurnal_days(const std::string& text,
                              const std::string& days) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("trace.", 0) == 0) continue;
    if (line.rfind("trace = ", 0) == 0) {
      out << "trace = diurnal\ntrace.days = " << days << '\n';
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

/// Parsing and running `text` must throw an error whose message names
/// `name`.
void expect_named_error(const std::string& text, const std::string& name) {
  SCOPED_TRACE("spec:\n" + text);
  try {
    (void)run_scenario(parse_scenario(text));
    ADD_FAILURE() << "accepted, expected an error naming " << name;
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
        << e.what();
  }
}

TEST(FuzzScenarios, MutatedSpecsEndInANamedError) {
  Rng rng(20261020);
  const std::pair<const char*, const char*> mutations[] = {
      {"faults.boot_time_jitter = 1e308", "faults.boot_time_jitter"},
      {"faults.boot_time_jitter = 10.5", "faults.boot_time_jitter"},
      {"faults.boot_time_jitter = inf", "faults.boot_time_jitter"},
      {"faults.mtbf = nan", "faults.mtbf"},
      {"faults.mttr = -5", "faults.mttr"},
      {"faults.groups = 4294967298", "faults.groups"},
      {"coordinator.budget = -5", "coordinator.budget"},
      {"seed = -3", "seed"},
      {"faults.boot_failure_prob = 2", "faults.boot_failure_prob"},
      // Every random spec sets these, so the inserted line repeats them.
      {"slo.window = 3600", "slo.window"},
      {"faults.seed = 5", "faults.seed"},
      {"bogus.key = 1", "bogus.key"},
      {"[nowhere]", "nowhere"},
  };
  for (int i = 0; i < 8; ++i) {
    const std::string text = random_spec_text(rng, i);
    for (const auto& [line, name] : mutations)
      expect_named_error(with_top_level(text, line), name);
    // Traces past LoadTrace's 2^32 - 2 s are refused before a sample is
    // allocated; 10^8 days (69 TB of samples) is past what any host can
    // allocate, so a check moved after the fill fails here, not the host.
    expect_named_error(with_diurnal_days(text, "100000000"),
                       "LoadTrace holds");
  }
}

}  // namespace
}  // namespace bml
