// The multi-tenant workload layer's acceptance tests:
//   * regression pin — a single-[app] scenario produces byte-identical
//     sweep CSV output to the equivalent pre-refactor (no-section) spec,
//     on both execution strategies;
//   * equivalence — a multi-app event-driven run matches the per-second
//     reference loop: exact integer counters, 1e-9 relative on energy /
//     QoS integrals, cluster-wide and per app;
//   * the coordinator's merge policies (sum identity, partitioned clamp);
//   * per-app attribution invariants (shares sum to the cluster totals);
//   * QoS accounting across multi-second fast-path spans that straddle a
//     capacity boundary.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/coordinator.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

std::shared_ptr<BmlDesign> design() {
  static auto d =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  return d;
}

void expect_close(double a, double b, const char* what) {
  const double tolerance = 1e-9 * std::max(1.0, std::abs(b));
  EXPECT_NEAR(a, b, tolerance) << what;
}

/// Two diurnal apps in anti-phase plus a constant batch app — loads that
/// overlap, cross, and straddle each other's reconfigurations.
std::vector<Workload> demo_workloads() {
  std::vector<Workload> workloads;
  {
    Workload w;
    w.name = "frontend";
    DiurnalOptions o;
    o.peak = 1600.0;
    o.noise = 0.0;
    o.peak_hour = 18.0;
    w.trace = diurnal_trace(o, 1);
    w.scheduler = std::make_unique<BmlScheduler>(
        design(), std::make_shared<OracleMaxPredictor>(), 0.0,
        QosClass::kCritical);
    w.qos = QosClass::kCritical;
    w.share = 2.0;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "api";
    w.trace = step_trace({{120.0, 20000.0},
                          {900.0, 30000.0},
                          {200.0, 36400.0}});
    w.scheduler = std::make_unique<BmlScheduler>(
        design(), std::make_shared<MovingMaxPredictor>(378.0));
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "batch";
    w.trace = constant_trace(250.0, 86400.0);
    w.scheduler = std::make_unique<ReactiveScheduler>(design());
    workloads.push_back(std::move(w));
  }
  return workloads;
}

/// Three days of long runs: one tenant from the start, one arriving
/// mid-day and one a second before a day ends. The late two stay more
/// than a day, so their sub-runs run across the days of their own
/// residency, which no span bound cuts.
std::vector<Workload> late_arrival_workloads() {
  std::vector<Workload> workloads;
  {
    Workload w;
    w.name = "frontend";
    w.trace = step_trace({{400.0, 30000.0},
                          {1300.0, 40000.0},
                          {300.0, 60000.0},
                          {1100.0, 70000.0},
                          {500.0, 59200.0}});
    w.scheduler = std::make_unique<BmlScheduler>(
        design(), std::make_shared<OracleMaxPredictor>());
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "api";
    w.trace = step_trace({{600.0, 120000.0}, {150.0, 139200.0}});
    w.scheduler = std::make_unique<BmlScheduler>(
        design(), std::make_shared<MovingMaxPredictor>(378.0));
    w.arrive = 50'000;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "batch";
    w.trace = constant_trace(250.0, 3.0 * 86400.0);
    w.scheduler = std::make_unique<ReactiveScheduler>(design());
    w.arrive = kSecondsPerDay - 1;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

/// Runs `make()`'s workloads on both strategies: counts exact, integrals
/// within 1e-9, cluster-wide and per app, and each strategy's per-app
/// compute energies sum to its cluster's.
void expect_equivalent_multi(SimulatorOptions options,
                             std::vector<Workload> (*make)() =
                                 demo_workloads) {
  options.event_driven = true;
  const Simulator fast_sim(design()->candidates(), options);
  options.event_driven = false;
  const Simulator reference_sim(design()->candidates(), options);

  auto fast_workloads = make();
  auto reference_workloads = make();
  const MultiSimulationResult fast = fast_sim.run(fast_workloads);
  const MultiSimulationResult reference =
      reference_sim.run(reference_workloads);

  expect_close(fast.total.compute_energy, reference.total.compute_energy,
               "compute_energy");
  expect_close(fast.total.reconfiguration_energy,
               reference.total.reconfiguration_energy,
               "reconfiguration_energy");
  EXPECT_EQ(fast.total.reconfigurations, reference.total.reconfigurations);
  EXPECT_EQ(fast.total.reconfiguring_seconds,
            reference.total.reconfiguring_seconds);
  EXPECT_EQ(fast.total.peak_machines, reference.total.peak_machines);
  EXPECT_EQ(fast.total.qos.total_seconds, reference.total.qos.total_seconds);
  EXPECT_EQ(fast.total.qos.violation_seconds,
            reference.total.qos.violation_seconds);
  expect_close(fast.total.qos.unserved_requests,
               reference.total.qos.unserved_requests, "unserved_requests");
  expect_close(fast.total.qos.offered_requests,
               reference.total.qos.offered_requests, "offered_requests");

  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  Joules fast_compute = 0.0;
  Joules reference_compute = 0.0;
  for (std::size_t i = 0; i < reference.apps.size(); ++i) {
    const WorkloadResult& f = fast.apps[i];
    const WorkloadResult& r = reference.apps[i];
    fast_compute += f.compute_energy;
    reference_compute += r.compute_energy;
    EXPECT_EQ(f.name, r.name);
    EXPECT_EQ(f.active_seconds, r.active_seconds) << f.name;
    EXPECT_EQ(f.qos_stats.total_seconds, r.qos_stats.total_seconds) << f.name;
    EXPECT_EQ(f.qos_stats.violation_seconds, r.qos_stats.violation_seconds)
        << f.name;
    expect_close(f.qos_stats.unserved_requests, r.qos_stats.unserved_requests,
                 f.name.c_str());
    expect_close(f.qos_stats.offered_requests, r.qos_stats.offered_requests,
                 f.name.c_str());
    expect_close(f.compute_energy, r.compute_energy, f.name.c_str());
    expect_close(f.reconfiguration_energy, r.reconfiguration_energy,
                 f.name.c_str());
  }
  expect_close(fast_compute, fast.total.compute_energy, "fast compute split");
  expect_close(reference_compute, reference.total.compute_energy,
               "reference compute split");
}

TEST(MultiWorkload, FastPathMatchesPerSecondReference) {
  expect_equivalent_multi({});
  expect_equivalent_multi({}, late_arrival_workloads);
}

TEST(MultiWorkload, FastPathMatchesReferenceImmediateOff) {
  SimulatorOptions options;
  options.graceful_off = false;
  expect_equivalent_multi(options);
}

TEST(MultiWorkload, FastPathMatchesReferencePartitioned) {
  SimulatorOptions options;
  options.coordinator = CoordinatorMode::kPartitioned;
  options.coordinator_budget = 2200.0;
  expect_equivalent_multi(options);
}

TEST(MultiWorkload, FastPathMatchesReferenceWithBootFaults) {
  SimulatorOptions options;
  options.faults.boot_time_jitter = 0.3;
  options.faults.boot_failure_prob = 0.2;
  options.faults.seed = 11;
  expect_equivalent_multi(options);
}

TEST(MultiWorkload, PerAppEnergySharesSumToClusterTotals) {
  auto workloads = demo_workloads();
  const Simulator sim(design()->candidates());
  const MultiSimulationResult result = sim.run(workloads);
  Joules compute = 0.0;
  Joules reconfiguration = 0.0;
  double offered = 0.0;
  for (const WorkloadResult& app : result.apps) {
    compute += app.compute_energy;
    reconfiguration += app.reconfiguration_energy;
    offered += app.qos_stats.offered_requests;
  }
  expect_close(compute, result.total.compute_energy, "compute split");
  expect_close(reconfiguration, result.total.reconfiguration_energy,
               "reconfiguration split");
  expect_close(offered, result.total.qos.offered_requests, "offered split");
}

TEST(MultiWorkload, SingleWorkloadMatchesLegacyRun) {
  // The Scheduler& API and a one-element workload list are the same code
  // path; every reported number must agree exactly.
  const LoadTrace trace =
      step_trace({{150.0, 2000.0}, {2300.0, 2000.0}, {90.0, 2000.0}});
  const Simulator sim(design()->candidates());

  BmlScheduler scheduler(design(), std::make_shared<OracleMaxPredictor>());
  const SimulationResult single = sim.run(scheduler, trace);

  std::vector<Workload> workloads;
  Workload w;
  w.trace = trace;
  w.scheduler = std::make_unique<BmlScheduler>(
      design(), std::make_shared<OracleMaxPredictor>());
  workloads.push_back(std::move(w));
  const MultiSimulationResult multi = sim.run(workloads);

  EXPECT_EQ(multi.total.scheduler_name, single.scheduler_name);
  EXPECT_EQ(multi.total.compute_energy, single.compute_energy);
  EXPECT_EQ(multi.total.reconfiguration_energy,
            single.reconfiguration_energy);
  EXPECT_EQ(multi.total.reconfigurations, single.reconfigurations);
  EXPECT_EQ(multi.total.qos.violation_seconds, single.qos.violation_seconds);
  EXPECT_EQ(multi.total.peak_machines, single.peak_machines);
  // At N = 1 the app slice is the whole cluster.
  ASSERT_EQ(multi.apps.size(), 1u);
  EXPECT_EQ(multi.apps.front().compute_energy, single.compute_energy);
  EXPECT_EQ(multi.apps.front().qos_stats.violation_seconds,
            single.qos.violation_seconds);
}

// ------------------------------------------------------------ coordinator

TEST(Coordinator, SumModeIsElementwiseSum) {
  const Catalog catalog = design()->candidates();
  const Coordinator coordinator(catalog, CoordinatorMode::kSum, {1.0, 1.0},
                                0.0);
  std::vector<Combination> contributions;
  const Combination merged = coordinator.merge(
      {Combination({2, 1}), Combination({0, 3})}, {}, contributions);
  Combination expected({2, 4});
  expected.resize(catalog.size());
  EXPECT_EQ(merged, expected);
  ASSERT_EQ(contributions.size(), 2u);
  EXPECT_EQ(contributions[0].count(0), 2);
  EXPECT_EQ(contributions[1].count(1), 3);
}

TEST(Coordinator, PartitionedClampsToCapacityShares) {
  const Catalog catalog = design()->candidates();
  // Two equal shares over a budget of 2 * big capacity: each app keeps at
  // most one Big machine's worth of capacity.
  const ReqRate big = catalog.front().max_perf();
  const Coordinator coordinator(catalog, CoordinatorMode::kPartitioned,
                                {1.0, 1.0}, 2.0 * big);
  EXPECT_DOUBLE_EQ(coordinator.capacity_cap(0), big);

  std::vector<Combination> contributions;
  const Combination merged = coordinator.merge(
      {Combination({3, 0}), Combination({1, 0})}, {}, contributions);
  // App 0 asked for 3 Bigs (3x its cap): trimmed largest-first down to 1.
  EXPECT_EQ(contributions[0].count(0), 1);
  EXPECT_EQ(contributions[1].count(0), 1);
  EXPECT_EQ(merged.count(0), 2);
  EXPECT_LE(capacity(catalog, contributions[0]),
            coordinator.capacity_cap(0) + 1e-9);
}

TEST(Coordinator, FinalTrimStepPicksTheSmallestSufficientArch) {
  // Regression: the clamp used to trim largest-arch-first to the end,
  // overshooting the cap by nearly one Big machine when dropping a
  // smaller arch would have sufficed. With a cap of one Big plus half a
  // Little, a proposal of {1 Big, 1 Little} must shed the Little (keeping
  // capacity = Big <= cap), not the Big (capacity = Little, a huge
  // overshoot).
  const Catalog catalog = design()->candidates();
  ASSERT_GE(catalog.size(), 2u);
  const std::size_t little = catalog.size() - 1;
  const ReqRate big_perf = catalog.front().max_perf();
  const ReqRate little_perf = catalog[little].max_perf();
  ASSERT_GT(big_perf, little_perf);

  const ReqRate cap = big_perf + 0.5 * little_perf;
  const Coordinator coordinator(catalog, CoordinatorMode::kPartitioned, {1.0},
                                cap);
  Combination proposal;
  proposal.resize(catalog.size());
  proposal.add(0, 1);
  proposal.add(little, 1);
  std::vector<Combination> contributions;
  const Combination merged = coordinator.merge({proposal}, {}, contributions);
  EXPECT_EQ(merged.count(0), 1);
  EXPECT_EQ(merged.count(little), 0);
  EXPECT_DOUBLE_EQ(capacity(catalog, merged), big_perf);
  // Determinism: the same inputs trim identically.
  std::vector<Combination> again;
  EXPECT_EQ(coordinator.merge({proposal}, {}, again), merged);
}

TEST(Coordinator, TrimStillShedsLargestFirstWhileFarOverCap) {
  // When no single removal can reach the cap the trim must still shed the
  // largest architecture first (fastest convergence): 3 Bigs against a
  // 1.2-Big cap end as exactly 1 Big.
  const Catalog catalog = design()->candidates();
  const ReqRate big_perf = catalog.front().max_perf();
  const Coordinator coordinator(catalog, CoordinatorMode::kPartitioned, {1.0},
                                1.2 * big_perf);
  Combination proposal;
  proposal.resize(catalog.size());
  proposal.add(0, 3);
  std::vector<Combination> contributions;
  const Combination merged = coordinator.merge({proposal}, {}, contributions);
  EXPECT_EQ(merged.count(0), 1);
  EXPECT_LE(capacity(catalog, merged), 1.2 * big_perf + 1e-9);
}

TEST(Coordinator, ToStringRejectsInvalidMode) {
  EXPECT_STREQ(to_string(CoordinatorMode::kSum), "sum");
  EXPECT_STREQ(to_string(CoordinatorMode::kPartitioned), "partitioned");
  EXPECT_THROW((void)to_string(static_cast<CoordinatorMode>(99)),
               std::logic_error);
}

TEST(Coordinator, NoBudgetDisablesTheClamp) {
  const Catalog catalog = design()->candidates();
  const Coordinator coordinator(catalog, CoordinatorMode::kPartitioned,
                                {1.0}, 0.0);
  std::vector<Combination> contributions;
  const Combination merged =
      coordinator.merge({Combination({5, 2})}, {}, contributions);
  EXPECT_EQ(merged.count(0), 5);
  EXPECT_EQ(merged.count(1), 2);
}

TEST(Coordinator, RejectsBadInputs) {
  const Catalog catalog = design()->candidates();
  EXPECT_THROW(Coordinator(catalog, CoordinatorMode::kSum, {}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Coordinator(catalog, CoordinatorMode::kSum, {1.0, 0.0}, 0.0),
               std::invalid_argument);
  const Coordinator coordinator(catalog, CoordinatorMode::kSum, {1.0}, 0.0);
  std::vector<Combination> contributions;
  EXPECT_THROW(
      (void)coordinator.merge({Combination({1}), Combination({1})}, {},
                              contributions),
      std::invalid_argument);
}

// ------------------------------------------------------- fault domains

TEST(MultiWorkload, FaultDomainsGroupAndIsolate) {
  const auto make_workloads = [](const std::string& domain_a,
                                 const std::string& domain_b) {
    std::vector<Workload> workloads;
    for (const std::string* domain : {&domain_a, &domain_b}) {
      Workload w;
      w.name = "app" + std::to_string(workloads.size());
      w.trace = constant_trace(900.0, 86'400.0);
      w.scheduler = std::make_unique<BmlScheduler>(
          design(), std::make_shared<OracleMaxPredictor>());
      w.fault_domain = *domain;
      workloads.push_back(std::move(w));
    }
    return workloads;
  };
  SimulatorOptions options;
  options.faults.mtbf = 2400.0;
  options.faults.mttr = 600.0;
  options.faults.seed = 19;
  const Simulator sim(design()->candidates(), options);

  // Same named domain: one shared crash/repair process, both apps report
  // the identical domain slice and the cluster total counts it once.
  auto shared = make_workloads("pool", "pool");
  const MultiSimulationResult grouped = sim.run(shared);
  ASSERT_GT(grouped.total.machine_failures, 0);
  EXPECT_EQ(grouped.apps[0].failures, grouped.apps[1].failures);
  EXPECT_EQ(grouped.apps[0].unavailable_seconds,
            grouped.apps[1].unavailable_seconds);
  EXPECT_EQ(grouped.apps[0].failures, grouped.total.machine_failures);

  // Private (default) domains: independent processes, the cluster total
  // is the sum of the per-domain counts and the downtime union is bounded
  // by the per-domain sum.
  auto isolated = make_workloads("", "");
  const MultiSimulationResult split = sim.run(isolated);
  ASSERT_GT(split.total.machine_failures, 0);
  EXPECT_EQ(split.apps[0].failures + split.apps[1].failures,
            split.total.machine_failures);
  EXPECT_LE(split.total.unavailable_seconds,
            split.apps[0].unavailable_seconds +
                split.apps[1].unavailable_seconds);
  // The domains really are distinct streams.
  EXPECT_NE(split.apps[0].unavailable_seconds,
            split.apps[1].unavailable_seconds);
}

// ---------------------------------------------------- capacity splitting

TEST(Cluster, SplitCapacityIsLoadProportional) {
  Cluster cluster(design()->candidates(), Combination({2}));  // 2 Bigs
  const ReqRate cap = cluster.on_capacity();
  std::vector<ReqRate> alloc;
  cluster.split_capacity({300.0, 100.0}, 400.0, alloc);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_DOUBLE_EQ(alloc[0], cap * 0.75);
  EXPECT_DOUBLE_EQ(alloc[1], cap * 0.25);
  // No offered load: equal split.
  cluster.split_capacity({0.0, 0.0}, 0.0, alloc);
  EXPECT_DOUBLE_EQ(alloc[0], cap * 0.5);
  EXPECT_DOUBLE_EQ(alloc[1], cap * 0.5);
  // A single workload is allocated the whole capacity exactly.
  cluster.split_capacity({123.0}, 123.0, alloc);
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_EQ(alloc[0], cap);
}

TEST(Workload, CombinedTraceSumsAndPadsShorterTraces) {
  std::vector<const LoadTrace*> traces;
  const LoadTrace a({10.0, 20.0, 30.0});
  const LoadTrace b({1.0, 2.0});
  traces = {&a, &b};
  const LoadTrace sum = combined_trace(traces);
  ASSERT_EQ(sum.size(), 3u);
  EXPECT_DOUBLE_EQ(sum.at(0), 11.0);
  EXPECT_DOUBLE_EQ(sum.at(1), 22.0);
  EXPECT_DOUBLE_EQ(sum.at(2), 30.0);
  // A single trace is returned unchanged.
  const LoadTrace alone = combined_trace(std::vector<const LoadTrace*>{&a});
  EXPECT_EQ(alone.size(), a.size());
  EXPECT_DOUBLE_EQ(alone.at(2), 30.0);
}

// -------------------------------------------- scenario-level regression

constexpr const char* kLegacySpec = R"(name = pinned
trace = step
trace.segments = 150:1200;2300:1200;90:1200
scheduler = bml
predictor = oracle-max
qos = critical
seed = 5
sweep seed = 5,6
sweep graceful_off = true,false
sweep event_driven = true,false
)";

constexpr const char* kSingleAppSpec = R"(name = pinned
seed = 5
[app]
trace = step
trace.segments = 150:1200;2300:1200;90:1200
scheduler = bml
predictor = oracle-max
qos = critical
sweep seed = 5,6
sweep graceful_off = true,false
sweep event_driven = true,false
)";

TEST(MultiWorkload, SingleAppSpecCsvIsByteIdenticalToLegacySpec) {
  // The acceptance pin: one [app] section must reproduce the pre-refactor
  // single-app engine byte-for-byte, across graceful-off and both
  // execution strategies (the event_driven axis doubles as a fast-path /
  // reference equivalence check at the CSV level).
  SweepOptions options;
  options.threads = 2;
  const SweepReport legacy = run_sweep(parse_scenario(kLegacySpec), options);
  const SweepReport single_app =
      run_sweep(parse_scenario(kSingleAppSpec), options);
  ASSERT_EQ(legacy.rows.size(), 8u);
  EXPECT_EQ(legacy.to_csv(), single_app.to_csv());
}

TEST(MultiWorkload, MultiAppScenarioRunsThroughTheEngine) {
  ScenarioSpec spec;
  spec.name = "pair";
  spec.apps.resize(2);
  spec.apps[0].name = "web";
  spec.apps[0].trace = "step";
  spec.apps[0].trace_params["segments"] = "200:1200;1500:1200;100:1200";
  spec.apps[0].qos = "critical";
  spec.apps[1].name = "batch";
  spec.apps[1].trace = "constant";
  spec.apps[1].trace_params["rate"] = "300";
  spec.apps[1].trace_params["duration"] = "3600";
  spec.apps[1].scheduler = "reactive";
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_EQ(result.apps[0].name, "web");
  EXPECT_EQ(result.apps[1].name, "batch");
  EXPECT_GT(result.apps[0].compute_energy, 0.0);
  EXPECT_GT(result.apps[1].compute_energy, 0.0);
  expect_close(
      result.apps[0].compute_energy + result.apps[1].compute_energy,
      result.sim.compute_energy, "per-app split");
  EXPECT_EQ(result.sim.scheduler_name, "bml(oracle-max)+reactive");
  EXPECT_DOUBLE_EQ(result.trace_duration, 3600.0);
}

TEST(MultiWorkload, SweepCsvGrowsPerAppColumnsOnlyForMultiApp) {
  ScenarioSpec multi;
  multi.apps.resize(2);
  multi.apps[0].trace_params["duration"] = "600";
  multi.apps[1].trace_params["duration"] = "600";
  const SweepReport multi_report = run_sweep(multi, {.threads = 1});
  EXPECT_NE(multi_report.to_csv().find("app0_compute_energy_j"),
            std::string::npos);
  EXPECT_NE(multi_report.to_csv().find("app1_served_fraction"),
            std::string::npos);

  ScenarioSpec single;
  single.trace_params["duration"] = "600";
  const SweepReport single_report = run_sweep(single, {.threads = 1});
  EXPECT_EQ(single_report.to_csv().find("app0_"), std::string::npos);
}

// ---------------------------------------- QoS across capacity boundaries

TEST(MultiWorkload, QosSpansStraddlingCapacityBoundaryMatchReference) {
  // A reactive scheduler facing a step burst serves violation seconds
  // while the replacement machines boot: the fast path batches those
  // seconds into multi-second spans that end exactly at the boot
  // completion (the capacity boundary). Counters must match the
  // per-second reference exactly.
  const LoadTrace trace = step_trace(
      {{100.0, 900.0}, {2600.0, 900.0}, {100.0, 900.0}, {1900.0, 900.0}});
  auto make = [] {
    return std::make_unique<ReactiveScheduler>(design());
  };

  SimulatorOptions options;
  options.event_driven = true;
  const Simulator fast_sim(design()->candidates(), options);
  options.event_driven = false;
  const Simulator reference_sim(design()->candidates(), options);
  auto fast_scheduler = make();
  auto reference_scheduler = make();
  const SimulationResult fast = fast_sim.run(*fast_scheduler, trace);
  const SimulationResult reference =
      reference_sim.run(*reference_scheduler, trace);

  // The scenario must actually exercise the boundary: violations exist
  // and last longer than one second (so at least one multi-second span
  // straddles load > capacity before the boot completes).
  EXPECT_GT(reference.qos.violation_seconds, 1);
  EXPECT_EQ(fast.qos.violation_seconds, reference.qos.violation_seconds);
  EXPECT_EQ(fast.qos.total_seconds, reference.qos.total_seconds);
  expect_close(fast.qos.unserved_requests, reference.qos.unserved_requests,
               "unserved_requests");
  expect_close(fast.qos.worst_shortfall, reference.qos.worst_shortfall,
               "worst_shortfall");
}

}  // namespace
}  // namespace bml
