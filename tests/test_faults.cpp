// Tests for fault injection (sim/cluster FaultModel): the boot-path
// channel (jittered / retried boots) and the runtime crash/repair channel
// (per-(domain, arch) MTBF/MTTR renewal processes, sim/fault_timeline.hpp)
// — cluster fail/repair counts, timeline determinism, self-healing, and the
// availability / lost-capacity accounting.
#include <gtest/gtest.h>

#include <memory>

#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/bml_scheduler.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace bml {
namespace {

Catalog candidates() {
  return BmlDesign::build(real_catalog()).candidates();
}

TEST(FaultModel, InactiveByDefault) {
  const FaultModel none;
  EXPECT_FALSE(none.active());
  FaultModel jitter;
  jitter.boot_time_jitter = 0.2;
  EXPECT_TRUE(jitter.active());
}

TEST(FaultModel, ClusterValidatesParameters) {
  FaultModel bad;
  bad.boot_failure_prob = 1.5;
  EXPECT_THROW(Cluster(candidates(), {}, bad), std::invalid_argument);
  FaultModel bad2;
  bad2.boot_time_jitter = -0.1;
  EXPECT_THROW(Cluster(candidates(), {}, bad2), std::invalid_argument);
}

TEST(FaultInjection, JitteredBootsDeviateFromNominal) {
  FaultModel faults;
  faults.boot_time_jitter = 0.3;
  faults.seed = 42;
  Cluster cluster(candidates(), {}, faults);
  // Boot several chromebooks (nominal 12 s); with sigma 0.3 at least one
  // must finish off the nominal second.
  cluster.switch_on(1, 8);
  std::vector<int> completions;
  for (int s = 1; s <= 40 && cluster.transitioning(); ++s) {
    const int done = cluster.step();
    for (int i = 0; i < done; ++i) completions.push_back(s);
  }
  ASSERT_EQ(completions.size(), 8u);
  bool any_off_nominal = false;
  for (int s : completions)
    if (s != 12) any_off_nominal = true;
  EXPECT_TRUE(any_off_nominal);
}

TEST(FaultInjection, DeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    FaultModel faults;
    faults.boot_time_jitter = 0.25;
    faults.boot_failure_prob = 0.2;
    faults.seed = seed;
    Cluster cluster(candidates(), {}, faults);
    cluster.switch_on(0, 3);
    int seconds = 0;
    while (cluster.transitioning()) {
      cluster.step();
      ++seconds;
    }
    return seconds;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(FaultInjection, RetriesLengthenBoots) {
  FaultModel faults;
  faults.boot_time_jitter = 0.0;
  faults.boot_failure_prob = 1.0;  // every boot fails once
  faults.seed = 1;
  Cluster cluster(candidates(), {}, faults);
  cluster.switch_on(1, 1);  // chromebook: nominal 12 s -> 24 s with retry
  int seconds = 0;
  while (cluster.transitioning()) {
    cluster.step();
    ++seconds;
  }
  EXPECT_EQ(seconds, 24);
}

// ------------------------------------------------- runtime crash/repair

TEST(FaultModel, RuntimeChannelActivation) {
  FaultModel model;
  EXPECT_FALSE(model.runtime_active());
  model.mtbf = 3600.0;
  EXPECT_TRUE(model.runtime_active());
  // A repair time alone configures no strikes.
  model.mtbf = 0.0;
  model.mttr = 60.0;
  EXPECT_FALSE(model.runtime_active());
}

TEST(FaultModel, ClusterValidatesRuntimeParameters) {
  FaultModel bad;
  bad.mtbf = -1.0;
  EXPECT_THROW(Cluster(candidates(), {}, bad), std::invalid_argument);
  FaultModel bad2;
  bad2.mttr = -0.5;
  EXPECT_THROW(Cluster(candidates(), {}, bad2), std::invalid_argument);
}

TEST(Cluster, FailOneAndRepairOneKeepCountsInSync) {
  Cluster cluster(candidates(), Combination({2}));
  const ReqRate full = cluster.on_capacity();
  ASSERT_TRUE(cluster.fail_one(0));
  EXPECT_EQ(cluster.on_count(0), 1);
  EXPECT_EQ(cluster.failed_count(), 1);
  EXPECT_LT(cluster.on_capacity(), full);
  const ClusterSnapshot snap = cluster.snapshot();
  EXPECT_EQ(snap.failed.count(0), 1);
  EXPECT_EQ(snap.on.count(0), 1);
  // Nothing of arch 1 is On: the strike misses.
  EXPECT_FALSE(cluster.fail_one(1));
  // Repair returns the machine to Off — and the free list reuses it.
  cluster.repair_one(0);
  EXPECT_EQ(cluster.failed_count(), 0);
  const std::size_t provisioned = cluster.machine_count();
  cluster.switch_on(0, 1);
  EXPECT_EQ(cluster.machine_count(), provisioned);  // reused, not provisioned
  EXPECT_THROW(cluster.repair_one(0), std::logic_error);
}

TEST(FaultTimeline, DeterministicPerSeedAndIndependentPerDomain) {
  FaultModel model;
  model.mtbf = 1000.0;
  model.mttr = 300.0;
  model.seed = 42;
  auto drain = [](FaultTimeline timeline) {
    std::vector<FaultEvent> events;
    TimePoint t = 0;
    while (events.size() < 20 && timeline.next_event() != FaultTimeline::kNever) {
      t = timeline.next_event();
      while (auto e = timeline.pop(t)) events.push_back(*e);
    }
    return events;
  };
  const auto a = drain(FaultTimeline(model, 2, 2));
  const auto b = drain(FaultTimeline(model, 2, 2));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].domain, b[i].domain);
    EXPECT_EQ(a[i].arch, b[i].arch);
    EXPECT_EQ(a[i].repair_seconds, b[i].repair_seconds);
  }
  // The two domains' streams are distinct (golden-ratio seeding).
  bool differs = false;
  for (const FaultEvent& x : a)
    for (const FaultEvent& y : a)
      if (x.domain != y.domain && x.arch == y.arch && x.time != y.time)
        differs = true;
  EXPECT_TRUE(differs);
  // A different seed reshuffles the timeline.
  FaultModel other = model;
  other.seed = 43;
  const auto c = drain(FaultTimeline(other, 2, 2));
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().time, c.front().time);
  // Inactive models produce no events.
  EXPECT_EQ(FaultTimeline(FaultModel{}, 2, 2).next_event(),
            FaultTimeline::kNever);
}

TEST(FaultTimeline, GroupStreamsDoNotPerturbMachineStreams) {
  FaultModel model;
  model.mtbf = 1000.0;
  model.mttr = 300.0;
  model.seed = 42;
  FaultModel grouped = model;
  grouped.groups = 3;
  grouped.group_mtbf = 1500.0;
  grouped.group_mttr = 400.0;
  auto drain = [](FaultTimeline timeline) {
    std::vector<FaultEvent> events;
    while (events.size() < 40 &&
           timeline.next_event() != FaultTimeline::kNever) {
      const TimePoint t = timeline.next_event();
      while (auto e = timeline.pop(t)) events.push_back(*e);
    }
    return events;
  };
  const auto plain = drain(FaultTimeline(model, 2, 2));
  const auto mixed = drain(FaultTimeline(grouped, 2, 2));
  // The grouped timeline interleaves rack strikes...
  std::vector<FaultEvent> machine_only;
  bool saw_group = false;
  for (const FaultEvent& e : mixed) {
    if (e.group_strike) {
      saw_group = true;
      EXPECT_LT(e.group, 3u);
    } else {
      machine_only.push_back(e);
    }
  }
  EXPECT_TRUE(saw_group);
  // ...but the machine streams are byte-identical to the ungrouped model:
  // group streams continue the seeding key space instead of reusing it.
  ASSERT_LE(machine_only.size(), plain.size());
  for (std::size_t i = 0; i < machine_only.size(); ++i) {
    EXPECT_EQ(machine_only[i].time, plain[i].time);
    EXPECT_EQ(machine_only[i].domain, plain[i].domain);
    EXPECT_EQ(machine_only[i].arch, plain[i].arch);
    EXPECT_EQ(machine_only[i].repair_seconds, plain[i].repair_seconds);
  }
  // Group-only models are active and emit only rack strikes.
  FaultModel group_only;
  group_only.groups = 2;
  group_only.group_mtbf = 800.0;
  group_only.group_mttr = 200.0;
  group_only.seed = 7;
  EXPECT_TRUE(group_only.group_active());
  EXPECT_TRUE(group_only.runtime_active());
  const auto racks = drain(FaultTimeline(group_only, 2, 1));
  ASSERT_FALSE(racks.empty());
  for (const FaultEvent& e : racks) EXPECT_TRUE(e.group_strike);
  // Determinism: a second drain reproduces the first.
  const auto again = drain(FaultTimeline(grouped, 2, 2));
  ASSERT_EQ(again.size(), mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(again[i].time, mixed[i].time);
    EXPECT_EQ(again[i].group_strike, mixed[i].group_strike);
  }
}

TEST(FaultTimeline, CrewQueueSerialisesRepairs) {
  // One crew, two landed failures: the second repair waits for the first
  // crew to free up, so its completion lands at first-completion + its
  // own duration, not at its own enqueue + duration.
  FaultModel model;
  model.crews = 1;
  FaultTimeline limited(model, 2, 1);
  limited.schedule_repair(/*now=*/10, /*duration=*/100, 0, 0);
  limited.schedule_repair(/*now=*/20, /*duration=*/50, 0, 1);
  EXPECT_EQ(limited.queued_repairs(), 1u);
  EXPECT_EQ(limited.next_event(), 110);
  auto first = limited.pop(110);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->repair);
  EXPECT_EQ(first->arch, 0u);
  EXPECT_EQ(limited.queued_repairs(), 0u);
  EXPECT_EQ(limited.next_event(), 160);  // 110 + 50, not 20 + 50
  auto second = limited.pop(160);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->arch, 1u);
  EXPECT_EQ(limited.next_event(), FaultTimeline::kNever);

  // crews = 0 is unlimited: both repairs run in parallel, completions at
  // enqueue + duration — exactly the pre-crew behaviour. (A default model
  // has no streams, but the repair queue works for any landed failure.)
  FaultTimeline unlimited(FaultModel{}, 2, 1);
  unlimited.schedule_repair(10, 100, 0, 0);
  unlimited.schedule_repair(20, 50, 0, 1);
  EXPECT_EQ(unlimited.queued_repairs(), 0u);
  EXPECT_EQ(unlimited.next_event(), 70);
  auto para = unlimited.pop(70);
  ASSERT_TRUE(para.has_value());
  EXPECT_EQ(para->arch, 1u);
  EXPECT_EQ(unlimited.next_event(), 110);
}

TEST(FaultModel, ClusterValidatesGroupAndCrewParameters) {
  FaultModel bad;
  bad.groups = -1;
  EXPECT_THROW(Cluster(candidates(), {}, bad), std::invalid_argument);
  FaultModel bad2;
  bad2.group_mtbf = -1.0;
  EXPECT_THROW(Cluster(candidates(), {}, bad2), std::invalid_argument);
  FaultModel bad3;
  bad3.group_mttr = -2.0;
  EXPECT_THROW(Cluster(candidates(), {}, bad3), std::invalid_argument);
  FaultModel bad4;
  bad4.crews = -1;
  EXPECT_THROW(Cluster(candidates(), {}, bad4), std::invalid_argument);
  // Zero-rate group config stays inactive.
  FaultModel idle;
  idle.groups = 4;
  idle.group_mtbf = 0.0;
  EXPECT_FALSE(idle.group_active());
  EXPECT_FALSE(idle.runtime_active());
}

/// Shared runtime-fault scenario: steady load on the real catalog with
/// failures frequent enough to land several times a day.
SimulationResult run_faulty(std::uint64_t seed, bool event_driven = true) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace = constant_trace(2000.0, 86'400.0);
  SimulatorOptions options;
  options.event_driven = event_driven;
  options.faults.mtbf = 3600.0;
  options.faults.mttr = 900.0;
  options.faults.seed = seed;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  return simulator.run(scheduler, trace);
}

TEST(RuntimeFaults, FailuresLandRepairAndSelfHeal) {
  const SimulationResult r = run_faulty(7);
  EXPECT_GT(r.machine_failures, 0);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability, 0.0);
  EXPECT_GT(r.unavailable_seconds, 0);
  EXPECT_GT(r.lost_capacity, 0.0);
  // Self-healing replaced felled machines: reconfigurations happened even
  // though the load (and thus the scheduler's proposal) never changed.
  EXPECT_GT(r.reconfigurations, 0);
  // The replacement boots bound the outage: the service still served the
  // overwhelming majority of requests.
  EXPECT_GT(r.qos.served_fraction(), 0.9);
}

TEST(RuntimeFaults, IdenticalSeedIdenticalTimeline) {
  const SimulationResult a = run_faulty(11);
  const SimulationResult b = run_faulty(11);
  EXPECT_EQ(a.machine_failures, b.machine_failures);
  EXPECT_EQ(a.unavailable_seconds, b.unavailable_seconds);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(a.qos.violation_seconds, b.qos.violation_seconds);
  EXPECT_EQ(a.compute_energy, b.compute_energy);  // bitwise
  EXPECT_EQ(a.lost_capacity, b.lost_capacity);
  const SimulationResult c = run_faulty(12);
  EXPECT_NE(a.unavailable_seconds, c.unavailable_seconds);
}

TEST(RuntimeFaults, ZeroRateIsExactlyFaultFree) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace = step_trace({{200.0, 1800.0}, {2300.0, 1800.0}});
  SimulatorOptions faulty;
  faulty.faults.mtbf = 0.0;  // configured struct, zero rate
  faulty.faults.mttr = 500.0;
  const Simulator sim_faulty(design->candidates(), faulty);
  const Simulator sim_plain(design->candidates());
  BmlScheduler s1(design, std::make_shared<OracleMaxPredictor>());
  BmlScheduler s2(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult a = sim_faulty.run(s1, trace);
  const SimulationResult b = sim_plain.run(s2, trace);
  EXPECT_EQ(a.compute_energy, b.compute_energy);  // bitwise
  EXPECT_EQ(a.reconfiguration_energy, b.reconfiguration_energy);
  EXPECT_EQ(a.machine_failures, 0);
  EXPECT_DOUBLE_EQ(a.availability, 1.0);
  EXPECT_EQ(a.unavailable_seconds, 0);
}

TEST(RuntimeFaults, EventLogRecordsFailuresAndRepairs) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace = constant_trace(2000.0, 43'200.0);
  SimulatorOptions options;
  options.faults.mtbf = 1800.0;
  options.faults.mttr = 600.0;
  options.faults.seed = 3;
  options.record_timeline = true;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult r = simulator.run(scheduler, trace);
  ASSERT_GT(r.machine_failures, 0);
  EXPECT_EQ(r.events.count(EventKind::kMachineFailure),
            static_cast<std::size_t>(r.machine_failures));
  EXPECT_GT(r.events.count(EventKind::kMachineRepair), 0u);
}

TEST(RuntimeFaults, GroupStrikesFellMachinesAndAreLogged) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace = constant_trace(2000.0, 86'400.0);
  SimulatorOptions options;
  options.faults.groups = 2;
  options.faults.group_mtbf = 7200.0;
  options.faults.group_mttr = 900.0;
  options.faults.seed = 5;
  options.record_timeline = true;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult r = simulator.run(scheduler, trace);
  ASSERT_GT(r.group_strikes, 0);
  // Every casualty of a rack strike also counts as a machine failure, and
  // a stripe typically holds more than one machine.
  EXPECT_GE(r.machine_failures, r.group_strikes);
  EXPECT_EQ(r.events.count(EventKind::kGroupStrike),
            static_cast<std::size_t>(r.group_strikes));
  EXPECT_GT(r.unavailable_seconds, 0);
  // Determinism: same seed, same rack-strike history.
  BmlScheduler scheduler2(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult r2 = simulator.run(scheduler2, trace);
  EXPECT_EQ(r.group_strikes, r2.group_strikes);
  EXPECT_EQ(r.machine_failures, r2.machine_failures);
  EXPECT_EQ(r.compute_energy, r2.compute_energy);  // bitwise
}

TEST(RuntimeFaults, SloFeedbackRecordsSpareEventsAndEnergy) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace = constant_trace(1800.0, 86'400.0);
  SimulatorOptions options;
  options.faults.groups = 2;
  options.faults.group_mtbf = 3.0 * 3600.0;
  options.faults.group_mttr = 1800.0;
  options.faults.seed = 19;
  options.slo_window = 7200.0;
  options.record_timeline = true;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  Workload app;
  app.name = "web";
  app.trace = trace;
  app.scheduler = std::make_unique<BmlScheduler>(
      design, std::make_shared<OracleMaxPredictor>());
  app.slo_availability = 0.999;  // 7.2 s budget in the 7200 s window
  std::vector<Workload> apps;
  apps.push_back(std::move(app));
  const MultiSimulationResult r = simulator.run(apps);
  ASSERT_GT(r.total.group_strikes, 0);
  EXPECT_GT(r.total.spare_seconds, 0);
  EXPECT_GT(r.total.spare_energy, 0.0);
  // Spare energy is an attribution overlay inside compute_energy, never
  // on top of it.
  EXPECT_LT(r.total.spare_energy, r.total.compute_energy);
  EXPECT_GT(r.total.events.count(EventKind::kSpareProvision), 0u);
  EXPECT_GT(r.total.events.count(EventKind::kSpareRelease), 0u);
  ASSERT_EQ(r.apps.size(), 1u);
  EXPECT_EQ(r.apps[0].spare_seconds, r.total.spare_seconds);
  EXPECT_EQ(r.apps[0].spare_energy, r.total.spare_energy);
}

TEST(FaultInjection, SimulationSurvivesJitterWithPaperWindow) {
  auto design =
      std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  WorldCupOptions trace_options;
  trace_options.days = 1;
  trace_options.peak = 3000.0;
  const LoadTrace trace = worldcup_like_trace(trace_options);

  SimulatorOptions options;
  options.faults.boot_time_jitter = 0.2;
  options.faults.boot_failure_prob = 0.02;
  options.faults.seed = 3;
  const Simulator simulator(design->candidates(), options);
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult r = simulator.run(scheduler, trace);
  // The 2x window absorbs moderate boot jitter: QoS stays near-perfect.
  EXPECT_GT(r.qos.served_fraction(), 0.999);
  EXPECT_GT(r.reconfigurations, 0);
}

}  // namespace
}  // namespace bml
