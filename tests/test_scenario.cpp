// Tests for scenario/: spec parse/write round-trips, error paths through
// the registry, single-scenario runs, and sweep-grid determinism across
// thread counts.
#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "predict/predictor.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sched/bml_scheduler.hpp"
#include "sim/cluster.hpp"
#include "trace/synthetic.hpp"
#include "trace/wc98.hpp"

namespace bml {
namespace {

constexpr const char* kDemoSpec = R"(# demo
name = demo
catalog = real
trace = diurnal
trace.days = 2
trace.peak = 1200.5
scheduler = bml
scheduler.window = 400
predictor = moving-max
predictor.window = 200
qos = critical
graceful_off = false
faults.boot_time_jitter = 0.25
seed = 42
sweep trace.peak = 500,1000
sweep predictor = oracle-max,moving-max
)";

TEST(ScenarioSpec, ParseReadsEveryField) {
  const ScenarioSpec spec = parse_scenario(kDemoSpec);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.catalog, "real");
  EXPECT_EQ(spec.trace, "diurnal");
  EXPECT_EQ(spec.trace_params.at("days"), "2");
  EXPECT_EQ(spec.trace_params.at("peak"), "1200.5");
  EXPECT_EQ(spec.scheduler, "bml");
  EXPECT_EQ(spec.scheduler_params.at("window"), "400");
  EXPECT_EQ(spec.predictor, "moving-max");
  EXPECT_EQ(spec.qos, "critical");
  EXPECT_FALSE(spec.graceful_off);
  EXPECT_TRUE(spec.event_driven);
  EXPECT_DOUBLE_EQ(spec.boot_time_jitter, 0.25);
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.sweeps.size(), 2u);
  EXPECT_EQ(spec.sweeps[0].key, "trace.peak");
  EXPECT_EQ(spec.sweeps[0].values, (std::vector<std::string>{"500", "1000"}));
  EXPECT_EQ(spec.sweeps[1].key, "predictor");
}

TEST(ScenarioSpec, WriteParseRoundTrip) {
  const ScenarioSpec spec = parse_scenario(kDemoSpec);
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  // The canonical form is a fixed point.
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
}

TEST(ScenarioSpec, DefaultSpecRoundTrips) {
  const ScenarioSpec spec;
  EXPECT_EQ(parse_scenario(write_scenario(spec)), spec);
}

TEST(ScenarioSpec, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "bml_scenario_rt.scn";
  const ScenarioSpec spec = parse_scenario(kDemoSpec);
  save_scenario(spec, path);
  EXPECT_EQ(load_scenario(path), spec);
  std::filesystem::remove(path);
}

TEST(ScenarioSpec, UnknownKeyThrowsWithLineContext) {
  try {
    (void)parse_scenario("name = x\nbogus_key = 1\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioSpec, BadValuesThrow) {
  EXPECT_THROW((void)parse_scenario("graceful_off = maybe\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("seed = -3\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("qos = best-effort\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("design.solver = magic\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("design.max_rate = fast\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("faults.boot_time_jitter = nan\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("name\n"),
               std::runtime_error);  // no '='
  EXPECT_THROW((void)parse_scenario("sweep qos = tolerant,bogus\n"),
               std::runtime_error);  // axis values are probed at parse time
  EXPECT_THROW((void)parse_scenario("sweep trace.peak = \n"),
               std::runtime_error);  // empty axis
  EXPECT_THROW(
      (void)parse_scenario("sweep seed = 1,2\nsweep seed = 3,4\n"),
      std::runtime_error);  // duplicate axis
  // Integer keys past INT_MAX are errors naming the key, never a wrapped
  // value (4294967298 would read as 2, 2147483648 as a negative count).
  for (const auto& [text, key] :
       std::vector<std::pair<std::string, std::string>>{
           {"faults.groups = 4294967298\n", "faults.groups"},
           {"churn.max = 2147483648\n", "churn.max"},
           {"obs.sample = 4294967297\n", "obs.sample"},
           {"[app]\nreplicas = 4294967297\n", "app replicas"},
           {"[app]\npriority = 4294967299\n", "app priority"}}) {
    try {
      (void)parse_scenario(text);
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

constexpr const char* kMultiAppSpec = R"(name = colocated
catalog = real
coordinator = partitioned
coordinator.budget = 3500
seed = 9
[app]
name = frontend
trace = diurnal
trace.peak = 1500
qos = critical
share = 2
[app]
trace = constant
trace.rate = 300
scheduler = reactive
predictor = moving-max
sweep app0.trace.peak = 800,1600
)";

TEST(ScenarioSpec, ParsesAppSectionsAndCoordinator) {
  const ScenarioSpec spec = parse_scenario(kMultiAppSpec);
  EXPECT_EQ(spec.coordinator, "partitioned");
  EXPECT_EQ(spec.coordinator_budget, "3500");
  ASSERT_EQ(spec.apps.size(), 2u);
  EXPECT_EQ(spec.apps[0].name, "frontend");
  EXPECT_EQ(spec.apps[0].trace, "diurnal");
  EXPECT_EQ(spec.apps[0].trace_params.at("peak"), "1500");
  EXPECT_EQ(spec.apps[0].qos, "critical");
  EXPECT_DOUBLE_EQ(spec.apps[0].share, 2.0);
  EXPECT_EQ(spec.apps[1].name, "");  // auto-named app1 at build time
  EXPECT_EQ(spec.apps[1].scheduler, "reactive");
  EXPECT_EQ(spec.apps[1].predictor, "moving-max");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].key, "app0.trace.peak");
}

TEST(ScenarioSpec, MultiAppRoundTrips) {
  const ScenarioSpec spec = parse_scenario(kMultiAppSpec);
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
}

TEST(ScenarioSpec, AppKeyErrors) {
  // Unknown key inside a section.
  EXPECT_THROW((void)parse_scenario("[app]\ncatalog = real\n"),
               std::runtime_error);
  // App-addressed key without a matching section.
  EXPECT_THROW((void)parse_scenario("app0.trace = constant\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario("[app]\ntrace = constant\napp1.qos = critical\n"),
      std::runtime_error);
  // Malformed prefix and bad typed values.
  EXPECT_THROW((void)parse_scenario("[app]\napp0trace = constant\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\nshare = 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\nqos = best\n"),
               std::runtime_error);
  // Unknown section names are rejected.
  EXPECT_THROW((void)parse_scenario("[application]\n"), std::runtime_error);
  // Coordinator validation.
  EXPECT_THROW((void)parse_scenario("coordinator = voting\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("coordinator.budget = lots\n"),
               std::runtime_error);
}

TEST(RunSweep, RejectsIgnoredTopLevelAxesInMultiAppSpecs) {
  // With [app] sections the top-level workload fields are dead; sweeping
  // one would expand a grid of identical rows. The runner must refuse.
  ScenarioSpec spec = parse_scenario(kMultiAppSpec);
  spec.sweeps.push_back(SweepAxis{"trace.peak", {"500", "5000"}});
  EXPECT_THROW((void)run_sweep(spec, {.threads = 1}), std::runtime_error);
  spec.sweeps.back() = SweepAxis{"scheduler", {"bml", "reactive"}};
  EXPECT_THROW((void)run_sweep(spec, {.threads = 1}), std::runtime_error);
  spec.sweeps.back() = SweepAxis{"priority", {"0", "2"}};
  EXPECT_THROW((void)run_sweep(spec, {.threads = 1}), std::runtime_error);
  // Simulator knobs stay sweepable (expansion only — keep the test cheap).
  spec.sweeps.back() = SweepAxis{"graceful_off", {"true", "false"}};
  EXPECT_EQ(expand_sweep(spec).size(), 4u);
}

TEST(RunScenario, RejectsUnvalidatedComponentNamesInProgrammaticSpecs) {
  // Specs built in code bypass ScenarioSpec::set; the build path must
  // still reject unknown names instead of silently running defaults.
  ScenarioSpec spec;
  spec.trace_params["duration"] = "60";
  spec.coordinator = "partioned";  // typo
  EXPECT_THROW((void)run_scenario(spec), std::runtime_error);
  spec.coordinator = "sum";
  spec.qos = "best-effort";
  EXPECT_THROW((void)run_scenario(spec), std::runtime_error);
}

TEST(RunScenario, IdenticalAppSectionsGetDistinctNoiseStreams) {
  // Two identical noisy tenants must not replay the same random stream —
  // each [app] section derives its own seed from the master (app 0 keeps
  // the master itself, pinning single-app equivalence).
  ScenarioSpec spec;
  spec.apps.resize(2);
  for (AppSpec& app : spec.apps) {
    app.trace = "diurnal";
    app.trace_params["peak"] = "800";
    app.trace_params["noise"] = "0.05";
  }
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_NE(result.apps[0].qos_stats.offered_requests,
            result.apps[1].qos_stats.offered_requests);
  // An explicit per-section trace.seed still wins: pin both to the same
  // stream and the tenants collapse onto identical traces again.
  ScenarioSpec pinned = spec;
  pinned.apps[0].trace_params["seed"] = "3";
  pinned.apps[1].trace_params["seed"] = "3";
  const ScenarioResult same = run_scenario(pinned);
  EXPECT_DOUBLE_EQ(same.apps[0].qos_stats.offered_requests,
                   same.apps[1].qos_stats.offered_requests);
}

TEST(ScenarioSpec, ReplicasParseValidateAndRoundTrip) {
  const ScenarioSpec spec = parse_scenario(
      "[app]\nname = web\nreplicas = 3\ntrace = constant\n"
      "trace.rate = 100\ntrace.duration = 60\n");
  ASSERT_EQ(spec.apps.size(), 1u);
  EXPECT_EQ(spec.apps[0].replicas, 3);
  const std::string text = write_scenario(spec);
  EXPECT_NE(text.find("replicas = 3"), std::string::npos);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_THROW((void)parse_scenario("[app]\nreplicas = 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\nreplicas = -2\n"),
               std::runtime_error);
}

TEST(RunScenario, ReplicasMatchExplicitlyStampedSections) {
  // `replicas = N` must be pure syntax sugar: the expansion (derived
  // names, per-expanded-index seeds, shared fault domain) lands on
  // exactly the simulation that N hand-written identical sections
  // produce — which also pins the trace dedup sharing one materialised
  // trace across the copies.
  const char* replicated =
      "seed = 11\nfaults.mtbf = 1200\nfaults.mttr = 300\nfaults.seed = 3\n"
      "[app]\nname = web\nreplicas = 3\ntrace = step\n"
      "trace.segments = 150:600;1900:600\nfault_domain = pool\n"
      "[app]\nname = batch\ntrace = constant\ntrace.rate = 300\n"
      "trace.duration = 1200\nscheduler = reactive\n";
  const char* expanded =
      "seed = 11\nfaults.mtbf = 1200\nfaults.mttr = 300\nfaults.seed = 3\n"
      "[app]\nname = web-0\ntrace = step\n"
      "trace.segments = 150:600;1900:600\nfault_domain = pool\n"
      "[app]\nname = web-1\ntrace = step\n"
      "trace.segments = 150:600;1900:600\nfault_domain = pool\n"
      "[app]\nname = web-2\ntrace = step\n"
      "trace.segments = 150:600;1900:600\nfault_domain = pool\n"
      "[app]\nname = batch\ntrace = constant\ntrace.rate = 300\n"
      "trace.duration = 1200\nscheduler = reactive\n";
  const ScenarioResult a = run_scenario(parse_scenario(replicated));
  const ScenarioResult b = run_scenario(parse_scenario(expanded));
  ASSERT_EQ(a.apps.size(), 4u);
  ASSERT_EQ(b.apps.size(), 4u);
  EXPECT_EQ(a.sim.reconfigurations, b.sim.reconfigurations);
  EXPECT_EQ(a.sim.machine_failures, b.sim.machine_failures);
  EXPECT_EQ(a.sim.peak_machines, b.sim.peak_machines);
  EXPECT_DOUBLE_EQ(a.sim.compute_energy, b.sim.compute_energy);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].failures, b.apps[i].failures);
    EXPECT_DOUBLE_EQ(a.apps[i].compute_energy, b.apps[i].compute_energy);
  }
}

TEST(RunSweep, SharedTraceRejectsAppScopedTraceAxes) {
  ScenarioSpec spec;
  spec.apps.resize(1);
  spec.sweeps.push_back(SweepAxis{"app0.trace.rate", {"100", "200"}});
  const LoadTrace trace({10.0, 20.0});
  SweepOptions options;
  options.threads = 1;
  options.shared_trace = &trace;
  EXPECT_THROW((void)run_sweep(spec, options), std::runtime_error);
}

TEST(ScenarioSpec, AppAxisValuesAreProbedAtParseTime) {
  EXPECT_THROW(
      (void)parse_scenario("[app]\nsweep app0.qos = tolerant,bogus\n"),
      std::runtime_error);
}

// ------------------------------------------------------- runtime faults

constexpr const char* kFaultySpec = R"(name = faulty
seed = 9
faults.mtbf = 3600
faults.mttr = 600
faults.seed = 21
[app]
name = web
trace = constant
trace.rate = 1200
trace.duration = 43200
fault_domain = pool
[app]
name = api
trace = constant
trace.rate = 600
trace.duration = 43200
fault_domain = pool
[app]
name = batch
trace = constant
trace.rate = 300
trace.duration = 43200
)";

TEST(ScenarioSpec, ParsesFaultKeysAndRoundTrips) {
  const ScenarioSpec spec = parse_scenario(kFaultySpec);
  EXPECT_DOUBLE_EQ(spec.fault_mtbf, 3600.0);
  EXPECT_DOUBLE_EQ(spec.fault_mttr, 600.0);
  EXPECT_EQ(spec.fault_seed, 21);
  ASSERT_EQ(spec.apps.size(), 3u);
  EXPECT_EQ(spec.apps[0].fault_domain, "pool");
  EXPECT_EQ(spec.apps[1].fault_domain, "pool");
  EXPECT_EQ(spec.apps[2].fault_domain, "");
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
  // The default spec (no fault seed) round-trips without the key.
  const ScenarioSpec plain;
  EXPECT_EQ(write_scenario(plain).find("faults.seed"), std::string::npos);
  EXPECT_EQ(parse_scenario(write_scenario(plain)), plain);
}

TEST(ScenarioSpec, NonPositiveCoordinatorBudgetIsANamedError) {
  // The coordinator reads a budget <= 0 as none: `partitioned` with a
  // budget of -5 ran unclamped, as `sum` does, without a word.
  for (const char* text :
       {"coordinator = partitioned\ncoordinator.budget = -5\n",
        "coordinator.budget = 0\n",
        "sweep coordinator.budget = 3500,-5\n"}) {
    try {
      (void)parse_scenario(text);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("coordinator.budget"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_scenario("coordinator.budget = 0.5\n").coordinator_budget,
            "0.5");
  EXPECT_EQ(
      parse_scenario("coordinator.budget = design-max\n").coordinator_budget,
      "design-max");
}

TEST(ScenarioSpec, NumericKeysRejectTrailingGarbageNamingTheKey) {
  // Full-token numeric parsing: "3x" must never silently parse as 3, and
  // the error must name the offending key.
  const std::pair<const char*, const char*> cases[] = {
      {"faults.mtbf = 3x\n", "faults.mtbf"},
      {"faults.mttr = 60s\n", "faults.mttr"},
      {"faults.seed = 7q\n", "faults.seed"},
      {"seed = 1 2\n", "seed"},
      {"coordinator.budget = 35o0\n", "coordinator.budget"},
      {"design.max_rate = 10x0\n", "design.max_rate"},
      {"[app]\nshare = 2x\n", "share"},
  };
  for (const auto& [text, key] : cases) {
    try {
      (void)parse_scenario(text);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << "error '" << e.what() << "' does not name key " << key;
    }
  }
  // Sweep axis values go through the same probing.
  try {
    (void)parse_scenario("sweep faults.mtbf = 3600,1h\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("faults.mtbf"), std::string::npos);
  }
  EXPECT_THROW((void)parse_scenario("faults.mtbf = -5\n"),
               std::runtime_error);
}

TEST(RunScenario, FaultySpecReportsPerDomainAvailability) {
  const ScenarioResult result = run_scenario(parse_scenario(kFaultySpec));
  ASSERT_EQ(result.apps.size(), 3u);
  EXPECT_GT(result.sim.machine_failures, 0);
  EXPECT_LT(result.sim.availability, 1.0);
  // web and api share the "pool" domain; batch has its own.
  EXPECT_EQ(result.apps[0].failures, result.apps[1].failures);
  EXPECT_EQ(result.apps[0].unavailable_seconds,
            result.apps[1].unavailable_seconds);
  EXPECT_EQ(result.apps[0].failures + result.apps[2].failures,
            result.sim.machine_failures);
}

TEST(RunSweep, FaultAxesShareOneBuildAndStayDeterministic) {
  // faults.* axes are runtime-only: the catalog / trace / design build is
  // shared across the whole grid even though the rows differ, and the CSV
  // stays byte-identical across thread counts.
  ScenarioSpec spec;
  spec.name = "faulty-grid";
  spec.trace = "constant";
  spec.trace_params["rate"] = "1500";
  spec.trace_params["duration"] = "43200";
  spec.sweeps.push_back(SweepAxis{"faults.mtbf", {"1800", "7200"}});
  spec.sweeps.push_back(SweepAxis{"faults.seed", {"1", "2"}});

  const std::uint64_t before = CombinationTable::built_count();
  const SweepReport one = run_sweep(spec, SweepOptions{.threads = 1});
  EXPECT_EQ(CombinationTable::built_count() - before, 1u);
  ASSERT_EQ(one.rows.size(), 4u);
  for (const SweepRow& row : one.rows) {
    EXPECT_TRUE(configured_channels(row.spec).faults);
    EXPECT_GT(row.sim.machine_failures, 0);
    EXPECT_LT(row.sim.availability, 1.0);
  }
  // More frequent strikes cost more availability (same seed, same trace).
  EXPECT_LT(one.rows[0].sim.availability, one.rows[2].sim.availability);
  // Different fault seeds land different timelines.
  EXPECT_NE(one.rows[0].sim.availability, one.rows[1].sim.availability);

  const SweepReport four = run_sweep(spec, SweepOptions{.threads = 4});
  EXPECT_EQ(one.to_csv(), four.to_csv());
  EXPECT_NE(one.to_csv().find("machine_failures"), std::string::npos);
  EXPECT_NE(one.to_csv().find("lost_capacity_req_s"), std::string::npos);
}

TEST(RunSweep, ZeroRateFaultConfigKeepsTheClassicCsvSchema) {
  // A spec that never enables the runtime channel must keep the exact
  // pre-fault column set — the CSV regression guard for downstream
  // tooling — and an explicit zero-rate config is byte-identical to an
  // untouched spec.
  ScenarioSpec spec;
  spec.name = "clean";
  spec.trace = "constant";
  spec.trace_params["rate"] = "400";
  spec.trace_params["duration"] = "1200";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "reactive"}});
  const SweepReport plain = run_sweep(spec, SweepOptions{.threads = 1});

  ScenarioSpec zero = spec;
  zero.fault_mtbf = 0.0;
  zero.fault_mttr = 500.0;  // configured but rate 0: channel stays off
  const SweepReport zeroed = run_sweep(zero, SweepOptions{.threads = 1});
  EXPECT_EQ(plain.to_csv(), zeroed.to_csv());

  const std::string csv = plain.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "scenario,scheduler,scheduler_name,total_energy_j,"
            "compute_energy_j,reconfiguration_energy_j,reconfigurations,"
            "qos_violation_s,served_fraction,mean_power_w,peak_machines");
}

TEST(ScenarioSpec, ParsesGroupCrewAndSloKeysAndRoundTrips) {
  const ScenarioSpec spec = parse_scenario(R"(name = resilient
faults.groups = 3
faults.group_mtbf = 14400
faults.group_mttr = 1800
faults.crews = 2
slo.window = 7200
slo.availability = 0.999
slo.spare = 0.5
[app]
name = web
slo.availability = 0.9995
slo.spare = 0.4
)");
  EXPECT_EQ(spec.fault_groups, 3);
  EXPECT_DOUBLE_EQ(spec.fault_group_mtbf, 14400.0);
  EXPECT_DOUBLE_EQ(spec.fault_group_mttr, 1800.0);
  EXPECT_EQ(spec.fault_crews, 2);
  EXPECT_DOUBLE_EQ(spec.slo_window, 7200.0);
  EXPECT_DOUBLE_EQ(spec.slo_availability, 0.999);
  EXPECT_DOUBLE_EQ(spec.slo_spare, 0.5);
  ASSERT_EQ(spec.apps.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.apps[0].slo_availability, 0.9995);
  EXPECT_DOUBLE_EQ(spec.apps[0].slo_spare, 0.4);
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
  // Defaults round-trip too (app slo keys are omitted at defaults).
  const ScenarioSpec plain;
  EXPECT_EQ(parse_scenario(write_scenario(plain)), plain);
  // Validation fails loudly at parse time, also under sweep probing.
  EXPECT_THROW((void)parse_scenario("faults.groups = -1\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("faults.groups = 2.5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("faults.crews = -2\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("faults.group_mtbf = -1\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("slo.availability = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("slo.spare = 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("slo.window = 0\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\nslo.availability = 2\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("sweep slo.availability = 0.9,1.5\n"),
               std::runtime_error);
}

TEST(RunSweep, GroupFaultAndSloColumnsArePinnedAndThreadStable) {
  // The resilience column groups land in a fixed order after the fault
  // block: group_strikes (correlated channel), then spare_seconds /
  // spare_energy_j (SLO feedback). Pinned so downstream tooling can rely
  // on the schema, and byte-identical across thread counts.
  ScenarioSpec spec;
  spec.name = "rackstruck";
  spec.trace = "constant";
  spec.trace_params["rate"] = "1500";
  spec.trace_params["duration"] = "43200";
  spec.fault_groups = 2;
  spec.fault_group_mtbf = 7200.0;
  spec.fault_group_mttr = 900.0;
  spec.fault_crews = 1;
  spec.fault_seed = 5;
  spec.slo_window = 7200.0;
  spec.slo_availability = 0.999;

  const SweepReport one = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).faults);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).groups);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).slo);
  EXPECT_GT(one.rows[0].sim.group_strikes, 0);
  EXPECT_GT(one.rows[0].sim.spare_seconds, 0);

  const std::string csv = one.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "scenario,scheduler_name,total_energy_j,compute_energy_j,"
            "reconfiguration_energy_j,reconfigurations,qos_violation_s,"
            "served_fraction,mean_power_w,peak_machines,machine_failures,"
            "availability,lost_capacity_req_s,group_strikes,spare_seconds,"
            "spare_energy_j");
  const SweepReport four = run_sweep(spec, SweepOptions{.threads = 4});
  EXPECT_EQ(csv, four.to_csv());
}

TEST(RunSweep, ZeroRateGroupConfigKeepsTheNoFaultCsvSchema) {
  // Groups without a strike rate (and an SLO target without any fault
  // channel... which can never trip) must not change the schema: column
  // gating is a function of the *active* configuration.
  ScenarioSpec spec;
  spec.name = "clean";
  spec.trace = "constant";
  spec.trace_params["rate"] = "400";
  spec.trace_params["duration"] = "1200";
  const SweepReport plain = run_sweep(spec, SweepOptions{.threads = 1});

  ScenarioSpec zero = spec;
  zero.fault_groups = 4;      // racks declared...
  zero.fault_group_mtbf = 0;  // ...but the channel never fires
  zero.fault_group_mttr = 600.0;
  zero.fault_crews = 3;
  const SweepReport zeroed = run_sweep(zero, SweepOptions{.threads = 1});
  EXPECT_EQ(plain.to_csv(), zeroed.to_csv());
  EXPECT_EQ(plain.to_csv().find("group_strikes"), std::string::npos);
}

TEST(ScenarioSpec, ParsesDegradePriorityKeysAndValidatesNamed) {
  const ScenarioSpec spec = parse_scenario(R"(name = graceful
degrade.overload_factor = 0.5
degrade.penalty = 0.4
[app]
name = web
priority = 2
[app]
name = batch
)");
  EXPECT_DOUBLE_EQ(spec.degrade_overload_factor, 0.5);
  EXPECT_DOUBLE_EQ(spec.degrade_penalty, 0.4);
  ASSERT_EQ(spec.apps.size(), 2u);
  EXPECT_EQ(spec.apps[0].priority, 2);
  EXPECT_EQ(spec.apps[1].priority, 0);
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
  // Defaults stay out of the canonical form entirely.
  EXPECT_EQ(write_scenario(ScenarioSpec()).find("degrade"),
            std::string::npos);
  EXPECT_EQ(write_scenario(ScenarioSpec()).find("priority"),
            std::string::npos);
  // Malformed values fail loudly at parse time, naming the offending key
  // and the accepted range — also under sweep-axis probing.
  try {
    (void)parse_scenario("degrade.penalty = 1.5\n");
    FAIL() << "expected a validation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("degrade.penalty"), std::string::npos) << what;
    EXPECT_NE(what.find("[0, 1]"), std::string::npos) << what;
  }
  try {
    (void)parse_scenario("degrade.overload_factor = -0.5\n");
    FAIL() << "expected a validation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("degrade.overload_factor"), std::string::npos)
        << what;
  }
  EXPECT_THROW((void)parse_scenario("priority = -1\n"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\npriority = -2\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\npriority = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("sweep degrade.penalty = 0.4,1.5\n"),
               std::runtime_error);
}

TEST(RunScenario, PriorityOnSingleWorkloadSumSpecIsANamedError) {
  // A priority class on a spec with one workload under the sum
  // coordinator can never rank anything — the build refuses with the key
  // named instead of silently ignoring it.
  ScenarioSpec spec;
  spec.trace_params["rate"] = "100";
  spec.trace_params["duration"] = "60";
  spec.priority = 1;
  try {
    (void)run_scenario(spec);
    FAIL() << "expected a validation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("priority"), std::string::npos) << what;
    EXPECT_NE(what.find("coordinator = sum"), std::string::npos) << what;
  }
  // Under the partitioned coordinator the class participates in the
  // budget trim ordering, so the same spec runs.
  spec.coordinator = "partitioned";
  EXPECT_NO_THROW((void)run_scenario(spec));
}

TEST(RunScenario, SeasonalPeriodShorterThanWindowIsANamedError) {
  // The default BML window (378 s on the real catalog) is longer than the
  // period, so the seasonal window would read samples at or after `now`:
  // the run refuses instead of letting a history-only predictor see the
  // future.
  const ScenarioSpec spec = parse_scenario(
      "trace = constant\ntrace.rate = 100\ntrace.duration = 900\n"
      "predictor = seasonal\npredictor.period = 300\n");
  try {
    (void)run_scenario(spec);
    FAIL() << "expected a validation error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("SeasonalPredictor"), std::string::npos) << what;
    EXPECT_NE(what.find("period"), std::string::npos) << what;
  }
}

TEST(RunScenario, MicroBurstLongerThanADayIsANamedError) {
  // A micro-burst must start inside its day. One longer than the day has
  // no start to draw from: the run refuses with the key named instead of
  // dropping the burst at a garbage offset.
  const ScenarioSpec spec = parse_scenario(
      "trace = worldcup_like\ntrace.days = 2\n"
      "trace.micro_burst_min_duration = 90000\n"
      "trace.micro_burst_max_duration = 100000\n");
  try {
    (void)run_scenario(spec);
    FAIL() << "expected a validation error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("micro_burst_max_duration"), std::string::npos)
        << what;
  }
}

TEST(RunSweep, DegradePriorityColumnsArePinnedAndThreadStable) {
  // The graceful-degradation column groups land in a fixed order after
  // the SLO block: overload_seconds / penalty_lost_req_s (degrade
  // model), then preemptions (priority classes); per-app groups append
  // overload_seconds / penalty_lost_req_s / preempted_seconds. Pinned so
  // downstream tooling can rely on the schema, and byte-identical across
  // thread counts.
  const ScenarioSpec spec = parse_scenario(R"(name = graceful
seed = 7
coordinator = partitioned
faults.groups = 2
faults.group_mtbf = 7200
faults.group_mttr = 1200
faults.crews = 1
faults.seed = 5
degrade.overload_factor = 0.5
degrade.penalty = 0.4
[app]
name = web
trace = constant
trace.rate = 1200
trace.duration = 43200
priority = 2
fault_domain = pool
[app]
name = batch
trace = constant
trace.rate = 500
trace.duration = 43200
fault_domain = pool
)");
  const SweepReport one = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).degrade);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).priority);
  // Strikes shrank the fleet below the offered 1700 req/s, so the
  // surviving machines ran overloaded and batch capacity was preempted.
  EXPECT_GT(one.rows[0].sim.overload_seconds, 0);
  EXPECT_GT(one.rows[0].sim.penalty_lost_capacity, 0.0);
  EXPECT_GT(one.rows[0].sim.preemptions, 0);
  ASSERT_EQ(one.rows[0].apps.size(), 2u);
  EXPECT_EQ(one.rows[0].apps[0].preempted_seconds, 0);
  EXPECT_GT(one.rows[0].apps[1].preempted_seconds, 0);

  const std::string csv = one.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "scenario,scheduler_name,total_energy_j,compute_energy_j,"
            "reconfiguration_energy_j,reconfigurations,qos_violation_s,"
            "served_fraction,mean_power_w,peak_machines,machine_failures,"
            "availability,lost_capacity_req_s,group_strikes,"
            "overload_seconds,penalty_lost_req_s,preemptions,"
            "app0_name,app0_compute_energy_j,app0_reconfiguration_energy_j,"
            "app0_qos_violation_s,app0_served_fraction,app0_availability,"
            "app0_lost_capacity_req_s,app0_overload_seconds,"
            "app0_penalty_lost_req_s,app0_preempted_seconds,"
            "app1_name,app1_compute_energy_j,app1_reconfiguration_energy_j,"
            "app1_qos_violation_s,app1_served_fraction,app1_availability,"
            "app1_lost_capacity_req_s,app1_overload_seconds,"
            "app1_penalty_lost_req_s,app1_preempted_seconds");
  const SweepReport four = run_sweep(spec, SweepOptions{.threads = 4});
  EXPECT_EQ(csv, four.to_csv());
}

TEST(RunSweep, UnconfiguredDegradeAndEqualPrioritiesKeepTheSchema) {
  // degrade.overload_factor = 0 (spill-over dropped) with a non-default
  // penalty, and priority classes that are all equal, must not change a
  // single CSV byte: gating is a function of the *active* configuration,
  // and an all-equal ranking ranks nothing.
  ScenarioSpec spec = parse_scenario(R"(name = clean
[app]
name = a
trace = constant
trace.rate = 300
trace.duration = 1200
[app]
name = b
trace = constant
trace.rate = 200
trace.duration = 1200
)");
  const SweepReport plain = run_sweep(spec, SweepOptions{.threads = 1});

  ScenarioSpec zero = spec;
  zero.degrade_penalty = 0.9;  // a penalty with nothing to absorb
  zero.apps[0].priority = 3;   // all-equal classes
  zero.apps[1].priority = 3;
  const SweepReport zeroed = run_sweep(zero, SweepOptions{.threads = 1});
  EXPECT_EQ(plain.to_csv(), zeroed.to_csv());
  EXPECT_EQ(plain.to_csv().find("overload_seconds"), std::string::npos);
  EXPECT_EQ(plain.to_csv().find("preemptions"), std::string::npos);
}

TEST(ScenarioSpec, ParsesLifecycleKeysAndValidates) {
  const ScenarioSpec spec = parse_scenario(R"(name = lifecycle
churn.interarrival = 1800
churn.lifetime = 1200
churn.template = 1
churn.max = 3
churn.seed = 11
[app]
name = web
arrive = 600
[app]
name = batch
depart = 5400
)");
  EXPECT_DOUBLE_EQ(spec.churn_interarrival, 1800.0);
  EXPECT_DOUBLE_EQ(spec.churn_lifetime, 1200.0);
  EXPECT_EQ(spec.churn_template, 1);
  EXPECT_EQ(spec.churn_max, 3);
  EXPECT_EQ(spec.churn_seed, 11);
  ASSERT_EQ(spec.apps.size(), 2u);
  EXPECT_EQ(spec.apps[0].arrive, 600);
  EXPECT_EQ(spec.apps[0].depart, -1);
  EXPECT_EQ(spec.apps[1].arrive, 0);
  EXPECT_EQ(spec.apps[1].depart, 5400);
  const std::string text = write_scenario(spec);
  EXPECT_EQ(parse_scenario(text), spec);
  EXPECT_EQ(write_scenario(parse_scenario(text)), text);
  // Defaults stay out of the canonical form entirely.
  EXPECT_EQ(write_scenario(ScenarioSpec()).find("churn"), std::string::npos);
  EXPECT_EQ(write_scenario(ScenarioSpec()).find("arrive"), std::string::npos);
  EXPECT_THROW((void)parse_scenario("[app]\narrive = -5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("[app]\ndepart = 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario("churn.interarrival = -1\n"),
               std::runtime_error);
}

TEST(RunScenario, LifecycleMisconfigurationsAreNamedErrors) {
  // A lone churn rate, a template index past the declared sections, and a
  // departure at or before the arrival all refuse loudly at build time.
  ScenarioSpec spec;
  spec.trace_params["rate"] = "100";
  spec.trace_params["duration"] = "600";
  spec.churn_interarrival = 300.0;
  try {
    (void)run_scenario(spec);
    FAIL() << "expected a validation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("churn.interarrival"), std::string::npos) << what;
    EXPECT_NE(what.find("churn.lifetime"), std::string::npos) << what;
  }
  spec.churn_lifetime = 300.0;
  spec.churn_template = 2;
  try {
    (void)run_scenario(spec);
    FAIL() << "expected a validation error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("churn.template"), std::string::npos) << what;
  }
  ScenarioSpec bad;
  bad.trace_params["rate"] = "100";
  bad.trace_params["duration"] = "600";
  bad.apps.push_back(AppSpec{});
  bad.apps.push_back(AppSpec{});
  bad.apps[1].arrive = 300;
  bad.apps[1].depart = 300;
  EXPECT_THROW((void)run_scenario(bad), std::invalid_argument);
}

TEST(RunSweep, ChurnColumnsArePinnedAndThreadStable) {
  // A configured tenant lifecycle appends arrivals / departures after the
  // classic cluster block and active_seconds at the end of each per-app
  // group. Pinned so downstream tooling can rely on the schema, and
  // byte-identical across thread counts. churn.max = 1 with a short mean
  // interarrival guarantees exactly one clone materializes.
  const ScenarioSpec spec = parse_scenario(R"(name = churny
seed = 7
coordinator = partitioned
churn.interarrival = 600
churn.lifetime = 1800
churn.max = 1
[app]
name = web
trace = constant
trace.rate = 900
trace.duration = 7200
[app]
name = batch
trace = constant
trace.rate = 400
trace.duration = 7200
depart = 3600
)");
  const SweepReport one = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_TRUE(configured_channels(one.rows[0].spec).churn);
  EXPECT_EQ(one.rows[0].sim.arrivals, 1);
  EXPECT_GE(one.rows[0].sim.departures, 1);
  ASSERT_EQ(one.rows[0].apps.size(), 3u);
  EXPECT_EQ(one.rows[0].apps[1].active_seconds, 3600);
  EXPECT_LT(one.rows[0].apps[2].active_seconds, 7200);

  const std::string csv = one.to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(header,
            "scenario,scheduler_name,total_energy_j,compute_energy_j,"
            "reconfiguration_energy_j,reconfigurations,qos_violation_s,"
            "served_fraction,mean_power_w,peak_machines,arrivals,departures,"
            "app0_name,app0_compute_energy_j,app0_reconfiguration_energy_j,"
            "app0_qos_violation_s,app0_served_fraction,app0_active_seconds,"
            "app1_name,app1_compute_energy_j,app1_reconfiguration_energy_j,"
            "app1_qos_violation_s,app1_served_fraction,app1_active_seconds,"
            "app2_name,app2_compute_energy_j,app2_reconfiguration_energy_j,"
            "app2_qos_violation_s,app2_served_fraction,app2_active_seconds");
  const SweepReport four = run_sweep(spec, SweepOptions{.threads = 4});
  EXPECT_EQ(csv, four.to_csv());
}

TEST(RunSweep, ChurnFreeSpecsKeepTheSchema) {
  // Without churn rates or an active interval on any app, not a single
  // CSV byte changes — the lifecycle machinery stays entirely out of the
  // way (the run does not even enable it).
  const ScenarioSpec spec = parse_scenario(R"(name = clean
[app]
name = a
trace = constant
trace.rate = 300
trace.duration = 1200
[app]
name = b
trace = constant
trace.rate = 200
trace.duration = 1200
)");
  const SweepReport plain = run_sweep(spec, SweepOptions{.threads = 1});
  EXPECT_FALSE(configured_channels(plain.rows[0].spec).churn);
  EXPECT_EQ(plain.to_csv().find("arrivals"), std::string::npos);
  EXPECT_EQ(plain.to_csv().find("active_seconds"), std::string::npos);
  // An explicit arrive = 0 / depart = -1 pair is the always-active
  // default, not a configured lifecycle.
  ScenarioSpec defaults = spec;
  defaults.apps[0].arrive = 0;
  defaults.apps[1].depart = -1;
  const SweepReport same = run_sweep(defaults, SweepOptions{.threads = 1});
  EXPECT_EQ(plain.to_csv(), same.to_csv());
}

/// A CSV split into lines of comma-separated cells. It does not unquote:
/// the specs it reads sweep at most one axis, so no cell needs quotes.
std::vector<std::vector<std::string>> csv_cells(const std::string& csv) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    std::vector<std::string> cells{""};
    for (const char c : line) {
      if (c == ',')
        cells.emplace_back();
      else
        cells.back() += c;
    }
    lines.push_back(std::move(cells));
  }
  return lines;
}

TEST(RunSweep, EveryColumnGroupIsPinnedAndShortRowsArePadded) {
  // Every gated group configured at once: faults, rack groups, SLO,
  // degrade, two priority classes and churn. The churn.max axis gives one
  // row 3 tenants and the other 4, so the 3-tenant row pads its missing
  // app3 group with blanks. Column order: scenario, axes, the cluster
  // table, then the per-app table once per app slot.
  const ScenarioSpec spec = parse_scenario(R"(name = everything
seed = 7
faults.mtbf = 7200
faults.mttr = 600
faults.groups = 2
faults.group_mtbf = 7200
faults.group_mttr = 1200
faults.crews = 1
faults.seed = 5
slo.window = 3600
degrade.overload_factor = 0.5
degrade.penalty = 0.4
churn.interarrival = 600
churn.lifetime = 1800
churn.template = 1
sweep churn.max = 1,2
[app]
name = web
trace = constant
trace.rate = 900
trace.duration = 7200
priority = 2
slo.availability = 0.999
[app]
name = batch
trace = constant
trace.rate = 400
trace.duration = 7200
)");
  const SweepReport one = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(one.rows.size(), 2u);
  EXPECT_EQ(one.rows[0].apps.size(), 3u);
  EXPECT_EQ(one.rows[1].apps.size(), 4u);

  const std::string csv = one.to_csv();
  std::string app_groups;
  for (int i = 0; i < 4; ++i) {
    const std::string p = ",app" + std::to_string(i) + "_";
    for (const char* column :
         {"name", "compute_energy_j", "reconfiguration_energy_j",
          "qos_violation_s", "served_fraction", "availability",
          "lost_capacity_req_s", "spare_seconds", "spare_energy_j",
          "overload_seconds", "penalty_lost_req_s", "preempted_seconds",
          "active_seconds"})
      app_groups += p + column;
  }
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "scenario,churn.max,scheduler_name,total_energy_j,"
            "compute_energy_j,reconfiguration_energy_j,reconfigurations,"
            "qos_violation_s,served_fraction,mean_power_w,peak_machines,"
            "machine_failures,availability,lost_capacity_req_s,"
            "group_strikes,spare_seconds,spare_energy_j,overload_seconds,"
            "penalty_lost_req_s,preemptions,arrivals,departures" +
                app_groups);

  const auto lines = csv_cells(csv);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::vector<std::string>& cells : lines)
    ASSERT_EQ(cells.size(), 74u);
  // The 3-tenant row: app2 is the one clone, app3 is all blanks.
  EXPECT_EQ(lines[1][20], "1");  // arrivals
  EXPECT_EQ(lines[1][48], "batch+c0");
  for (std::size_t c = 61; c < 74; ++c) EXPECT_EQ(lines[1][c], "") << c;
  EXPECT_EQ(lines[2][20], "2");
  EXPECT_EQ(lines[2][61], "batch+c1");

  const SweepReport four = run_sweep(spec, SweepOptions{.threads = 4});
  EXPECT_EQ(csv, four.to_csv());
}

TEST(RunSweep, ChurnColumnsGateOnConfigurationNotArrivals) {
  // Churn rates are set, but the first clone would arrive far past the
  // horizon: no tenant ever arrives, yet the churn columns appear (with
  // zero arrivals) because the gate is the configuration, not the outcome.
  const ScenarioSpec spec = parse_scenario(R"(name = late
churn.interarrival = 1e12
churn.lifetime = 1800
[app]
name = web
trace = constant
trace.rate = 900
trace.duration = 3600
[app]
name = batch
trace = constant
trace.rate = 400
trace.duration = 3600
)");
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].sim.arrivals, 0);
  EXPECT_EQ(report.rows[0].apps.size(), 2u);
  EXPECT_TRUE(configured_channels(report.rows[0].spec).churn);

  const auto lines = csv_cells(report.to_csv());
  ASSERT_EQ(lines.size(), 2u);
  const std::vector<std::string> expected_header{
      "scenario", "scheduler_name", "total_energy_j", "compute_energy_j",
      "reconfiguration_energy_j", "reconfigurations", "qos_violation_s",
      "served_fraction", "mean_power_w", "peak_machines", "arrivals",
      "departures", "app0_name", "app0_compute_energy_j",
      "app0_reconfiguration_energy_j", "app0_qos_violation_s",
      "app0_served_fraction", "app0_active_seconds", "app1_name",
      "app1_compute_energy_j", "app1_reconfiguration_energy_j",
      "app1_qos_violation_s", "app1_served_fraction", "app1_active_seconds"};
  EXPECT_EQ(lines[0], expected_header);
  ASSERT_EQ(lines[1].size(), expected_header.size());
  EXPECT_EQ(lines[1][10], "0");     // arrivals
  EXPECT_EQ(lines[1][11], "0");     // departures
  EXPECT_EQ(lines[1][17], "3600");  // app0_active_seconds
  EXPECT_EQ(lines[1][23], "3600");  // app1_active_seconds
}

TEST(RunSweep, DegradeAndPriorityAxesKeepTheSharedBuild) {
  // degrade.* and priority (like faults.* / slo.*) are runtime-only:
  // sweeping them must not force per-scenario catalog / trace / design
  // rebuilds.
  ScenarioSpec spec = parse_scenario(R"(name = graceful-grid
coordinator = partitioned
[app]
name = web
trace = constant
trace.rate = 900
trace.duration = 7200
[app]
name = batch
trace = constant
trace.rate = 400
trace.duration = 7200
)");
  spec.sweeps.push_back(SweepAxis{"degrade.overload_factor", {"0", "0.5"}});
  spec.sweeps.push_back(SweepAxis{"app0.priority", {"0", "2"}});
  const std::uint64_t before = CombinationTable::built_count();
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 2});
  EXPECT_EQ(CombinationTable::built_count() - before, 1u);
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_FALSE(configured_channels(report.rows[0].spec).degrade);
  EXPECT_FALSE(configured_channels(report.rows[0].spec).priority);
  EXPECT_TRUE(configured_channels(report.rows[1].spec).priority);
  EXPECT_TRUE(configured_channels(report.rows[2].spec).degrade);
  EXPECT_TRUE(configured_channels(report.rows[3].spec).degrade);
  EXPECT_TRUE(configured_channels(report.rows[3].spec).priority);
}

TEST(RunSweep, SloAxesKeepTheSharedBuild) {
  // slo.* (like faults.*) is runtime-only: sweeping it must not force
  // per-scenario catalog / trace / design rebuilds.
  ScenarioSpec spec;
  spec.name = "slo-grid";
  spec.trace = "constant";
  spec.trace_params["rate"] = "1200";
  spec.trace_params["duration"] = "43200";
  spec.fault_groups = 2;
  spec.fault_group_mtbf = 7200.0;
  spec.fault_group_mttr = 1200.0;
  spec.fault_seed = 3;
  spec.slo_window = 7200.0;
  spec.sweeps.push_back(SweepAxis{"slo.availability", {"0", "0.999"}});
  const std::uint64_t before = CombinationTable::built_count();
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 2});
  EXPECT_EQ(CombinationTable::built_count() - before, 1u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_FALSE(configured_channels(report.rows[0].spec).slo);
  EXPECT_TRUE(configured_channels(report.rows[1].spec).slo);
  EXPECT_EQ(report.rows[0].sim.spare_seconds, 0);
  EXPECT_GT(report.rows[1].sim.spare_seconds, 0);
  // The strike *timeline* is state-independent, but whether a strike
  // fells anything is not: provisioned spares can turn a strike on an
  // otherwise-empty stripe into a landed one, so the landed counts may
  // legitimately differ between the rows. Both rows see landed strikes.
  EXPECT_GT(report.rows[0].sim.group_strikes, 0);
  EXPECT_GT(report.rows[1].sim.group_strikes, 0);
}

TEST(Registry, UnknownComponentsListAlternatives) {
  try {
    (void)make_trace("sinusoid", {}, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("diurnal"), std::string::npos);
  }
  EXPECT_THROW((void)make_catalog("imaginary", {}), std::runtime_error);
  EXPECT_THROW((void)make_predictor("psychic", {}, 1), std::runtime_error);
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  EXPECT_THROW((void)make_scheduler("optimal", {}, design,
                                    std::make_shared<OracleMaxPredictor>(),
                                    QosClass::kTolerant),
               std::runtime_error);
}

TEST(Registry, UnknownParameterThrows) {
  try {
    (void)make_trace("constant", {{"rate", "10"}, {"peek", "20"}}, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("peek"), std::string::npos);
  }
}

TEST(Registry, BadParameterValueThrows) {
  try {
    (void)make_trace("constant", {{"rate", "fast"}}, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos);
  }
  // Windows, periods and horizons longer than 2^53 s are named errors,
  // not casts that overflow a TimePoint: predictor.window and
  // predictor.period when the predictor is built, scheduler.window (the
  // predictor's horizon) when the scheduler first reads a trace.
  for (const auto& [predictor, key] :
       {std::pair{"moving-max", "window"}, std::pair{"linear-trend", "window"},
        std::pair{"seasonal", "period"}}) {
    try {
      (void)make_predictor(predictor, {{key, "1e300"}}, 1);
      FAIL() << "expected std::invalid_argument for " << predictor;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const LoadTrace trace({100.0, 100.0});
  for (const char* predictor : {"oracle-max", "seasonal"}) {
    const std::unique_ptr<Scheduler> scheduler =
        make_scheduler("bml", {{"window", "1e300"}}, design,
                       make_predictor(predictor, {}, 1), QosClass::kTolerant);
    try {
      (void)scheduler->decide(0, trace);
      FAIL() << "expected std::invalid_argument for " << predictor;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("horizon"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Registry, NegativeSchedulerWindowIsANamedError) {
  // A window <= 0 selects the default, so -1 used to run as 0 does: a
  // one-day diurnal sweep over scheduler.window = -1,378,0 gave three
  // equal rows.
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  for (const auto& [scheduler, key] :
       {std::pair{"bml", "window"}, std::pair{"hysteresis", "window"},
        std::pair{"cost-aware", "window"},
        std::pair{"cost-aware", "payback_window"}}) {
    try {
      (void)make_scheduler(scheduler, {{key, "-1"}}, design,
                           make_predictor("oracle-max", {}, 1),
                           QosClass::kTolerant);
      FAIL() << "expected std::runtime_error for " << scheduler << " " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(key) + "'"),
                std::string::npos)
          << e.what();
    }
    // 0 still selects the default.
    EXPECT_NE(make_scheduler(scheduler, {{key, "0"}}, design,
                             make_predictor("oracle-max", {}, 1),
                             QosClass::kTolerant),
              nullptr);
  }
  const ScenarioSpec spec = parse_scenario(
      "trace = diurnal\ntrace.days = 1\nsweep scheduler.window = "
      "-1,378,0\n");
  try {
    (void)run_sweep(spec, {.threads = 1});
    FAIL() << "expected std::runtime_error for the -1 row";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, NegativeCountsAreErrorsNotWraps) {
  try {
    (void)make_trace("diurnal", {{"days", "-1"}}, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("days"), std::string::npos);
  }
  EXPECT_THROW(
      (void)make_trace("worldcup_like", {{"tournament_start_day", "-4"}}, 1),
      std::runtime_error);
  EXPECT_THROW((void)make_predictor("oracle-max", {{"error_seed", "-2"}}, 1),
               std::runtime_error);
}

TEST(Registry, NegativeNoiseAndEmptyTracesAreNamedErrors) {
  // A negative noise would silently drop the noise, and an empty trace
  // would replay no second and report every request served.
  for (const char* generator : {"diurnal", "worldcup_like"}) {
    try {
      (void)make_trace(generator, {{"noise", "-1"}}, 1);
      FAIL() << "expected std::invalid_argument for " << generator;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("noise"), std::string::npos)
          << e.what();
    }
  }
  const std::tuple<const char*, const char*, const char*> empty[] = {
      {"diurnal", "days", "0"},
      {"constant", "duration", "0"},
      {"step", "segments", "500:0;20:0.5"},
  };
  for (const auto& [generator, key, value] : empty) {
    try {
      (void)make_trace(generator, {{key, value}}, 1);
      FAIL() << "expected std::runtime_error for " << generator;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(generator), std::string::npos) << what;
      EXPECT_NE(what.find("empty"), std::string::npos) << what;
    }
  }
  // The same through a spec.
  EXPECT_THROW((void)run_scenario(parse_scenario(
                   "trace = diurnal\ntrace.days = 0\n")),
               std::runtime_error);
}

TEST(Registry, TracesPastTheLengthLimitAreNamedErrors) {
  // LoadTrace holds at most 2^32 - 2 s. Each generator refuses a longer
  // request by name before it allocates a sample: 100,000 days asked for
  // 69 GB of samples and ended in an unnamed std::bad_alloc (under a 4 GB
  // address-space limit), 10^8 days did so anywhere. The lengths below are
  // ones no host can allocate, so a check moved after the fill fails here
  // rather than filling memory; the boundary itself is checked through
  // check_trace_seconds alone.
  const std::tuple<const char*, const char*, const char*> too_long[] = {
      {"diurnal", "days", "100000000"},
      {"worldcup_like", "days", "100000000"},
      {"constant", "duration", "1e300"},
      {"flash_crowd", "duration", "1e300"},
      {"step", "segments", "5:2;6:1e300"},
  };
  for (const auto& [generator, key, value] : too_long) {
    try {
      (void)make_trace(generator, {{key, value}}, 1);
      FAIL() << "expected std::invalid_argument for " << generator << " "
             << key << " = " << value;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(generator), std::string::npos) << what;
      EXPECT_NE(what.find("4294967294 s a LoadTrace holds"), std::string::npos)
          << what;
    }
  }
  // The same through a spec.
  EXPECT_THROW((void)run_scenario(parse_scenario(
                   "trace = diurnal\ntrace.days = 100000000\n")),
               std::invalid_argument);
  // The boundary: the longest trace passes, one second more does not
  // (49,711 days is 4,295,030,400 s), and neither does a NaN length.
  EXPECT_NO_THROW(check_trace_seconds("t", 4294967294.5));
  EXPECT_THROW(check_trace_seconds("t", 4294967295.0), std::invalid_argument);
  EXPECT_THROW(check_trace_seconds("t", 49711.0 * kSecondsPerDay),
               std::invalid_argument);
  EXPECT_THROW(check_trace_seconds("t", std::nan("")), std::invalid_argument);
}

TEST(ScenarioSpec, BootTimeJitterIsFiniteAndBounded) {
  // An unbounded jitter let a boot last ~1e308 nominal boot times, and an
  // infinite boot factor could reach the span loop's integer cast.
  for (const char* text : {"faults.boot_time_jitter = 1e308\n",
                           "faults.boot_time_jitter = 10.5\n",
                           "faults.boot_time_jitter = inf\n",
                           "sweep faults.boot_time_jitter = 0.1,11\n"}) {
    try {
      (void)parse_scenario(text);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("faults.boot_time_jitter"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_scenario("faults.boot_time_jitter = 10\n").boot_time_jitter,
            FaultModel::kMaxBootTimeJitter);
  // A programmatic fault model past the bound is refused by the cluster.
  FaultModel faults;
  faults.boot_time_jitter = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Cluster(real_catalog(), Combination{}, faults),
               std::invalid_argument);
}

TEST(Registry, BuildsEveryListedComponent) {
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  for (const ComponentInfo& info : trace_components()) {
    if (info.name == "file") continue;  // needs a path, covered below
    std::map<std::string, std::string> params;
    if (info.name == "step") params["segments"] = "100:60;200:60";
    EXPECT_GT(make_trace(info.name, params, 1).size(), 0u) << info.name;
  }
  for (const ComponentInfo& info : predictor_components())
    EXPECT_NE(make_predictor(info.name, {}, 1), nullptr) << info.name;
  for (const ComponentInfo& info : scheduler_components())
    EXPECT_NE(make_scheduler(info.name, {}, design,
                             std::make_shared<OracleMaxPredictor>(),
                             QosClass::kTolerant),
              nullptr)
        << info.name;
  for (const ComponentInfo& info : catalog_components()) {
    if (info.name == "file") continue;
    EXPECT_FALSE(make_catalog(info.name, {}).empty()) << info.name;
  }
}

TEST(Registry, SchedulersThatIgnoreTheirPredictorSayWhich) {
  // scheduler_reads_predictor is false exactly for the schedulers that
  // do not keep the predictor make_scheduler hands them.
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  for (const ComponentInfo& info : scheduler_components()) {
    auto predictor = std::make_shared<OracleMaxPredictor>();
    const auto scheduler = make_scheduler(info.name, {}, design, predictor,
                                          QosClass::kTolerant);
    EXPECT_EQ(scheduler_reads_predictor(info.name), predictor.use_count() > 1)
        << info.name;
  }
  EXPECT_TRUE(scheduler_reads_predictor("no-such-scheduler"));
}

TEST(Registry, ErrorParamsWrapAnyPredictor) {
  auto p = make_predictor("oracle-max", {{"error_sigma", "0.1"}}, 7);
  EXPECT_EQ(p->name(), "oracle-max+error");
}

TEST(Registry, TraceFileLoadsBothFormats) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto csv = dir / "bml_scn_trace.csv";
  const auto wc = dir / "bml_scn_trace.wc98";
  const LoadTrace trace({3.0, 0.0, 7.5, 7.5});
  trace.save(csv);
  save_wc98(trace, wc);
  for (const auto& path : {csv, wc}) {
    const LoadTrace loaded =
        make_trace("file", {{"file", path.string()}}, 1);
    ASSERT_EQ(loaded.size(), trace.size()) << path;
    for (TimePoint t = 0; t < 4; ++t)
      EXPECT_DOUBLE_EQ(loaded.at(t), trace.at(t)) << path << " t=" << t;
  }
  std::filesystem::remove(csv);
  std::filesystem::remove(wc);
}

TEST(Registry, TraceFileAcceptsMultiColumnCsv) {
  // load_any must route any CSV *containing* a rate column to the CSV
  // parser, not just the single-column form.
  const auto path =
      std::filesystem::temp_directory_path() / "bml_scn_multi.csv";
  {
    std::ofstream out(path);
    out << "day,rate\n0,3\n0,0\n1,7.5\n";
  }
  const LoadTrace loaded = make_trace("file", {{"file", path.string()}}, 1);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded.at(2), 7.5);
  std::filesystem::remove(path);
}

TEST(RunScenario, MatchesHandBuiltSimulation) {
  ScenarioSpec spec;
  spec.name = "hand";
  spec.trace = "step";
  spec.trace_params["segments"] = "200:1800;2500:1800;60:1800";
  spec.seed = 5;
  const ScenarioResult result = run_scenario(spec);

  const LoadTrace trace = step_trace(
      {{200.0, 1800.0}, {2500.0, 1800.0}, {60.0, 1800.0}});
  auto design = std::make_shared<BmlDesign>(BmlDesign::build(
      real_catalog(), {.max_rate = std::max(trace.peak(), 1.0)}));
  const Simulator simulator(design->candidates());
  BmlScheduler scheduler(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult expected = simulator.run(scheduler, trace);

  EXPECT_EQ(result.sim.scheduler_name, expected.scheduler_name);
  EXPECT_DOUBLE_EQ(result.sim.compute_energy, expected.compute_energy);
  EXPECT_DOUBLE_EQ(result.sim.reconfiguration_energy,
                   expected.reconfiguration_energy);
  EXPECT_EQ(result.sim.reconfigurations, expected.reconfigurations);
  EXPECT_EQ(result.sim.peak_machines, expected.peak_machines);
  EXPECT_DOUBLE_EQ(result.trace_duration, trace.duration());
}

TEST(ExpandSweep, CartesianProductInAxisOrder) {
  ScenarioSpec spec = parse_scenario(kDemoSpec);
  const std::vector<ScenarioSpec> grid = expand_sweep(spec);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].trace_params.at("peak"), "500");
  EXPECT_EQ(grid[0].predictor, "oracle-max");
  EXPECT_EQ(grid[1].trace_params.at("peak"), "500");
  EXPECT_EQ(grid[1].predictor, "moving-max");
  EXPECT_EQ(grid[3].trace_params.at("peak"), "1000");
  EXPECT_EQ(grid[3].predictor, "moving-max");
  EXPECT_EQ(grid[0].name,
            "demo[trace.peak=500,predictor=oracle-max]");
  for (const ScenarioSpec& g : grid) EXPECT_TRUE(g.sweeps.empty());
  // Untouched fields carry over.
  EXPECT_EQ(grid[2].scheduler_params.at("window"), "400");
}

/// The acceptance grid: 3 axes, >= 24 scenarios, byte-identical CSV across
/// thread counts. Short step traces keep the whole grid under a second.
ScenarioSpec determinism_grid() {
  ScenarioSpec spec;
  spec.name = "grid";
  spec.trace = "step";
  spec.trace_params["segments"] = "150:900;2300:900;80:900";
  spec.sweeps.push_back(
      SweepAxis{"scheduler", {"bml", "reactive", "static-max"}});
  spec.sweeps.push_back(
      SweepAxis{"predictor", {"oracle-max", "moving-max"}});
  spec.sweeps.push_back(SweepAxis{"trace.segments",
                                  {"150:900;2300:900;80:900",
                                   "900:600;90:600;1800:600",
                                   "60:300;700:300;60:300;700:300"}});
  spec.sweeps.push_back(SweepAxis{"qos", {"tolerant", "critical"}});
  return spec;
}

TEST(RunSweep, CsvIsByteIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = determinism_grid();
  ASSERT_GE(expand_sweep(spec).size(), 24u);

  SweepOptions serial;
  serial.threads = 1;
  const SweepReport one = run_sweep(spec, serial);
  SweepOptions parallel;
  parallel.threads = 8;
  const SweepReport eight = run_sweep(spec, parallel);

  ASSERT_EQ(one.rows.size(), 36u);
  EXPECT_EQ(one.to_csv(), eight.to_csv());
  EXPECT_EQ(one.threads, 1u);
  EXPECT_EQ(eight.threads, 8u);
}

TEST(RunSweep, RowsCarryAxisValuesAndMetrics) {
  ScenarioSpec spec;
  spec.name = "mini";
  spec.trace = "constant";
  spec.trace_params["rate"] = "400";
  spec.trace_params["duration"] = "1200";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "static-max"}});
  SweepOptions options;
  options.threads = 2;
  const SweepReport report = run_sweep(spec, options);

  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.axis_keys, std::vector<std::string>{"scheduler"});
  const SweepRow& bml_row = report.rows[0];
  EXPECT_EQ(bml_row.spec.name, "mini[scheduler=bml]");
  EXPECT_EQ(bml_row.axis_values, std::vector<std::string>{"bml"});
  EXPECT_EQ(bml_row.sim.scheduler_name, "bml(oracle-max)");
  EXPECT_GT(bml_row.sim.total_energy(), 0.0);
  EXPECT_DOUBLE_EQ(bml_row.mean_power(), bml_row.sim.total_energy() / 1200.0);
  EXPECT_GT(bml_row.sim.peak_machines, 0u);
  // Rows carry the whole result, per-day series and app slices included.
  ASSERT_EQ(bml_row.apps.size(), 1u);
  EXPECT_DOUBLE_EQ(bml_row.apps[0].compute_energy, bml_row.sim.compute_energy);
  ASSERT_EQ(bml_row.sim.per_day_compute.size(), 1u);
  EXPECT_DOUBLE_EQ(bml_row.sim.per_day_compute[0], bml_row.sim.compute_energy);
  // The always-on Big fleet burns more than BML at 400 req/s.
  EXPECT_GT(report.rows[1].sim.total_energy(), bml_row.sim.total_energy());
  // Console summary renders one line per scenario.
  const std::string table = report.summary_table();
  EXPECT_NE(table.find("mini[scheduler=bml]"), std::string::npos);
  EXPECT_NE(table.find("mini[scheduler=static-max]"), std::string::npos);
}

TEST(RunSweep, MultiAxisRowNamesAreQuotedInTheCsv) {
  // A two-axis row is named `base[k1=v1,k2=v2]`: the comma inside the name
  // must not split it into two cells.
  ScenarioSpec spec;
  spec.name = "grid";
  spec.trace = "constant";
  spec.trace_params["rate"] = "400";
  spec.trace_params["duration"] = "1200";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "reactive"}});
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "moving-max"}});
  std::istringstream csv(run_sweep(spec, SweepOptions{.threads = 1}).to_csv());
  std::string header, row;
  std::getline(csv, header);
  std::getline(csv, row);
  const std::string name = "\"grid[scheduler=bml,predictor=oracle-max]\",";
  ASSERT_EQ(row.substr(0, name.size()), name);
  // Past the quoted name, one cell per remaining header column.
  const auto commas = [](const std::string& line) {
    return std::count(line.begin(), line.end(), ',');
  };
  EXPECT_EQ(commas(row.substr(name.size())) + 1, commas(header));
}

TEST(RunSweep, SharedTraceMatchesPerScenarioGeneration) {
  ScenarioSpec spec;
  spec.name = "shared";
  spec.trace = "step";
  spec.trace_params["segments"] = "180:900;2100:900;70:900";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "per-day"}});

  SweepOptions regenerate;
  regenerate.threads = 2;
  const SweepReport generated = run_sweep(spec, regenerate);

  const LoadTrace trace = step_trace(
      {{180.0, 900.0}, {2100.0, 900.0}, {70.0, 900.0}});
  SweepOptions shared = regenerate;
  shared.shared_trace = &trace;
  const SweepReport replayed = run_sweep(spec, shared);
  EXPECT_EQ(generated.to_csv(), replayed.to_csv());

  // Trace axes contradict a shared trace.
  ScenarioSpec conflicting = spec;
  conflicting.sweeps.push_back(SweepAxis{"trace.segments", {"10:60"}});
  EXPECT_THROW((void)run_sweep(conflicting, shared), std::runtime_error);
}

TEST(RunSweep, NonBuildAxesShareOneBuild) {
  // None of these axes touch catalog / design / trace / seed inputs, so
  // the whole 8-point grid must build exactly one CombinationTable (the
  // build-count probe) and every row must still match an individually run
  // scenario.
  ScenarioSpec spec;
  spec.name = "cache";
  spec.trace = "step";
  spec.trace_params["segments"] = "150:600;1900:600;90:600";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "reactive"}});
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "moving-max"}});
  spec.sweeps.push_back(SweepAxis{"qos", {"tolerant", "critical"}});

  const std::uint64_t before = CombinationTable::built_count();
  SweepOptions options;
  options.threads = 4;
  const SweepReport report = run_sweep(spec, options);
  EXPECT_EQ(CombinationTable::built_count() - before, 1u);
  ASSERT_EQ(report.rows.size(), 8u);

  const std::vector<ScenarioSpec> points = expand_sweep(spec);
  ASSERT_EQ(points.size(), report.rows.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScenarioResult solo = run_scenario(points[i]);
    EXPECT_EQ(report.rows[i].spec.name, solo.spec.name);
    EXPECT_DOUBLE_EQ(report.rows[i].sim.total_energy(), solo.sim.total_energy());
    EXPECT_DOUBLE_EQ(report.rows[i].sim.compute_energy, solo.sim.compute_energy);
    EXPECT_EQ(report.rows[i].sim.reconfigurations, solo.sim.reconfigurations);
    EXPECT_EQ(report.rows[i].sim.qos.violation_seconds,
              solo.sim.qos.violation_seconds);
  }
}

TEST(RunSweep, BuildAxesFallBackToPerScenarioBuilds) {
  ScenarioSpec spec;
  spec.name = "nocache";
  spec.trace = "constant";
  spec.trace_params["rate"] = "300";
  spec.trace_params["duration"] = "600";
  spec.sweeps.push_back(SweepAxis{"design.max_rate", {"1000", "2000"}});

  const std::uint64_t before = CombinationTable::built_count();
  SweepOptions options;
  options.threads = 1;
  const SweepReport report = run_sweep(spec, options);
  ASSERT_EQ(report.rows.size(), 2u);
  // A design axis changes the table itself: one build per grid point.
  EXPECT_EQ(CombinationTable::built_count() - before, 2u);
}

TEST(RunSweep, TraceAndSeedAxesAlsoBlockSharing) {
  ScenarioSpec spec;
  spec.name = "noisy";
  spec.trace = "diurnal";
  spec.trace_params["days"] = "1";
  spec.trace_params["peak"] = "500";
  spec.sweeps.push_back(SweepAxis{"seed", {"1", "2"}});

  const std::uint64_t before = CombinationTable::built_count();
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(report.rows.size(), 2u);
  // The seed feeds trace generation (and trace-peak design sizing): the
  // build must not be shared.
  EXPECT_EQ(CombinationTable::built_count() - before, 2u);
  // Different seeds really did produce different workloads.
  EXPECT_NE(report.rows[0].sim.total_energy(), report.rows[1].sim.total_energy());
}

TEST(RunSweep, PredictorBlindRowsReplayOnce) {
  // reactive and static-max ignore the predictor, so of each seed's four
  // rows under them only the oracle-max ones build and replay; the
  // moving-max rows copy them, and still equal their own solo runs.
  ScenarioSpec spec;
  spec.name = "blind";
  spec.trace = "diurnal";
  spec.trace_params["peak"] = "1500";
  spec.obs_metrics = true;
  spec.sweeps.push_back(SweepAxis{"seed", {"1", "2"}});
  spec.sweeps.push_back(
      SweepAxis{"scheduler", {"bml", "reactive", "static-max"}});
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "moving-max"}});

  const std::uint64_t before = CombinationTable::built_count();
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 3});
  ASSERT_EQ(report.rows.size(), 12u);
  EXPECT_EQ(CombinationTable::built_count() - before, 8u);
  // The build-cache counters describe the grid, copies included.
  EXPECT_EQ(report.builds, 12u);
  EXPECT_EQ(report.metrics.counter("sweep.build_cache.misses"), 12u);
  EXPECT_NE(report.perf_report().find("copied rows: 4"), std::string::npos);

  const std::vector<ScenarioSpec> points = expand_sweep(spec);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepRow& row = report.rows[i];
    const bool blind = points[i].scheduler != "bml";
    const bool copied = blind && points[i].predictor == "moving-max";
    ASSERT_EQ(row.copy_of.has_value(), copied) << i;
    if (copied) EXPECT_EQ(*row.copy_of, i - 1);
    EXPECT_EQ(row.spec, points[i]);
    EXPECT_EQ(row.axis_values.back(), points[i].predictor);
    const ScenarioResult solo = run_scenario(points[i]);
    EXPECT_EQ(row.sim.scheduler_name, solo.sim.scheduler_name);
    EXPECT_EQ(row.sim.total_energy(), solo.sim.total_energy()) << i;
    EXPECT_EQ(row.sim.reconfigurations, solo.sim.reconfigurations);
    EXPECT_EQ(row.sim.qos.violation_seconds, solo.sim.qos.violation_seconds);
    EXPECT_EQ(row.metrics.spans, solo.sim.metrics.spans);
    EXPECT_EQ(row.metrics.scheduler_consults,
              solo.sim.metrics.scheduler_consults);
  }
  // The two predictors replay differently under bml, so bml rows are
  // never copies.
  EXPECT_NE(report.rows[0].sim.reconfigurations +
                report.rows[0].metrics.scheduler_consults,
            report.rows[1].sim.reconfigurations +
                report.rows[1].metrics.scheduler_consults);
}

TEST(RunSweep, CopiesFollowEachAppsOwnScheduler) {
  // Only app0's scheduler ignores its predictor: its predictor axis
  // copies rows, app1's does not.
  ScenarioSpec spec = parse_scenario(R"(name = apps
[app]
name = web
trace = constant
trace.rate = 900
trace.duration = 3600
scheduler = reactive
[app]
name = batch
trace = step
trace.segments = 200:1800;700:1800
)");
  spec.sweeps.push_back(
      SweepAxis{"app0.predictor", {"oracle-max", "seasonal"}});
  spec.sweeps.push_back(
      SweepAxis{"app1.predictor", {"oracle-max", "last-value"}});
  const SweepReport report = run_sweep(spec, SweepOptions{.threads = 2});
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_FALSE(report.rows[0].copy_of.has_value());
  EXPECT_FALSE(report.rows[1].copy_of.has_value());
  EXPECT_EQ(report.rows[2].copy_of, std::optional<std::size_t>{0});
  EXPECT_EQ(report.rows[3].copy_of, std::optional<std::size_t>{1});
  const std::vector<ScenarioSpec> points = expand_sweep(spec);
  SweepReport solo;
  solo.axis_keys = report.axis_keys;
  for (std::size_t i = 0; i < points.size(); ++i) {
    SweepRow row;
    static_cast<ScenarioResult&>(row) = run_scenario(points[i]);
    row.axis_values = report.rows[i].axis_values;
    solo.rows.push_back(std::move(row));
  }
  EXPECT_EQ(report.to_csv(), solo.to_csv());
}

TEST(RunSweep, CopiedRowsStillRejectMalformedPredictors) {
  // The reactive row under `bogus` would copy the oracle-max row, but
  // its predictor must still resolve.
  ScenarioSpec spec;
  spec.name = "bad";
  spec.scheduler = "reactive";
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "bogus"}});
  EXPECT_THROW((void)run_sweep(spec, SweepOptions{.threads = 1}),
               std::runtime_error);
}

TEST(RunSweep, UnresolvableSpecThrows) {
  ScenarioSpec spec;
  spec.trace = "file";  // missing file parameter
  EXPECT_THROW((void)run_scenario(spec), std::runtime_error);
}

}  // namespace
}  // namespace bml
