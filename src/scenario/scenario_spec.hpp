// Declarative scenario specifications — the data model of the scenario
// engine.
//
// A ScenarioSpec describes one complete simulation: which catalog, which
// trace generator with which parameters, which scheduler and predictor,
// QoS class, fault knobs, and the seed. Specs are plain text (`.scn`
// files): one `key = value` per line, '#' comments, in the same austere
// style as util/csv — no quoting, no sections, strict errors with line
// context. `sweep key = a,b,c` lines declare grid axes that the sweep
// runner (scenario/sweep.hpp) expands into the cartesian product of
// scenarios.
//
//     # three-axis example
//     name = demo
//     catalog = real
//     trace = diurnal
//     trace.days = 1
//     trace.peak = 1500
//     scheduler = bml
//     predictor = oracle-max
//     sweep trace.peak = 500,1500,3000
//     sweep predictor = oracle-max,moving-max
//     sweep scheduler = bml,reactive
//
// Multi-tenant scenarios declare repeatable `[app]` sections after the
// top-level keys, one per colocated application. Each section carries its
// own trace / scheduler / predictor stack, QoS class, capacity share and
// runtime fault domain (`fault_domain`; see the `faults.*` keys below);
// the `coordinator` key selects how per-app proposals merge into the
// cluster decision (`sum` or `partitioned`, see sched/coordinator.hpp).
// Sweep axes address app fields as `app<i>.<key>` (e.g. `sweep
// app0.trace.peak = 500,1000`); sweep lines must come after the sections
// they address. A spec without `[app]` sections is the classic single-app
// experiment (the top-level trace/scheduler/predictor/qos describe the
// one workload), and a spec with exactly one `[app]` section is
// equivalent to it — bit-for-bit, see tests/test_multi_workload.cpp.
//
//     [app]
//     name = frontend
//     trace = diurnal
//     trace.peak = 1500
//     qos = critical
//     share = 2
//     [app]
//     name = batch
//     trace = constant
//     trace.rate = 400
//     predictor = moving-max
//
// Component names and their parameters are resolved by the registry
// (scenario/registry.hpp); the spec layer only routes keys and validates
// the typed top-level fields, so unknown *parameter* values fail at build
// time with the component's context while unknown *keys* fail at parse
// time.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace bml {

/// One grid axis of a sweep: `key` takes each of `values` in order.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;

  friend bool operator==(const SweepAxis&, const SweepAxis&) = default;
};

/// One application of a multi-tenant scenario (an `[app]` section): its
/// own trace / scheduler / predictor stack, QoS class and capacity share.
struct AppSpec {
  /// Application name (per-app result rows / CSV columns); empty picks
  /// "app<index>" at build time.
  std::string name;
  std::string trace = "constant";
  std::map<std::string, std::string> trace_params;
  std::string scheduler = "bml";
  std::map<std::string, std::string> scheduler_params;
  std::string predictor = "oracle-max";
  std::map<std::string, std::string> predictor_params;
  /// QoS class: `tolerant` or `critical`.
  std::string qos = "tolerant";
  /// Capacity share weight under the partitioned coordinator (> 0).
  double share = 1.0;
  /// Runtime-fault domain name (`fault_domain` key): apps naming the same
  /// domain share one crash/repair process; empty = the app's own private
  /// domain (see app/workload.hpp).
  std::string fault_domain;
  /// Availability SLO target (`slo.availability`, in [0, 1]; 0 disables):
  /// while the app's fault domain dips below the target over the trailing
  /// `slo.window`, the coordinator provisions `slo.spare` extra capacity
  /// (fraction of the app's proposal, > 0; see app/workload.hpp).
  double slo_availability = 0.0;
  double slo_spare = 0.25;
  /// Priority class (`priority` key, integer >= 0, default 0; see
  /// app/workload.hpp): ranks tenants for graceful degradation — budget
  /// trims, SLO spares and strike preemption all favour higher classes.
  /// Only meaningful with the partitioned coordinator when at least two
  /// apps' priorities differ.
  int priority = 0;
  /// Expansion factor (`replicas` key, >= 1): the sweep build stamps out
  /// this many copies of the app, each with its own derived trace seed
  /// and an indexed name suffix — the fleet-scale way to describe
  /// thousands of workloads without thousands of [app] sections. Copies
  /// sharing a non-empty fault_domain still share one domain.
  int replicas = 1;
  /// Tenant lifecycle (`arrive` / `depart` keys, whole seconds): the app
  /// serves only over [arrive, depart). `arrive` 0 = present from the
  /// start; `depart` -1 = stays to the end. When both defaults hold for
  /// every app (and no churn.* generator runs) the scenario is the classic
  /// fixed-tenant model, byte-identical to a lifecycle-unaware build.
  std::int64_t arrive = 0;
  std::int64_t depart = -1;

  /// Routes one section-local `key = value` assignment; throws
  /// std::runtime_error on unknown keys or malformed typed values.
  void set(const std::string& key, const std::string& value);

  friend bool operator==(const AppSpec&, const AppSpec&) = default;
};

/// Everything needed to run one simulation, as data. Component parameters
/// are kept as ordered string maps and interpreted by the registry, which
/// rejects unknown or malformed entries when the scenario is built.
struct ScenarioSpec {
  std::string name = "scenario";
  /// Catalog registry name (`real`, `illustrative`, `file`).
  std::string catalog = "real";
  std::map<std::string, std::string> catalog_params;
  /// Trace generator registry name (`constant`, `step`, `diurnal`,
  /// `flash_crowd`, `worldcup_like`, `file`).
  std::string trace = "constant";
  std::map<std::string, std::string> trace_params;
  /// Scheduler registry name (`bml`, `cost-aware`, `reactive`,
  /// `hysteresis`, `static-max`, `per-day`).
  std::string scheduler = "bml";
  std::map<std::string, std::string> scheduler_params;
  /// Predictor registry name (`oracle-max`, `last-value`, `moving-max`,
  /// `ewma`, `linear-trend`, `seasonal`).
  std::string predictor = "oracle-max";
  std::map<std::string, std::string> predictor_params;
  /// Design sizing: `trace-peak` (default; max_rate = max(trace peak, 1)),
  /// `default` (4x Big), or a number.
  std::string design_max_rate = "trace-peak";
  /// Final-step solver: `greedy` (the paper's algorithm) or `exact-dp`.
  std::string design_solver = "greedy";
  /// QoS class: `tolerant` or `critical`.
  std::string qos = "tolerant";
  /// SimulatorOptions knobs.
  bool graceful_off = true;
  bool event_driven = true;
  /// Fault injection (sim/cluster.hpp FaultModel): the boot-path channel
  /// (`faults.boot_time_jitter`, at most FaultModel::kMaxBootTimeJitter =
  /// 10, and `faults.boot_failure_prob`) and the runtime crash/repair
  /// channel (`faults.mtbf`, `faults.mttr` — mean seconds between failure
  /// strikes per fault domain per architecture, and mean repair seconds; 0
  /// disables).
  double boot_time_jitter = 0.0;
  double boot_failure_prob = 0.0;
  double fault_mtbf = 0.0;
  double fault_mttr = 0.0;
  /// Correlated strikes (`faults.groups`, `faults.group_mtbf`,
  /// `faults.group_mttr`): each fault domain is striped across `groups`
  /// racks, and every rack runs its own renewal process of mean
  /// group_mtbf seconds; one rack strike fells every On machine of the
  /// rack's stripe at once (sim/fault_timeline.hpp). 0 groups or 0 mtbf
  /// disables the channel.
  int fault_groups = 0;
  double fault_group_mtbf = 0.0;
  double fault_group_mttr = 0.0;
  /// Repair crews (`faults.crews`): concurrent repairs; excess repairs
  /// queue FIFO, making effective MTTR queueing-dependent. 0 = unlimited.
  int fault_crews = 0;
  /// Fault seed override (`faults.seed`, >= 0); -1 inherits the master
  /// seed. Faults are runtime-only inputs, so sweeping `faults.seed` does
  /// not force per-scenario catalog/trace/design rebuilds the way a
  /// `seed` axis does.
  std::int64_t fault_seed = -1;
  /// Trailing window (s, whole seconds >= 1) of the per-app availability
  /// SLOs (`slo.window`; see SimulatorOptions::slo_window). The top-level
  /// `slo.availability` / `slo.spare` describe the classic single-app
  /// workload, exactly like the top-level trace / scheduler fields.
  double slo_window = 86400.0;
  double slo_availability = 0.0;
  double slo_spare = 0.25;
  /// Degraded-mode serving (`degrade.*` keys; see sim/cluster.hpp
  /// DegradeModel): while offered load exceeds the On fleet's rated
  /// capacity, the surviving machines absorb spill-over up to
  /// `degrade.overload_factor` x rated capacity (0 disables, the
  /// default), each absorbed req/s serving only (1 - `degrade.penalty`)
  /// effectively (penalty in [0, 1]). Runtime-only knobs: sweeping them
  /// keeps the shared catalog/trace/design build.
  double degrade_overload_factor = 0.0;
  double degrade_penalty = 0.5;
  /// Stochastic tenant churn (`churn.*` keys; all runtime-only, so
  /// sweeping them keeps the shared catalog/trace/design build). When
  /// both `churn.interarrival` and `churn.lifetime` are > 0, the sweep
  /// build appends a seed-deterministic stream of transient tenants:
  /// exponential arrival gaps of mean `churn.interarrival` seconds,
  /// exponential lifetimes of mean `churn.lifetime` seconds, each clone
  /// stamped from the [app] section indexed by `churn.template` (its
  /// built trace is shared; scheduler/predictor are fresh instances).
  /// `churn.max` caps the clone count (0 = unlimited) and `churn.seed`
  /// overrides the master seed for the churn stream (-1 inherits). The
  /// draws are state-independent, so results are identical across
  /// --threads values.
  double churn_interarrival = 0.0;
  double churn_lifetime = 0.0;
  int churn_template = 0;
  int churn_max = 0;
  std::int64_t churn_seed = -1;
  /// Priority class of the classic single-app workload (`priority` key),
  /// exactly like the top-level trace / scheduler fields. Only meaningful
  /// across multiple [app] sections (validated at build time).
  int priority = 0;
  /// Observability (`obs.*` keys; all runtime-only, so sweeping them keeps
  /// the shared build): `obs.metrics` collects the simulator self-metrics
  /// (SimulationResult::metrics — results are bit-identical with it on or
  /// off), `obs.trace` records the event log and the Chrome trace-event
  /// timeline (SimulationResult::events / timeline; results are
  /// bit-identical with it on or off too), and `obs.sample` is the
  /// timeline counter-sample period in seconds (>= 1).
  bool obs_metrics = false;
  bool obs_trace = false;
  int obs_sample = 60;
  /// Master seed: trace generators and fault injection derive theirs from
  /// it unless overridden per component (`trace.seed`, `faults.seed`,
  /// ...).
  std::uint64_t seed = 1;
  /// How per-app proposals merge into the cluster-wide decision: `sum`
  /// (baseline) or `partitioned` (clamp each app to its capacity share;
  /// see sched/coordinator.hpp).
  std::string coordinator = "sum";
  /// Partitioned-mode capacity budget (req/s): a number, or `design-max`
  /// (the built design's max rate).
  std::string coordinator_budget = "design-max";
  /// Colocated applications (`[app]` sections). Empty = the classic
  /// single-app experiment described by the top-level trace / scheduler /
  /// predictor / qos fields.
  std::vector<AppSpec> apps;
  /// Grid axes, expanded by expand_sweep() in declaration order (first
  /// axis outermost). Axis keys may address app fields as `app<i>.<key>`.
  std::vector<SweepAxis> sweeps;

  /// Routes one `key = value` assignment to the field or component
  /// parameter map it names; throws std::runtime_error on unknown keys or
  /// malformed typed values. This is also how sweep axes apply their
  /// values, so anything parseable is sweepable.
  void set(const std::string& key, const std::string& value);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Parses `.scn` text; throws std::runtime_error with line context.
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Canonical text form; parse_scenario(write_scenario(s)) == s.
[[nodiscard]] std::string write_scenario(const ScenarioSpec& spec);

/// File variants of the above.
[[nodiscard]] ScenarioSpec load_scenario(const std::filesystem::path& path);
void save_scenario(const ScenarioSpec& spec,
                   const std::filesystem::path& path);

}  // namespace bml
