// The scenario engine's execution layer: run one ScenarioSpec, or expand
// its `sweep` axes into a grid and run the whole list in parallel.
//
// Every scenario is self-contained — its own catalog, design, trace,
// scheduler, and cluster — so the sweep runner is embarrassingly parallel
// over parallel_for workers, and results are bit-identical regardless of
// thread count: rows land at their scenario's grid index, and each
// scenario's arithmetic never depends on its neighbours. SweepReport's CSV
// export is therefore byte-stable across --threads values (wall-clock
// timings are reported on the console only, never in the CSV).
//
// Grid points whose specs are equal apart from their names and the
// predictor keys of workloads whose scheduler ignores its predictor
// (scheduler_reads_predictor in scenario/registry.hpp) replay identically,
// so the sweep runs the first of them and copies its result, metrics
// shard and events to the others (SweepRow::copy_of).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bml {

/// One fully built and executed scenario.
struct ScenarioResult {
  /// The resolved spec (sweep values applied, axes cleared).
  ScenarioSpec spec;
  SimulationResult sim;
  /// Per-application slices (one per `[app]` section; a single entry for
  /// classic single-app specs).
  std::vector<WorkloadResult> apps;
  /// Duration of the replayed trace (s; the longest app trace).
  Seconds trace_duration = 0.0;
  /// Build + replay wall time of this scenario (s).
  double wall_seconds = 0.0;

  /// Total energy over the replayed trace duration (W; 0 for an empty
  /// trace).
  [[nodiscard]] Watts mean_power() const {
    return trace_duration > 0.0 ? sim.total_energy() / trace_duration : 0.0;
  }
};

/// Builds every component of `spec` through the registry and replays the
/// simulation. Throws std::runtime_error on unresolvable specs.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Expands the spec's sweep axes into the cartesian product of scenarios
/// (first axis outermost), naming each `base[k1=v1,k2=v2,...]`. A spec
/// without axes expands to itself. Invalid axis values surface here, before
/// anything runs.
[[nodiscard]] std::vector<ScenarioSpec> expand_sweep(const ScenarioSpec& spec);

/// The runtime channels a resolved spec configures. Each flag gates a CSV
/// column group on configuration, never on outcome, so the schema is a
/// function of the spec alone: a faulty config that lands zero failures
/// still reports its columns, and a zero-rate config keeps the fault-free
/// schema byte-for-byte.
struct ConfiguredChannels {
  /// faults.mtbf > 0, or an active rack channel (FaultModel::runtime_active).
  bool faults = false;
  /// faults.groups > 0 with faults.group_mtbf > 0 (FaultModel::group_active).
  bool groups = false;
  /// Some effective app declares slo.availability > 0.
  bool slo = false;
  /// degrade.overload_factor > 0.
  bool degrade = false;
  /// At least two effective apps have different priority classes; a fleet
  /// of equal classes ranks nothing.
  bool priority = false;
  /// Both churn.* rates set, or some app has an arrive/depart window.
  bool churn = false;
};

/// The one place the configuration gates are computed (CSV schema and the
/// `bmlsim run` summary lines).
[[nodiscard]] ConfiguredChannels configured_channels(const ScenarioSpec& spec);

/// Per-application results of one sweep row.
using SweepAppRow = WorkloadResult;

/// One grid point of a sweep: the scenario's own results (ScenarioResult:
/// resolved spec, cluster-wide SimulationResult, per-app WorkloadResults,
/// wall time) plus its coordinates in the grid.
struct SweepRow : ScenarioResult {
  /// Axis values of this grid point, parallel to SweepReport::axis_keys.
  std::vector<std::string> axis_values;
  /// Grid index of the row whose replay this row copies (see the file
  /// comment); empty when the row ran its own. A copy's wall_seconds is
  /// the copy's.
  std::optional<std::size_t> copy_of;
  /// This scenario's simulator self-metrics shard, moved out of
  /// sim.metrics (disabled and empty unless the spec sets obs.metrics).
  /// Shards are merged into SweepReport::metrics in grid index order after
  /// the parallel run, so the aggregate is byte-identical across --threads
  /// values.
  SimMetrics metrics;
};

/// Wall time of a scenario build's phases (s), summed over its traces.
struct BuildPhases {
  /// Trace generation, each trace's LoadTrace index included.
  double generate = 0.0;
  /// Hashing and comparing the traces to hold identical ones once.
  double dedup = 0.0;
  /// The BmlDesign (CombinationTable, DecisionThresholds) and the
  /// DispatchPlan.
  double design = 0.0;
};

/// Everything a sweep produces.
struct SweepReport {
  std::vector<std::string> axis_keys;
  std::vector<SweepRow> rows;
  /// Whole-sweep wall time (s).
  double wall_seconds = 0.0;
  unsigned threads = 1;
  /// Build-cache accounting per grid point: how many grid points reused
  /// the shared ScenarioBuild, and how many did not (the first on it, or
  /// each on its own; see the build-sharing rules in
  /// scenario/registry.hpp). A copied row counts as the grid point it is,
  /// so both depend on the axes alone.
  std::size_t builds = 0;
  std::size_t build_cache_reuses = 0;
  /// Wall time of every build the sweep ran, by phase (console-only).
  BuildPhases build_phases;
  /// Deterministic sweep-level metrics: the per-row SimMetrics shards
  /// merged in grid index order (when obs.metrics is set) plus
  /// sweep.scenarios and sweep.build_cache.{hits,misses} counters.
  /// Wall-clock never enters the registry — to_text() is byte-identical
  /// across thread counts and machines.
  MetricsRegistry metrics;

  /// Deterministic CSV of the rows: scenario, axis columns, then the
  /// cluster and per-app column tables in sweep.cpp (kClusterColumns,
  /// kAppColumns). A gated column appears when any row's
  /// configured_channels() enables its channel; per-app groups appear
  /// when some row has >= 2 apps, and shorter rows are blank-padded.
  /// Excludes wall-clock timings, so the bytes are identical across
  /// thread counts.
  [[nodiscard]] std::string to_csv() const;

  /// Console summary rendered with util/table.
  [[nodiscard]] std::string summary_table() const;

  /// Console performance report: per-scenario wall clock and fast-path
  /// metrics (spans / ticks / scheduler consults, when collected) with
  /// copied rows marked, plus the build-cache and thread totals and the
  /// build's wall time by phase. Wall-clock numbers are console
  /// artifacts — they never appear in to_csv() or metrics.to_text().
  [[nodiscard]] std::string perf_report() const;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Replay this trace in every scenario instead of running each one's
  /// trace generator — for callers that already hold the workload (a
  /// loaded recording, the analytic stage of an experiment). The spec's
  /// `trace` fields are carried along as metadata but not consulted. The
  /// sweep must not declare `trace`/`trace.*` axes — run_sweep throws if
  /// it does. The pointee must outlive the call.
  const LoadTrace* shared_trace = nullptr;
};

/// Expands and runs the grid; rows are ordered by grid index.
[[nodiscard]] SweepReport run_sweep(const ScenarioSpec& spec,
                                    const SweepOptions& options = {});

}  // namespace bml
