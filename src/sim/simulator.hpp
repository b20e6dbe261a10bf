// The discrete-time data center simulator.
//
// Replays the load of one or more applications at 1 Hz against a shared
// cluster, mirroring (and generalising) the Python simulator of Section
// V-C:
//   * every application (Workload) carries its own trace, scheduler,
//     predictor and QoS class; each scheduler is consulted every second
//     while idle and proposes the combination that would serve its own
//     predicted load;
//   * a Coordinator (sched/coordinator.hpp) merges the per-app proposals
//     into one cluster-wide target — sum-of-combinations by default, or
//     clamped to per-app capacity shares in partitioned mode;
//   * a merged decision that changes the target starts a reconfiguration,
//     during which no further decision is taken; the next decision happens
//     at the second following reconfiguration completion ("the next
//     prediction window starts from reconfiguration completion time");
//   * compute energy (serving machines) and reconfiguration energy (boot /
//     shutdown) are metered separately and aggregated per day — both for
//     the cluster and attributed per application (load-proportional
//     capacity and compute-power splits, provisioned-share reconfiguration
//     splits; see app/workload.hpp for the attribution rules);
//   * runtime faults (FaultModel::mtbf/mttr) crash On machines and repair
//     them on per-(fault domain, architecture) renewal processes
//     (sim/fault_timeline.hpp). A landed failure consumes a pending
//     deferred switch-off if one covers it, otherwise the simulator
//     re-merges the current proposals against the surviving fleet and
//     boots a replacement; availability and lost capacity are accounted
//     per fault domain and reported per app (WorkloadResult).
//
// The single-workload run(Scheduler&, trace) API is the N = 1 case of the
// same core loop: the sum coordinator is the identity for one app, so the
// refactor is regression-pinned — single-app results are bit-for-bit what
// the pre-multi-tenant simulator produced.
//
// Switch-off ordering is configurable: graceful (surplus machines keep
// serving until the replacements finish booting — no capacity dip) or
// immediate (off actions start with the on actions — cheaper, riskier).
//
// Two execution strategies produce the same results:
//   * the per-second reference loop — one tick per simulated second, the
//     direct transcription of the paper's simulator;
//   * the event-driven fast path (default) — the simulator advances at
//     *decision* granularity: a span lasts until some scheduler's decision
//     may change or a machine transition completes. Trace value changes do
//     NOT break spans; inside a span the fleet is fixed, so the varying
//     load is integrated by walking the traces' run-length segments
//     (a CompiledTrace view each, sim/compiled_trace.hpp) with the
//     cluster totals in registers and each app's QoS tracker and energy
//     meter held open across the span (QosTracker::OpenSpan,
//     EnergyMeter::OpenSpan) — a per-second-noisy trace whose values stay
//     inside one decision-threshold bucket
//     (core/decision_thresholds.hpp) costs zero scheduler evaluations. Multi-workload spans intersect the
//     per-workload stability bounds and per-app trace runs. Steady *and*
//     noisy traces replay orders of magnitude faster; see bench_micro's
//     BM_SimulatorWeek* benchmarks, tests/test_simulator_fastpath.cpp and
//     tests/test_multi_workload.cpp for the equivalence guarantee.
// Both strategies share one span step (the reference loop's spans last one
// second) and one observation helper, so observing a run is a pure read:
// its results are bit-identical with recording on or off.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "core/combination.hpp"
#include "core/dispatch_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "power/energy_meter.hpp"
#include "sched/coordinator.hpp"
#include "sim/cluster.hpp"
#include "sim/event_log.hpp"
#include "sim/qos.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

/// Simulator configuration.
struct SimulatorOptions {
  /// Defer switch-offs until pending boots complete (default), keeping
  /// capacity through the transition.
  bool graceful_off = true;
  /// Use the event-driven fast path: between events (scheduler decision
  /// changes, machine transition completions, trace value changes) the
  /// simulation advances in closed form instead of per-second ticks.
  /// Results match the per-second reference up to floating-point summation
  /// order (see tests/test_simulator_fastpath.cpp).
  bool event_driven = true;
  /// How per-workload proposals merge into the cluster target
  /// (multi-workload runs; irrelevant at N = 1 where both modes are the
  /// identity unless a budget clamps the single app).
  CoordinatorMode coordinator = CoordinatorMode::kSum;
  /// Total capacity budget (req/s) split across workloads by their share
  /// weights in partitioned mode; <= 0 leaves proposals unclamped.
  ReqRate coordinator_budget = 0.0;
  /// Fault injection: boot-path jitter/retries, plus runtime crash/repair
  /// processes (FaultModel::mtbf / mttr) with per-app fault domains
  /// (WorkloadView::fault_domain). Runtime failures and repairs are
  /// first-class events on the fast path — the next scheduled one bounds
  /// a span exactly like a machine transition — and a felled machine
  /// triggers a re-merge of the current proposals against the surviving
  /// fleet, booting a replacement (self-healing; the felled machine
  /// returns to the Off pool when repaired).
  FaultModel faults{};
  /// Degraded-mode serving (DegradeModel::overload_factor > 0): when the
  /// offered load exceeds the On fleet's rated capacity, survivors absorb
  /// spill-over above their rating at the contention penalty — served
  /// capacity saturates smoothly instead of cliff-dropping. QoS is scored
  /// against the effective (post-spill) capacity; overload-seconds and
  /// penalty-lost capacity are accounted cluster-wide, per app, and per
  /// fault domain. On the fast path, overload entry/exit crossings bound
  /// spans (SpanEndCause::kOverloadCrossing) so the accounting integrand
  /// is exact.
  DegradeModel degrade{};
  /// Trailing window (s) of the per-app availability SLOs
  /// (WorkloadView::slo_availability): a domain's downtime inside the
  /// last `slo_window` seconds is compared against each SLO app's error
  /// budget (1 - target) * window; while the budget is exceeded the
  /// coordinator provisions the app's spare capacity, releasing it once
  /// the window recovers. Whole seconds; must be >= 1 when any app sets
  /// an SLO target.
  Seconds slo_window = 86400.0;
  /// Collect the simulator's self-metrics (SimulationResult::metrics):
  /// span/tick counts, span-end causes, span-length histogram, scheduler
  /// consults. Near-zero overhead — the hot loops test one pointer per
  /// span — and never feeds back into the simulation, so results are
  /// bit-identical with it on or off.
  bool collect_metrics = false;
  /// Record the structured event log (SimulationResult::events) and a
  /// timeline (SimulationResult::timeline: sampled fleet/load counter
  /// tracks) for the Chrome trace-event exporter, which renders both.
  /// Both strategies record the same bytes, and results are bit-identical
  /// with recording on or off.
  bool record_timeline = false;
  /// Seconds between timeline counter samples (>= 1).
  std::size_t timeline_sample_every = 60;
};

/// Everything a simulation run produces (cluster-wide aggregates).
struct SimulationResult {
  std::string scheduler_name;
  Joules compute_energy = 0.0;
  Joules reconfiguration_energy = 0.0;
  std::vector<Joules> per_day_compute;
  std::vector<Joules> per_day_reconfiguration;
  QosStats qos;
  /// Number of reconfigurations started.
  int reconfigurations = 0;
  /// Seconds spent with a reconfiguration in flight.
  std::int64_t reconfiguring_seconds = 0;
  /// Peak number of simultaneously provisioned machines.
  std::size_t peak_machines = 0;
  /// Runtime-fault aggregates (FaultModel::mtbf; defaults describe a
  /// fault-free run). `machine_failures` counts strikes that felled a
  /// machine; `unavailable_seconds` is the time any machine was down
  /// (union over fault domains), `availability` its complement as a
  /// fraction of the replay, and `lost_capacity` the integral of failed
  /// serving capacity over downtime (req·s).
  int machine_failures = 0;
  std::int64_t unavailable_seconds = 0;
  double availability = 1.0;
  double lost_capacity = 0.0;
  /// Correlated-strike aggregate (FaultModel::groups): rack-level strikes
  /// that felled at least one machine (each casualty also counts in
  /// machine_failures).
  int group_strikes = 0;
  /// SLO feedback aggregates (WorkloadView::slo_availability): seconds
  /// any app had spare capacity provisioned, and the idle-power integral
  /// of all provisioned spares (an attribution overlay — the energy is
  /// already inside compute_energy; see WorkloadResult::spare_energy).
  std::int64_t spare_seconds = 0;
  Joules spare_energy = 0.0;
  /// Degraded-mode aggregates (SimulatorOptions::degrade): seconds the
  /// offered load exceeded rated capacity, and the integral of capacity
  /// lost to the contention penalty while spilling over (req·s).
  std::int64_t overload_seconds = 0;
  double penalty_lost_capacity = 0.0;
  /// Machines preempted from low-priority apps to backfill
  /// higher-priority ones after strikes (units, summed over all
  /// preemption instants; see Workload::priority).
  int preemptions = 0;
  /// Tenant-lifecycle aggregates (Workload::arrive / depart and the
  /// churn.* scenario keys): apps that became active after t = 0, and
  /// apps that departed before the end of the replay. Both 0 for the
  /// classic fixed-tenant model.
  int arrivals = 0;
  int departures = 0;
  /// Optional structured event log, see SimulatorOptions::record_timeline.
  EventLog events;
  /// Self-metrics, see SimulatorOptions::collect_metrics (disabled and
  /// empty unless requested).
  SimMetrics metrics;
  /// Timeline recording for obs/trace_export.hpp, see
  /// SimulatorOptions::record_timeline (disabled and empty unless
  /// requested).
  TraceRecording timeline;

  [[nodiscard]] Joules total_energy() const {
    return compute_energy + reconfiguration_energy;
  }
  [[nodiscard]] std::vector<Joules> per_day_total() const;
};

/// A multi-workload run: the cluster-wide aggregates plus one attributed
/// slice per application (parallel to the workloads passed to run()).
struct MultiSimulationResult {
  SimulationResult total;
  std::vector<WorkloadResult> apps;
};

/// Runs workloads over a cluster drawn from `candidates`. The candidate
/// catalog is compiled into a DispatchPlan once at construction; run() is
/// const and every run gets its own cluster and scratch state, so one
/// Simulator can serve many parallel_for workers concurrently (as the
/// experiment sweeps do).
class Simulator {
 public:
  /// Non-owning per-workload view the core loops operate on (public so the
  /// implementation helpers can name it; not part of the stable API —
  /// callers pass Workload or Scheduler+trace).
  struct WorkloadView {
    const std::string* name;
    const LoadTrace* trace;
    Scheduler* scheduler;
    QosClass qos;
    double share;
    /// Fault-domain name for runtime faults (see Workload::fault_domain);
    /// null or empty = the workload's own private domain.
    const std::string* fault_domain = nullptr;
    /// Availability SLO target in [0, 1]; 0 disables the feedback loop
    /// (see Workload::slo_availability / SimulatorOptions::slo_window).
    double slo_availability = 0.0;
    /// Spare-capacity fraction provisioned while the SLO is violated.
    double slo_spare = 0.25;
    /// Priority class (higher = more important; see Workload::priority).
    int priority = 0;
    /// Tenant lifecycle: active interval [arrive, depart), -1 = never
    /// departs (see Workload::arrive / depart). Any view with arrive > 0
    /// or depart >= 0 switches the run into lifecycle mode; all-default
    /// views keep the classic fixed-tenant model byte-identical.
    TimePoint arrive = 0;
    TimePoint depart = -1;
  };

  Simulator(Catalog candidates, SimulatorOptions options = {});

  /// Shares a precompiled plan (must match `candidates`) instead of
  /// compiling one — for sweeps that build many differently-configured
  /// simulators over the same catalog across parallel_for workers.
  Simulator(Catalog candidates, std::shared_ptr<const DispatchPlan> plan,
            SimulatorOptions options = {});

  /// Single-workload replay — the N = 1 case of run(workloads), kept as
  /// the primary API for the paper's experiments. Bit-for-bit identical to
  /// the pre-multi-tenant simulator.
  [[nodiscard]] SimulationResult run(Scheduler& scheduler,
                                     const LoadTrace& trace) const;

  /// Replays N workloads against one shared cluster. Schedulers are
  /// stateful, hence the non-const workloads. Throws on an empty list or a
  /// workload without a scheduler.
  [[nodiscard]] MultiSimulationResult run(
      std::vector<Workload>& workloads) const;

  /// As above over non-owning views — for callers (the scenario engine)
  /// that hold traces and schedulers elsewhere and must not copy them per
  /// run. Every pointer must be non-null and outlive the call.
  [[nodiscard]] MultiSimulationResult run(
      const std::vector<WorkloadView>& views) const;

  [[nodiscard]] const DispatchPlan& plan() const { return *plan_; }

 private:
  [[nodiscard]] MultiSimulationResult run_views(
      const std::vector<WorkloadView>& views) const;
  /// The 1 Hz reference loop (the shared span step, one second long).
  [[nodiscard]] MultiSimulationResult run_per_second(
      const std::vector<WorkloadView>& views) const;
  /// Run-length batching between events.
  [[nodiscard]] MultiSimulationResult run_event_driven(
      const std::vector<WorkloadView>& views) const;

  Catalog candidates_;
  std::shared_ptr<const DispatchPlan> plan_;
  SimulatorOptions options_;
};

}  // namespace bml
