// The multi-tenant workload layer.
//
// The paper evaluates one web application against one Big/Medium/Little
// cluster; a production pool serves many applications at once, each with
// its own trace, predictor, scheduler, and QoS target. A Workload bundles
// one application's complete per-app stack; the Simulator replays a set of
// them against one shared Cluster (sim/simulator.hpp), with a coordinator
// (sched/coordinator.hpp) merging the per-app ideal combinations into one
// cluster-wide reconfiguration decision and the served load split back per
// app so QoS and energy are attributed to the application that caused
// them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "power/energy_meter.hpp"
#include "sim/qos.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

/// One application sharing the cluster: its trace, its scheduler (which
/// carries the predictor and QoS headroom), and its capacity share weight.
struct Workload {
  std::string name = "app";
  LoadTrace trace;
  std::unique_ptr<Scheduler> scheduler;
  /// QoS class of the application (informational at this layer — the
  /// scheduler applies the headroom; per-app reports echo it).
  QosClass qos = QosClass::kTolerant;
  /// Relative capacity share under the partitioned coordinator (weights
  /// are normalised across workloads; ignored by the sum coordinator).
  double share = 1.0;
  /// Fault-domain name for runtime faults (FaultModel::mtbf). Workloads
  /// naming the same domain share one crash/repair process and fail
  /// together; the empty default gives the workload its own private
  /// domain, so colocated apps fail independently out of the box. A
  /// failure strike in a domain only fells machines that domain's
  /// coordinator contributions entitle it to, and availability /
  /// lost-capacity accounting is kept per domain (every app in a domain
  /// reports the domain's numbers).
  std::string fault_domain;
  /// Availability SLO target in [0, 1]; 0 disables the SLO feedback loop.
  /// The simulator tracks the app's fault domain's trailing-window
  /// availability (window = SimulatorOptions::slo_window); while the
  /// window's downtime exceeds the target's error budget the coordinator
  /// provisions spare capacity — `slo_spare` of the app's proposal, per
  /// arch, rounded up — on top of the merged target, releasing it once
  /// the window recovers. Spare machines are exempt from the partitioned
  /// budget clamp (they are emergency headroom, not steady-state share).
  double slo_availability = 0.0;
  /// Spare-capacity fraction provisioned while the SLO is violated (> 0).
  double slo_spare = 0.25;
  /// Priority class (0..k, higher = more important; default 0). Ranks
  /// tenants for graceful degradation: the partitioned coordinator trims
  /// lowest-priority apps first when the budget binds, SLO spares are
  /// provisioned high-priority-first, and a strike that shrinks the fleet
  /// preempts low-priority provisioned capacity to backfill
  /// higher-priority apps instead of waiting for replacement boots. With
  /// every priority equal (the default) behaviour is byte-identical to a
  /// priority-unaware build.
  int priority = 0;
  /// Tenant lifecycle: the app participates in [arrive, depart). Before
  /// `arrive` and from `depart` on, the app is inactive — its scheduler is
  /// never consulted, it offers no load, accrues no QoS seconds or energy
  /// attribution, and the coordinator re-partitions capacity shares (and
  /// SLO spares / priority trims) over the active tenants only. A
  /// departure clears the app's proposal, so its machines drain through
  /// the normal transition path (graceful deferred offs included) at the
  /// next consult. The defaults (arrive at 0, never depart) keep the
  /// classic fixed-tenant model byte-identical.
  TimePoint arrive = 0;
  /// Departure second; -1 = the app stays until the end of the replay.
  /// When >= 0 it must be > arrive.
  TimePoint depart = -1;
};

/// Per-application slice of a multi-workload simulation: QoS against the
/// app's capacity allocation, and the app's share of compute /
/// reconfiguration energy.
///
/// Attribution rules (see Simulator):
///   * capacity is allocated load-proportionally each second
///     (Cluster::split_capacity), so an app is only "violated" when its
///     fair share fell short of its own offered load;
///   * compute power (idle included) is attributed by the same load
///     shares — an idle app colocated with a busy one pays nothing while
///     it offers nothing (equal split when no app offers load);
///   * reconfiguration power is attributed by each app's share of the
///     currently provisioned target capacity, so boot/shutdown energy
///     follows the app whose demand provisioned the machines;
///   * runtime-fault accounting is per fault domain (Workload::
///     fault_domain): `failures` counts the strikes that actually felled
///     one of the domain's machines, `availability` is the fraction of
///     simulated seconds the domain had no machine down, and
///     `lost_capacity` integrates the felled machines' serving capacity
///     over their downtime (req·s). Apps sharing a domain report the same
///     domain-level numbers.
struct WorkloadResult {
  std::string name;
  std::string scheduler_name;
  QosClass qos = QosClass::kTolerant;
  QosStats qos_stats;
  Joules compute_energy = 0.0;
  Joules reconfiguration_energy = 0.0;
  /// Runtime-fault slice of the app's fault domain (defaults describe a
  /// fault-free run).
  int failures = 0;
  std::int64_t unavailable_seconds = 0;
  double availability = 1.0;
  /// Integral of failed capacity over downtime, req·s.
  double lost_capacity = 0.0;
  /// SLO feedback slice (Workload::slo_availability): seconds this app
  /// had spare capacity provisioned, and the idle-power integral of those
  /// spare machines over that time — the energy cost of honouring the
  /// SLO. The energy is an attribution overlay: the machines' actual draw
  /// is already inside compute_energy; this reports how much of it the
  /// spares' idle floor accounts for.
  std::int64_t spare_seconds = 0;
  Joules spare_energy = 0.0;
  /// Degraded-mode slice (DegradeModel::overload_factor): seconds the
  /// cluster ran overloaded while this app offered load, and the app's
  /// load-proportional share of the capacity lost to the contention
  /// penalty (req·s).
  std::int64_t overload_seconds = 0;
  double penalty_lost_capacity = 0.0;
  /// Domain-level slice of the degraded-mode accounting (faults and the
  /// degrade model both active; as with failures, apps sharing a fault
  /// domain report the same domain numbers): seconds the cluster ran
  /// overloaded while any of the domain's apps offered load, and the
  /// domain's apps' summed penalty loss (req·s).
  std::int64_t domain_overload_seconds = 0;
  double domain_penalty_lost = 0.0;
  /// Priority/preemption slice (Workload::priority): seconds this app had
  /// at least one provisioned machine preempted away to backfill a
  /// higher-priority app after a strike.
  std::int64_t preempted_seconds = 0;
  /// Tenant-lifecycle slice (Workload::arrive / depart): seconds the app
  /// was active during the replay. Without lifecycle bounds this equals
  /// the replayed horizon (qos_stats.total_seconds).
  std::int64_t active_seconds = 0;

  [[nodiscard]] Joules total_energy() const {
    return compute_energy + reconfiguration_energy;
  }
};

/// Element-wise sum of the traces (non-owning, all non-null) — the
/// aggregate demand the shared cluster must be designed for. The result
/// spans the longest trace; shorter traces contribute 0 beyond their end.
/// A single trace returns a copy of it (no arithmetic), so design sizing
/// on the sum is bit-identical to single-app sizing.
[[nodiscard]] LoadTrace combined_trace(
    const std::vector<const LoadTrace*>& traces);

}  // namespace bml
