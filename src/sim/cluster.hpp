// The simulated heterogeneous cluster.
//
// Machines are interchangeable within an architecture (the paper's "enough
// machines of each type are available"), so steady state is carried as
// per-architecture *counts* — On, parked (Off), Failed — with no
// per-machine objects at all. Only machines in transition materialise
// state: each switch-on/off batch becomes one (or a few) Transition
// records holding the shared remaining time and a count, so a 10^5-machine
// fleet steps in O(#in-flight batches), not O(#machines). The count
// bookkeeping is bit-identical to stepping individual machine FSMs: every
// machine of a batch shares the same remaining-time arithmetic, and the
// boot-fault RNG is still drawn once per machine in the same order (draws
// that happen to coincide coalesce into one record). Exposes the
// switch-on/off commands the schedulers issue, per-second stepping, load
// dispatch over the On machines, and aggregate state snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "core/dispatch_plan.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bml {

/// Fault injection, two independent channels sharing one seed:
///
///   * boot path — real machines do not boot in exactly the profiled time,
///     and sometimes a boot fails and is retried. Durations are multiplied
///     by max(0.25, 1 + N(0, jitter)); with probability `boot_failure_prob`
///     one extra nominal boot duration is added (the retry).
///
///   * runtime crash/repair — machines that are On can crash and be
///     repaired. Each (fault domain, architecture) pair runs its own
///     renewal process: failure strikes arrive with exponential
///     inter-arrival times of mean `mtbf` seconds, each paired with an
///     exponential repair duration of mean `mttr` seconds (both quantised
///     to whole seconds, minimum 1 s). A strike fells one On machine of
///     that architecture in that domain (On -> Failed: it stops serving
///     and draws no power); strikes that find no machine to kill are
///     dropped. Repairs return the machine to Off. The strike timeline is
///     drawn independently of cluster state, so the process is
///     deterministic per seed regardless of execution strategy or sweep
///     thread count (see sim/fault_timeline.hpp, which owns the clocks —
///     the Cluster only applies fail/repair transitions).
///
///     Correlated (group) strikes extend the channel with failure-domain
///     topology: each fault domain's machines are striped round-robin
///     across `groups` racks / power domains, and each (domain, rack)
///     pair runs its own renewal process of mean `group_mtbf` — one
///     strike fells *every* On machine in the struck rack in one event
///     (repair durations of mean `group_mttr`, one draw per strike,
///     shared by all its casualties). Repairs draw from a workforce of
///     `crews` concurrent repair crews (FIFO, deterministic tie-break);
///     crews = 0 means unlimited (every repair proceeds in parallel).
///
/// Deterministic per seed.
struct FaultModel {
  double boot_time_jitter = 0.0;
  double boot_failure_prob = 0.0;
  /// Mean seconds between runtime failure strikes per fault domain per
  /// architecture; 0 disables runtime faults.
  Seconds mtbf = 0.0;
  /// Mean repair duration in seconds (0 = minimum 1 s repairs).
  Seconds mttr = 0.0;
  /// Correlated-strike topology: racks per fault domain (0 disables the
  /// group channel), mean seconds between strikes per (domain, rack), and
  /// mean repair duration of each strike's casualties.
  int groups = 0;
  Seconds group_mtbf = 0.0;
  Seconds group_mttr = 0.0;
  /// Concurrent repair crews shared by all repairs; 0 = unlimited.
  int crews = 0;
  std::uint64_t seed = 1;

  /// Boot-path channel enabled?
  [[nodiscard]] bool active() const {
    return boot_time_jitter > 0.0 || boot_failure_prob > 0.0;
  }

  /// Correlated (rack-level) strike channel enabled?
  [[nodiscard]] bool group_active() const {
    return groups > 0 && group_mtbf > 0.0;
  }

  /// Runtime crash/repair channel enabled?
  [[nodiscard]] bool runtime_active() const {
    return mtbf > 0.0 || group_active();
  }
};

/// Degraded-mode serving: when offered load exceeds the On fleet's rated
/// capacity (failures, budget clamps), the surviving machines absorb
/// spill-over above their rating at a contention penalty instead of
/// dropping it outright. For load L against rated capacity C:
///
///   absorbed  = min(L - C, C * overload_factor)   (the spill taken on)
///   effective = C + absorbed * (1 - penalty)      (capacity QoS sees)
///   lost      = absorbed * penalty                (req/s lost to contention)
///
/// Served capacity saturates smoothly at C * (1 + overload_factor *
/// (1 - penalty)) instead of cliff-dropping at C. Power is unaffected —
/// the fleet power curve already saturates at rated capacity; the penalty
/// is capacity-side only. Disabled (overload_factor == 0) runs are
/// byte-identical to a build without this struct.
struct DegradeModel {
  /// Fraction of rated capacity the On fleet absorbs above its rating;
  /// 0 disables degraded-mode serving.
  double overload_factor = 0.0;
  /// Fraction of the absorbed spill-over lost to contention, in [0, 1].
  double penalty = 0.5;

  [[nodiscard]] bool enabled() const { return overload_factor > 0.0; }
};

/// Serving state of one constant-load slice under the degrade model:
/// spill-over above rated capacity is absorbed up to
/// `overload_factor * capacity`, each absorbed req/s serving only
/// (1 - penalty) effectively; spill beyond the absorption limit is simply
/// unserved. Power is untouched — the fleet curve already saturates at
/// rated capacity, so the contention penalty is capacity-side only.
struct DegradedCap {
  ReqRate effective;  // capacity QoS is scored against
  ReqRate lost_rate;  // capacity lost to the contention penalty, req/s
  bool overloaded;    // offered load exceeded rated capacity
};

[[nodiscard]] inline DegradedCap degraded_capacity(const DegradeModel& model,
                                                   ReqRate load,
                                                   ReqRate capacity) {
  if (!(load > capacity)) return DegradedCap{capacity, 0.0, false};
  const ReqRate over = load - capacity;
  const ReqRate limit = capacity * model.overload_factor;
  const ReqRate absorbed = over < limit ? over : limit;
  return DegradedCap{capacity + absorbed * (1.0 - model.penalty),
                     absorbed * model.penalty, true};
}

/// Aggregate machine counts by state, one Combination per state.
struct ClusterSnapshot {
  Combination on;
  Combination booting;
  Combination shutting_down;
  /// Machines felled by runtime faults, awaiting repair.
  Combination failed;
  /// Serving capacity of the On machines, req/s.
  ReqRate on_capacity = 0.0;
};

/// Per-second electrical totals returned by Cluster::step_power.
struct ClusterPower {
  /// Idle + load power of On machines (compute channel).
  Watts compute = 0.0;
  /// Boot/shutdown power of transitioning machines (reconfiguration channel).
  Watts transition = 0.0;
};

class Cluster {
 public:
  /// `candidates` is the sorted candidate catalog the combinations index
  /// into; `initial` machines start On (pre-warmed). `faults` enables boot
  /// fault injection. `plan` is an optional precompiled dispatch plan for
  /// the same catalog (shared across clusters / workers); when null the
  /// cluster compiles its own.
  explicit Cluster(Catalog candidates, const Combination& initial = {},
                   FaultModel faults = {},
                   std::shared_ptr<const DispatchPlan> plan = nullptr);

  [[nodiscard]] const Catalog& candidates() const { return candidates_; }

  /// Starts booting `n` machines of architecture `arch`, reusing Off
  /// machines before provisioning new ones.
  void switch_on(std::size_t arch, int n);

  /// Starts shutting down `n` On machines of architecture `arch`. Throws
  /// std::logic_error when fewer than `n` are On.
  void switch_off(std::size_t arch, int n);

  /// Runtime fault: fells one On machine of `arch` (On -> Failed — it
  /// stops serving and draws no power until repaired). Returns false when
  /// no machine of that architecture is On. The repair clock lives in the
  /// caller's fault timeline; repair_one applies the completed repair.
  bool fail_one(std::size_t arch);

  /// Completes a repair: one Failed machine of `arch` goes Off (and back
  /// onto the reuse free list). Throws std::logic_error when none is
  /// Failed.
  void repair_one(std::size_t arch);

  /// On machines of one architecture (the fault path's cheap gate; the
  /// full per-state picture is snapshot()).
  [[nodiscard]] int on_count(std::size_t arch) const { return on_.at(arch); }

  /// Machines of one architecture currently booting — the settle/restore
  /// helpers need single states, not a full snapshot.
  [[nodiscard]] int booting_count(std::size_t arch) const {
    return booting_.at(arch);
  }

  /// Machines currently booting / shutting down, all architectures.
  [[nodiscard]] int booting_total() const;
  [[nodiscard]] int shutting_down_total() const;

  /// Machines currently Failed, all architectures.
  [[nodiscard]] int failed_count() const;

  /// Current counts per state (the timeline samples of observed runs).
  [[nodiscard]] ClusterSnapshot snapshot() const;

  /// True while any machine is booting or shutting down.
  [[nodiscard]] bool transitioning() const;

  /// Serving capacity of On machines, req/s.
  [[nodiscard]] ReqRate on_capacity() const;

  /// Electrical power for this second given offered `load` (dispatched
  /// optimally over On machines; see core/combination.hpp) plus transition
  /// power. Load beyond capacity is dropped by the dispatcher.
  [[nodiscard]] ClusterPower step_power(ReqRate load) const;

  /// The two step_power channels separately — for span loops over a fixed
  /// fleet, where the transition component is constant and only the
  /// load-dependent compute component needs re-evaluating per trace run.
  [[nodiscard]] Watts compute_power(ReqRate load) const;
  [[nodiscard]] Watts transition_power() const;

  /// Compiles the current On fleet into `out` (see FleetPowerCurve):
  /// out.power_at(load) matches compute_power(load) within a few ulp
  /// while the fleet does not change. `out` borrows the cluster's
  /// dispatch plan.
  void compile_power_curve(FleetPowerCurve& out) const;

  /// Splits the On capacity across colocated workloads: `loads` are the
  /// per-app offered rates, `total` their sum, and `alloc` (resized)
  /// receives each app's capacity allocation. Capacity is divided
  /// load-proportionally — when the cluster is overloaded every app's
  /// shortfall is proportional to its demand — and equally when no load is
  /// offered. A single workload is allocated the whole capacity exactly
  /// (load / total == 1.0), which the multi-workload simulator's
  /// single-app regression pin relies on.
  void split_capacity(const std::vector<ReqRate>& loads, ReqRate total,
                      std::vector<ReqRate>& alloc) const;

  /// The split rule itself with the capacity supplied by the caller — the
  /// simulator hoists on_capacity() out of fixed-fleet span loops. The
  /// member overload above delegates here, so the policy has one copy.
  static void split_capacity(const std::vector<ReqRate>& loads, ReqRate total,
                             ReqRate capacity, std::vector<ReqRate>& alloc);

  /// Advances all machines `dt` seconds; returns the number of transitions
  /// that completed. Multi-second steps are exact: each machine's remaining
  /// time is decremented once, which matches repeated 1 s steps bit-for-bit
  /// as long as no intermediate completion is skipped (callers bound `dt`
  /// by next_transition_remaining()).
  int step(Seconds dt = 1.0);

  /// Smallest remaining transition time among booting / shutting-down
  /// machines; a negative value when none are transitioning. The number of
  /// whole seconds a per-second stepper runs before the first completion is
  /// ceil(next_transition_remaining() - 1e-9). O(1): the minimum is
  /// maintained incrementally by switch_on / switch_off / step instead of
  /// scanning the fleet — this runs on every fast-path span.
  [[nodiscard]] Seconds next_transition_remaining() const {
    return next_transition_min_;
  }

  /// Total machines ever provisioned (for reporting).
  [[nodiscard]] std::size_t machine_count() const { return provisioned_; }

 private:
  /// One batch of machines sharing a transition: `count` machines of
  /// `arch` with the same remaining time, booting or shutting down. Every
  /// member's remaining-time arithmetic is identical, so stepping the
  /// record once is bit-for-bit the same as stepping `count` machine FSMs.
  struct Transition {
    Seconds remaining = 0.0;
    int count = 0;
    std::uint32_t arch = 0;
    bool booting = false;
  };

  [[nodiscard]] Seconds boot_duration(std::size_t arch);
  /// Folds a newly started transition into next_transition_min_.
  void note_transition(Seconds remaining);

  Catalog candidates_;
  std::shared_ptr<const DispatchPlan> plan_;
  FaultModel faults_;
  std::optional<Rng> fault_rng_;
  // Steady state as per-architecture counts (machines are interchangeable
  // within an arch, so identity-free bookkeeping loses nothing): On,
  // Booting / ShuttingDown (mirrors of the transition records, so
  // snapshots stay O(#architectures)), Failed, and parked Off machines
  // available for switch_on reuse.
  std::vector<int> on_;
  std::vector<int> booting_;
  std::vector<int> shutting_;
  std::vector<int> failed_;
  std::vector<int> parked_;
  // Machines ever provisioned (high-water bookkeeping for reporting;
  // switch_on draws down parked_ before growing this).
  std::size_t provisioned_ = 0;
  // In-flight transition batches; empty whenever nothing transitions.
  std::vector<Transition> transitions_;
  // Smallest remaining among transitions_, -1 when none — kept in sync by
  // switch_on/switch_off (new records) and step (uniform decrement +
  // completions, recomputed inside the existing record loop).
  Seconds next_transition_min_ = -1.0;
};

}  // namespace bml
