#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

#include "sim/compiled_trace.hpp"
#include "sim/fault_timeline.hpp"
#include "sim/span_walk.hpp"
#include "util/logging.hpp"

namespace bml {

std::vector<Joules> SimulationResult::per_day_total() const {
  std::vector<Joules> out(per_day_compute.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = per_day_compute[i];
    if (i < per_day_reconfiguration.size())
      out[i] += per_day_reconfiguration[i];
  }
  return out;
}

Simulator::Simulator(Catalog candidates, SimulatorOptions options)
    : candidates_(std::move(candidates)), options_(options) {
  if (candidates_.empty())
    throw std::invalid_argument("Simulator: empty candidate catalog");
  plan_ = std::make_shared<DispatchPlan>(candidates_);
}

Simulator::Simulator(Catalog candidates,
                     std::shared_ptr<const DispatchPlan> plan,
                     SimulatorOptions options)
    : candidates_(std::move(candidates)),
      plan_(std::move(plan)),
      options_(options) {
  if (candidates_.empty())
    throw std::invalid_argument("Simulator: empty candidate catalog");
  if (!plan_ || plan_->arch_kinds() != candidates_.size())
    throw std::invalid_argument("Simulator: plan does not match catalog");
}

SimulationResult Simulator::run(Scheduler& scheduler,
                                const LoadTrace& trace) const {
  static const std::string kSingleAppName = "app";
  const std::vector<WorkloadView> views{WorkloadView{
      &kSingleAppName, &trace, &scheduler, QosClass::kTolerant, 1.0}};
  MultiSimulationResult multi = run_views(views);
  return std::move(multi.total);
}

MultiSimulationResult Simulator::run(std::vector<Workload>& workloads) const {
  if (workloads.empty())
    throw std::invalid_argument("Simulator: no workloads");
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (Workload& w : workloads) {
    if (!w.scheduler)
      throw std::invalid_argument("Simulator: workload '" + w.name +
                                  "' has no scheduler");
    WorkloadView v{&w.name,  &w.trace, w.scheduler.get(), w.qos,
                   w.share, &w.fault_domain};
    v.slo_availability = w.slo_availability;
    v.slo_spare = w.slo_spare;
    v.priority = w.priority;
    v.arrive = w.arrive;
    v.depart = w.depart;
    views.push_back(v);
  }
  return run_views(views);
}

MultiSimulationResult Simulator::run(
    const std::vector<WorkloadView>& views) const {
  if (views.empty()) throw std::invalid_argument("Simulator: no workloads");
  for (const WorkloadView& v : views)
    if (!v.name || !v.trace || !v.scheduler)
      throw std::invalid_argument("Simulator: null workload view field");
  return run_views(views);
}

MultiSimulationResult Simulator::run_views(
    const std::vector<WorkloadView>& views) const {
  return options_.event_driven ? run_event_driven(views)
                               : run_per_second(views);
}

namespace {

/// Reconfiguration bookkeeping shared by both execution strategies; the
/// helpers below are the single copy of the decision and settle logic, so
/// the per-second reference and the event-driven fast path cannot drift
/// apart.
struct ReconfigState {
  Combination current_target;
  bool reconfiguring = false;
  TimePoint started = 0;
  std::vector<int> deferred_offs;
};

/// Runtime-fault state of one run: the event timeline plus per-domain
/// bookkeeping. Present only when FaultModel::runtime_active(). All of it
/// is driven by the shared apply/account helpers, so the per-second
/// reference and the event-driven fast path see the exact same failure
/// history.
struct FaultRun {
  FaultTimeline timeline;
  /// Workload index -> fault-domain index (views sharing a
  /// WorkloadView::fault_domain name share an index; unnamed views get
  /// private domains).
  std::vector<std::size_t> domain_of;
  std::size_t domains = 0;
  /// Currently failed machines per [domain][arch], and integer per-domain
  /// / cluster totals — downtime gating keys off these counts, never off
  /// the capacity doubles (whose incremental sums can retain a rounding
  /// residue after every machine is repaired).
  std::vector<std::vector<int>> failed;
  std::vector<int> failed_machines;
  int total_failed_machines = 0;
  /// Serving capacity currently down per domain (req/s) and its total;
  /// snapped back to exactly 0 whenever the matching count reaches 0.
  std::vector<ReqRate> failed_capacity;
  ReqRate total_failed_capacity = 0.0;
  /// Accounting integrals, per domain and cluster-wide (the cluster-wide
  /// downtime is the union over domains, not the sum).
  std::vector<TimePoint> unavailable_seconds;
  std::vector<double> lost_capacity;
  std::vector<int> failures;
  TimePoint total_unavailable = 0;
  double total_lost = 0.0;
  int total_failures = 0;
  /// Correlated-strike topology: racks per domain (0 = channel off) and
  /// the count of rack strikes that felled at least one machine.
  int groups = 0;
  int group_strikes = 0;
  /// Per-domain outage history for the SLO trailing windows: closed
  /// intervals [start, end) of past whole-domain downtime (pruned once
  /// they leave every window), plus the start of the running outage (-1
  /// while the domain is fully up). "Down" means >= 1 machine failed —
  /// the same predicate unavailable_seconds integrates.
  struct Outage {
    TimePoint start;
    TimePoint end;
  };
  std::vector<std::vector<Outage>> outages;
  std::vector<TimePoint> down_since;
  /// Degraded-mode accounting per domain (sized only when the degrade
  /// model is enabled): seconds the cluster ran overloaded while any of
  /// the domain's apps offered load, and the domain's apps' summed share
  /// of penalty-lost capacity (req·s).
  std::vector<std::int64_t> overload_seconds;
  std::vector<double> penalty_lost;
};

/// Mutable state of one simulation run, shared by both execution
/// strategies so that setup and result assembly exist exactly once. The
/// per-app vectors are parallel to the workload views.
struct Run {
  Run(Cluster cluster_in, Coordinator coordinator_in)
      : cluster(std::move(cluster_in)),
        coordinator(std::move(coordinator_in)) {}

  SimulationResult result;
  Cluster cluster;
  Coordinator coordinator;
  EnergyMeter meter{1.0};
  QosTracker qos;
  ReconfigState state;
  /// Last proposal returned by each app's scheduler (its initial
  /// combination until the first real decision).
  std::vector<Combination> proposals;
  /// Post-clamp slice of the current cluster target attributed to each
  /// app (see Coordinator::merge).
  std::vector<Combination> contributions;
  std::vector<Combination> contributions_scratch;
  /// Reconfiguration-power attribution weights, derived from the
  /// contributions' capacities (equal split when all are empty).
  std::vector<double> transition_shares;
  std::vector<EnergyMeter> app_meters;
  std::vector<QosTracker> app_qos;
  /// Scratch: per-app offered load / capacity allocation this span.
  std::vector<ReqRate> loads;
  std::vector<ReqRate> alloc;
  /// The merged walk's frontier: one lane per active app (see
  /// sim/span_walk.hpp), rebuilt at every span.
  std::vector<MergeLane> lanes;
  /// Consult cache: each app's cached decision_stable_until; entries <= now
  /// force a real decide(). Only the event-driven path fills it (after the
  /// merge, while no reconfiguration is in flight), so the per-second
  /// reference consults every active app every second. decide() sees no
  /// cluster state (see Scheduler), so nothing the cluster does makes an
  /// entry stale: each one holds until it expires.
  std::vector<TimePoint> consult_until;
  /// The schedulers' prediction work before the run: the metrics count
  /// what the run adds to it.
  PredictionWork work_at_start;
  /// The On fleet's compiled power curve (fixed within a span).
  FleetPowerCurve power_curve;
  /// Runtime crash/repair state; disengaged unless the fault model's
  /// runtime channel is active.
  std::optional<FaultRun> faults;
  /// SLO feedback state (any view with slo_availability > 0). The spare
  /// flags are a pure function of the outage history — flag i is set iff
  /// the app's domain's trailing-window downtime exceeds its error budget
  /// — evaluated at consult time; `spares` / `spare_flags` hold what the
  /// last merge actually provisioned, so accrual and attribution only
  /// change at merge instants (identical in both execution strategies).
  bool slo_enabled = false;
  TimePoint slo_window = 0;
  /// Per-app error budget (1 - target) * window in seconds; -1 = no SLO.
  std::vector<double> slo_budget;
  std::vector<Combination> spares;
  std::vector<char> spare_flags;
  std::vector<char> flags_scratch;
  /// Idle power of each app's provisioned spares (W), refreshed at merge.
  std::vector<Watts> spare_power;
  std::vector<Joules> app_spare_energy;
  std::vector<std::int64_t> app_spare_seconds;
  Joules total_spare_energy = 0.0;
  std::int64_t total_spare_seconds = 0;
  /// Which spares the last merge actually provisioned, post priority
  /// ordering (high-priority-first withholding); parallel to `spares`.
  std::vector<char> spare_granted;
  /// Degraded-mode serving (options.degrade.enabled()): the model plus
  /// the overload accounting — cluster-wide, per app, and (in FaultRun)
  /// per domain. The integrands only change at sub-run boundaries, and
  /// overload entry/exit crossings bound fast-path spans, so both
  /// execution strategies integrate the exact same piecewise signal.
  DegradeModel degrade;
  std::int64_t overload_seconds = 0;
  double penalty_lost = 0.0;
  std::vector<std::int64_t> app_overload_seconds;
  std::vector<double> app_penalty_lost;
  /// Scratch: per-domain "accrued this sub-run" flags for the overload
  /// accounting (sized with the fault domains).
  std::vector<char> domain_hit;
  /// Observed runs only: the last observed second's overload state, for
  /// the enter/exit events.
  bool overloaded_now = false;
  /// Priority/preemption state (any two view priorities differ): victim
  /// order for the preemption pass (ascending priority, descending
  /// index — matches the coordinator's trim order), the machines
  /// currently preempted away from each app (recomputed at every fault
  /// batch, cleared at every consult merge), and the per-app
  /// preempted-seconds integrals.
  bool priority_enabled = false;
  std::vector<std::size_t> victim_order;
  std::vector<Combination> preempted;
  std::vector<Combination> preempted_scratch;
  std::vector<std::int64_t> app_preempted_seconds;
  /// Tenant-lifecycle state: the current active mask, the pre-sorted
  /// arrival/departure timeline (consumed front to back — events bound
  /// fast-path spans exactly like faults, so the active set is constant
  /// inside one), and the per-app active-seconds integrals.
  /// `lifecycle_dirty` forces a merge at the next consult so churn
  /// re-partitions capacity through the normal decision path. A fixed
  /// tenant set is this model with every app active and no events;
  /// `lifecycle_enabled` (any view with arrive > 0 or depart >= 0) only
  /// routes a single-app run through the merged walk of advance_span.
  bool lifecycle_enabled = false;
  std::vector<char> active;
  std::size_t active_count = 0;
  struct LifecycleEvent {
    TimePoint time;
    std::size_t app;
    bool departure;
  };
  std::vector<LifecycleEvent> lifecycle_events;
  std::size_t next_lifecycle = 0;
  bool lifecycle_dirty = false;
  std::vector<std::int64_t> app_active_seconds;

  /// The event log of an observed run (SimulatorOptions::record_timeline),
  /// null otherwise; the self-metrics when collected, null otherwise.
  EventLog* events() {
    return result.timeline.enabled ? &result.events : nullptr;
  }
  SimMetrics* metrics() {
    return result.metrics.enabled ? &result.metrics : nullptr;
  }
};

using WorkloadView = Simulator::WorkloadView;

void update_transition_shares(const Catalog& candidates, Run& run) {
  double total = 0.0;
  for (const Combination& c : run.contributions)
    total += capacity(candidates, c);
  // With nothing provisioned the (attribution-only) weight splits equally
  // over the tenants present.
  for (std::size_t i = 0; i < run.contributions.size(); ++i)
    run.transition_shares[i] =
        total > 0.0 ? capacity(candidates, run.contributions[i]) / total
        : run.active[i] ? 1.0 / static_cast<double>(run.active_count)
                        : 0.0;
}

/// Trailing-window downtime of domain `d` over [t - window, t), assuming
/// the current up/down state persists — exact inside a span, where fault
/// events cannot land.
TimePoint window_unavailable(const FaultRun& fr, std::size_t d, TimePoint t,
                             TimePoint window) {
  const TimePoint lo = t - window;
  TimePoint total = 0;
  for (const FaultRun::Outage& o : fr.outages[d]) {
    const TimePoint start = o.start > lo ? o.start : lo;
    if (o.end > start) total += o.end - start;
  }
  if (fr.down_since[d] >= 0) {
    const TimePoint start = fr.down_since[d] > lo ? fr.down_since[d] : lo;
    if (t > start) total += t - start;
  }
  return total;
}

/// Evaluates every SLO app's spare flag at `t` — set iff the app's
/// domain's trailing-window downtime exceeds its error budget. A pure
/// function of the outage history, so both execution strategies get
/// identical flags from identical timelines. Prunes outage intervals that
/// have left every window (pruned intervals contribute 0, so pruning
/// cadence cannot affect results). Fault-free runs keep all flags clear.
void current_spare_flags(Run& run, TimePoint t, std::vector<char>& flags) {
  flags.assign(run.slo_budget.size(), 0);
  if (!run.faults.has_value()) return;
  FaultRun& fr = *run.faults;
  const TimePoint lo = t - run.slo_window;
  for (std::vector<FaultRun::Outage>& history : fr.outages) {
    std::size_t drop = 0;
    while (drop < history.size() && history[drop].end <= lo) ++drop;
    if (drop > 0)
      history.erase(history.begin(),
                    history.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  for (std::size_t i = 0; i < run.slo_budget.size(); ++i) {
    if (run.slo_budget[i] < 0.0) continue;
    // A departed (or not-yet-arrived) tenant's flag is pinned clear: no
    // spares are held for apps that are not serving.
    if (!run.active[i]) continue;
    const std::size_t d = fr.domain_of[i];
    flags[i] = static_cast<double>(window_unavailable(
                   fr, d, t, run.slo_window)) > run.slo_budget[i];
  }
}

/// Earliest second in (t, limit] where some SLO app's spare flag would
/// differ from its value at `t`, assuming the failure set stays fixed
/// (the caller already bounds `limit` by the next fault event). The
/// window downtime is monotone while the up/down state is fixed —
/// non-decreasing while down, non-increasing while up — so each budget
/// crosses at most once inside the span and exact binary search finds it.
TimePoint next_slo_crossing(const Run& run, TimePoint t, TimePoint limit) {
  const FaultRun& fr = *run.faults;
  TimePoint bound = limit;
  for (std::size_t i = 0; i < run.slo_budget.size(); ++i) {
    const double budget = run.slo_budget[i];
    if (budget < 0.0) continue;
    // Inactive tenants' flags are pinned clear, so they cannot cross.
    if (!run.active[i]) continue;
    const std::size_t d = fr.domain_of[i];
    // A clean window stays clean: no downtime can enter it inside a span.
    if (fr.down_since[d] < 0 && fr.outages[d].empty()) continue;
    const auto over_at = [&](TimePoint s) {
      return static_cast<double>(
                 window_unavailable(fr, d, s, run.slo_window)) > budget;
    };
    const bool over = over_at(t);
    if (over_at(bound) == over) continue;
    TimePoint lo = t;
    TimePoint hi = bound;
    while (hi - lo > 1) {
      const TimePoint mid = lo + (hi - lo) / 2;
      if (over_at(mid) == over)
        lo = mid;
      else
        hi = mid;
    }
    bound = hi;
  }
  return bound;
}

/// Per-arch ceil(fraction * count) headroom of `proposal` — the spare
/// capacity provisioned while the app's SLO is violated.
void spare_of(const Combination& proposal, double fraction, std::size_t kinds,
              Combination& out) {
  out = Combination{};
  out.resize(kinds);
  for (std::size_t a = 0; a < kinds; ++a) {
    const int n = proposal.count(a);
    if (n > 0)
      out.add(a, static_cast<int>(
                     std::ceil(static_cast<double>(n) * fraction)));
  }
}

Watts idle_power_of(const Catalog& candidates, const Combination& c) {
  Watts w = 0.0;
  for (std::size_t a = 0; a < candidates.size(); ++a)
    w += candidates[a].idle_power() * c.count(a);
  return w;
}

/// Accrues the provisioned spares' idle energy and active seconds over a
/// span. The spare set only changes at merge instants — span starts in
/// both strategies — so the accrual integrand is constant inside one.
void account_spare_span(Run& run, TimePoint span) {
  bool any = false;
  for (std::size_t i = 0; i < run.spares.size(); ++i) {
    if (run.spares[i].total_machines() == 0) continue;
    any = true;
    const Joules e = run.spare_power[i] * static_cast<double>(span);
    run.app_spare_seconds[i] += span;
    run.app_spare_energy[i] += e;
    run.total_spare_energy += e;
  }
  if (any) run.total_spare_seconds += span;
}

/// Accrues the overload accounting over `span` seconds of a slice with
/// constant loads, called only while the cluster is overloaded (so
/// total_load > 0): cluster-wide, per app offering load (penalty loss
/// split load-proportionally), and per fault domain — a domain accrues
/// overload seconds while any of its apps offers load. The integrand is
/// constant inside a slice, so both execution strategies integrate the
/// same piecewise signal.
void account_overload(const std::vector<WorkloadView>& views, Run& run,
                      ReqRate total_load, ReqRate lost_rate, TimePoint span) {
  const auto seconds = static_cast<double>(span);
  run.overload_seconds += span;
  run.penalty_lost += lost_rate * seconds;
  FaultRun* fr = run.faults.has_value() ? &*run.faults : nullptr;
  if (fr) std::fill(run.domain_hit.begin(), run.domain_hit.end(), 0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!(run.loads[i] > 0.0)) continue;
    run.app_overload_seconds[i] += span;
    const double lost = lost_rate * seconds * (run.loads[i] / total_load);
    run.app_penalty_lost[i] += lost;
    if (fr) {
      const std::size_t d = fr->domain_of[i];
      if (!run.domain_hit[d]) {
        run.domain_hit[d] = 1;
        fr->overload_seconds[d] += span;
      }
      fr->penalty_lost[d] += lost;
    }
  }
}

/// Accrues preempted-seconds over a span: an app accrues while at least
/// one of its provisioned machines is preempted away. The preempted set
/// only changes at fault batches and consult merges — span starts in both
/// strategies — so the integrand is constant inside one.
void account_preemption_span(Run& run, TimePoint span) {
  for (std::size_t i = 0; i < run.preempted.size(); ++i)
    if (run.preempted[i].total_machines() > 0)
      run.app_preempted_seconds[i] += span;
}

/// Applies every tenant arrival / departure due at `now` (shared verbatim
/// by both execution strategies — churn events bound fast-path spans, so
/// the active set is constant inside one). An arrival re-seeds the app's
/// proposal from its scheduler's initial combination; a departure clears
/// it. Either way the coordinator re-partitions its capacity shares over
/// the new active set and `lifecycle_dirty` forces a merge at the next
/// consult — departures release their machines through the normal
/// (graceful) transition path, never by teleporting fleet state.
bool apply_lifecycle_events(const std::vector<WorkloadView>& views,
                            TimePoint now, const Catalog& candidates,
                            Run& run, EventLog* events) {
  bool changed = false;
  while (run.next_lifecycle < run.lifecycle_events.size() &&
         run.lifecycle_events[run.next_lifecycle].time <= now) {
    const Run::LifecycleEvent e = run.lifecycle_events[run.next_lifecycle];
    ++run.next_lifecycle;
    const std::size_t i = e.app;
    if (e.departure) {
      if (!run.active[i]) continue;
      run.active[i] = 0;
      --run.active_count;
      run.proposals[i] = Combination{};
      run.proposals[i].resize(candidates.size());
      ++run.result.departures;
      changed = true;
      if (events)
        events->record(now, EventKind::kAppDeparture, *views[i].name);
    } else {
      if (run.active[i]) continue;
      run.active[i] = 1;
      ++run.active_count;
      Combination c = views[i].scheduler->initial_combination(*views[i].trace);
      c.resize(candidates.size());
      run.proposals[i] = std::move(c);
      ++run.result.arrivals;
      changed = true;
      if (events)
        events->record(now, EventKind::kAppArrival, *views[i].name);
    }
  }
  if (changed) {
    run.coordinator.set_active(run.active);
    run.lifecycle_dirty = true;
    if (run.result.metrics.enabled &&
        static_cast<std::uint64_t>(run.active_count) >
            run.result.metrics.apps_active_max)
      run.result.metrics.apps_active_max = run.active_count;
  }
  return changed;
}

/// Integrates per-tenant active seconds over a span whose active set is
/// constant (1 s in the reference loop; a whole span on the fast path).
void account_lifecycle_span(Run& run, TimePoint span) {
  for (std::size_t i = 0; i < run.active.size(); ++i)
    if (run.active[i]) run.app_active_seconds[i] += span;
}

/// The prediction work of every view's scheduler so far.
PredictionWork prediction_work(const std::vector<WorkloadView>& views) {
  PredictionWork work;
  for (const WorkloadView& v : views) work += v.scheduler->prediction_work();
  return work;
}

Run make_run(const Catalog& candidates, const SimulatorOptions& options,
             std::shared_ptr<const DispatchPlan> plan,
             const std::vector<WorkloadView>& views) {
  const PredictionWork work_at_start = prediction_work(views);
  const std::size_t kinds = candidates.size();
  std::vector<double> shares;
  std::vector<int> priorities;
  shares.reserve(views.size());
  priorities.reserve(views.size());
  bool lifecycle = false;
  for (const WorkloadView& v : views) {
    shares.push_back(v.share);
    if (v.priority < 0)
      throw std::invalid_argument("Simulator: priority must be >= 0");
    priorities.push_back(v.priority);
    if (v.arrive < 0)
      throw std::invalid_argument("Simulator: arrive must be >= 0");
    if (v.depart >= 0 && v.depart <= v.arrive)
      throw std::invalid_argument("Simulator: depart must be > arrive");
    if (v.arrive > 0 || v.depart >= 0) lifecycle = true;
  }
  Coordinator coordinator(candidates, options.coordinator, std::move(shares),
                          options.coordinator_budget, std::move(priorities));
  std::vector<char> active(views.size(), 1);
  for (std::size_t i = 0; i < views.size(); ++i)
    if (views[i].arrive > 0) active[i] = 0;
  coordinator.set_active(active);

  std::vector<Combination> proposals;
  proposals.reserve(views.size());
  for (const WorkloadView& v : views) {
    // A tenant that has not arrived yet proposes nothing: the initial
    // fleet is sized for the apps serving at t = 0 only.
    Combination c;
    if (v.arrive <= 0) c = v.scheduler->initial_combination(*v.trace);
    c.resize(kinds);
    proposals.push_back(std::move(c));
  }
  std::vector<Combination> contributions;
  Combination initial = coordinator.merge(proposals, {}, contributions);

  Run run(Cluster(candidates, initial, options.faults, std::move(plan)),
          std::move(coordinator));
  std::string joined;
  for (const WorkloadView& v : views) {
    if (!joined.empty()) joined += '+';
    joined += v.scheduler->name();
  }
  run.result.scheduler_name = std::move(joined);
  run.work_at_start = work_at_start;
  run.state.current_target = std::move(initial);
  run.state.deferred_offs.assign(kinds, 0);
  run.proposals = std::move(proposals);
  run.contributions = std::move(contributions);
  run.lifecycle_enabled = lifecycle;
  run.active = std::move(active);
  run.active_count = static_cast<std::size_t>(
      std::count(run.active.begin(), run.active.end(), 1));
  run.app_active_seconds.assign(views.size(), 0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].arrive > 0)
      run.lifecycle_events.push_back(
          Run::LifecycleEvent{views[i].arrive, i, false});
    if (views[i].depart >= 0)
      run.lifecycle_events.push_back(
          Run::LifecycleEvent{views[i].depart, i, true});
  }
  // Deterministic timeline: by time, arrivals before departures, by app
  // index within a kind — all events at one instant land in one batch
  // before any merge, so the order only shapes the event log.
  std::sort(run.lifecycle_events.begin(), run.lifecycle_events.end(),
            [](const Run::LifecycleEvent& a, const Run::LifecycleEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.departure != b.departure) return !a.departure;
              return a.app < b.app;
            });
  run.transition_shares.assign(views.size(), 0.0);
  update_transition_shares(candidates, run);
  run.app_meters.assign(views.size(), EnergyMeter(1.0));
  run.app_qos.resize(views.size());
  run.loads.assign(views.size(), 0.0);
  run.alloc.assign(views.size(), 0.0);
  run.consult_until.assign(views.size(), -1);
  run.slo_budget.assign(views.size(), -1.0);
  for (std::size_t i = 0; i < views.size(); ++i) {
    const double target = views[i].slo_availability;
    if (target < 0.0 || target > 1.0)
      throw std::invalid_argument(
          "Simulator: slo_availability must be in [0, 1]");
    if (target <= 0.0) continue;
    if (!(views[i].slo_spare > 0.0))
      throw std::invalid_argument("Simulator: slo_spare must be > 0");
    if (!(options.slo_window >= 1.0))
      throw std::invalid_argument("Simulator: slo_window must be >= 1");
    run.slo_enabled = true;
    run.slo_window = static_cast<TimePoint>(std::llround(options.slo_window));
    run.slo_budget[i] =
        (1.0 - target) * static_cast<double>(run.slo_window);
  }
  if (run.slo_enabled) {
    run.spares.assign(views.size(), Combination{});
    for (Combination& c : run.spares) c.resize(kinds);
    run.spare_flags.assign(views.size(), 0);
    run.flags_scratch.assign(views.size(), 0);
    run.spare_power.assign(views.size(), 0.0);
    run.app_spare_energy.assign(views.size(), 0.0);
    run.app_spare_seconds.assign(views.size(), 0);
    run.spare_granted.assign(views.size(), 0);
  }
  run.degrade = options.degrade;
  if (!std::isfinite(run.degrade.overload_factor) ||
      run.degrade.overload_factor < 0.0)
    throw std::invalid_argument(
        "Simulator: degrade.overload_factor must be >= 0");
  if (!(run.degrade.penalty >= 0.0 && run.degrade.penalty <= 1.0))
    throw std::invalid_argument("Simulator: degrade.penalty must be in [0, 1]");
  if (run.degrade.enabled()) {
    run.app_overload_seconds.assign(views.size(), 0);
    run.app_penalty_lost.assign(views.size(), 0.0);
  }
  for (std::size_t i = 1; i < views.size(); ++i)
    if (views[i].priority != views[0].priority) {
      run.priority_enabled = true;
      break;
    }
  if (run.priority_enabled) {
    run.victim_order.resize(views.size());
    std::iota(run.victim_order.begin(), run.victim_order.end(),
              std::size_t{0});
    std::stable_sort(run.victim_order.begin(), run.victim_order.end(),
                     [&views](std::size_t a, std::size_t b) {
                       if (views[a].priority != views[b].priority)
                         return views[a].priority < views[b].priority;
                       return a > b;
                     });
    run.preempted.assign(views.size(), Combination{});
    for (Combination& c : run.preempted) c.resize(kinds);
    run.preempted_scratch = run.preempted;
    run.app_preempted_seconds.assign(views.size(), 0);
  }
  if (options.faults.runtime_active()) {
    FaultRun faults;
    // Map views to fault domains: same non-empty name = shared domain,
    // first-appearance order; unnamed views fail independently.
    std::map<std::string, std::size_t> named;
    faults.domain_of.reserve(views.size());
    for (const WorkloadView& v : views) {
      if (v.fault_domain == nullptr || v.fault_domain->empty()) {
        faults.domain_of.push_back(faults.domains++);
      } else {
        const auto [it, inserted] =
            named.try_emplace(*v.fault_domain, faults.domains);
        if (inserted) ++faults.domains;
        faults.domain_of.push_back(it->second);
      }
    }
    faults.timeline =
        FaultTimeline(options.faults, kinds, faults.domains);
    faults.failed.assign(faults.domains, std::vector<int>(kinds, 0));
    faults.failed_machines.assign(faults.domains, 0);
    faults.failed_capacity.assign(faults.domains, 0.0);
    faults.unavailable_seconds.assign(faults.domains, 0);
    faults.lost_capacity.assign(faults.domains, 0.0);
    faults.failures.assign(faults.domains, 0);
    faults.groups = options.faults.group_active() ? options.faults.groups : 0;
    faults.outages.assign(faults.domains, {});
    faults.down_since.assign(faults.domains, -1);
    if (run.degrade.enabled()) {
      faults.overload_seconds.assign(faults.domains, 0);
      faults.penalty_lost.assign(faults.domains, 0.0);
      run.domain_hit.assign(faults.domains, 0);
    }
    run.faults.emplace(std::move(faults));
  }
  if (options.collect_metrics) {
    run.result.metrics.enable();
    run.result.metrics.apps_active_max =
        static_cast<std::uint64_t>(run.active_count);
  }
  if (options.record_timeline) {
    if (options.timeline_sample_every == 0)
      throw std::invalid_argument(
          "Simulator: timeline_sample_every must be >= 1");
    TraceRecording& timeline = run.result.timeline;
    timeline.enabled = true;
    timeline.sample_every =
        static_cast<TimePoint>(options.timeline_sample_every);
    for (std::size_t a = 0; a < kinds; ++a)
      timeline.arch_names.push_back(candidates[a].name());
  }
  return run;
}

/// Copies the cluster-wide and per-app meters into the result.
void finalize_run(Run& run, const std::vector<WorkloadView>& views,
                  MultiSimulationResult& out) {
  SimulationResult& r = run.result;
  if (r.metrics.enabled) {
    const PredictionWork work = prediction_work(views);
    r.metrics.predict_refits += work.refits - run.work_at_start.refits;
    r.metrics.predict_walk_seconds +=
        work.walk_seconds - run.work_at_start.walk_seconds;
  }
  r.compute_energy = run.meter.compute_energy();
  r.reconfiguration_energy = run.meter.reconfiguration_energy();
  r.per_day_compute = run.meter.per_day_compute();
  r.per_day_reconfiguration = run.meter.per_day_reconfiguration();
  r.qos = run.qos.stats();
  if (run.faults.has_value()) {
    const FaultRun& fr = *run.faults;
    r.machine_failures = fr.total_failures;
    r.unavailable_seconds = fr.total_unavailable;
    r.lost_capacity = fr.total_lost;
    r.group_strikes = fr.group_strikes;
    r.availability =
        r.qos.total_seconds > 0
            ? 1.0 - static_cast<double>(fr.total_unavailable) /
                        static_cast<double>(r.qos.total_seconds)
            : 1.0;
  }
  if (run.slo_enabled) {
    r.spare_seconds = run.total_spare_seconds;
    r.spare_energy = run.total_spare_energy;
  }
  if (run.degrade.enabled()) {
    r.overload_seconds = run.overload_seconds;
    r.penalty_lost_capacity = run.penalty_lost;
  }
  out.total = std::move(run.result);
  out.apps.resize(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    WorkloadResult& app = out.apps[i];
    app.name = *views[i].name;
    app.scheduler_name = views[i].scheduler->name();
    app.qos = views[i].qos;
    app.qos_stats = run.app_qos[i].stats();
    app.compute_energy = run.app_meters[i].compute_energy();
    app.reconfiguration_energy = run.app_meters[i].reconfiguration_energy();
    if (run.faults.has_value()) {
      const FaultRun& fr = *run.faults;
      const std::size_t d = fr.domain_of[i];
      app.failures = fr.failures[d];
      app.unavailable_seconds = fr.unavailable_seconds[d];
      app.lost_capacity = fr.lost_capacity[d];
      app.availability =
          app.qos_stats.total_seconds > 0
              ? 1.0 - static_cast<double>(fr.unavailable_seconds[d]) /
                          static_cast<double>(app.qos_stats.total_seconds)
              : 1.0;
    }
    if (run.slo_enabled) {
      app.spare_seconds = run.app_spare_seconds[i];
      app.spare_energy = run.app_spare_energy[i];
    }
    if (run.degrade.enabled()) {
      app.overload_seconds = run.app_overload_seconds[i];
      app.penalty_lost_capacity = run.app_penalty_lost[i];
      if (run.faults.has_value()) {
        const std::size_t d = run.faults->domain_of[i];
        app.domain_overload_seconds = run.faults->overload_seconds[d];
        app.domain_penalty_lost = run.faults->penalty_lost[d];
      }
    }
    if (run.priority_enabled)
      app.preempted_seconds = run.app_preempted_seconds[i];
    app.active_seconds = run.app_active_seconds[i];
  }
}

/// Applies the merged decision at `now`: a target change switches machines
/// on (and off — deferred in graceful mode) and starts a reconfiguration.
/// `events` is null when event logging is off; `metrics` when
/// self-metrics are off.
void apply_decision(Combination decision, TimePoint now,
                    const Catalog& candidates, bool graceful_off,
                    Cluster& cluster, ReconfigState& state,
                    SimulationResult& result, EventLog* events,
                    SimMetrics* metrics) {
  if (decision == state.current_target) return;
  if (metrics) ++metrics->decisions_applied;

  const std::vector<int> d = delta(state.current_target, decision);
  bool any_on = false;
  for (std::size_t a = 0; a < d.size(); ++a)
    if (d[a] > 0) {
      cluster.switch_on(a, d[a]);
      any_on = true;
    }
  for (std::size_t a = 0; a < d.size(); ++a)
    if (d[a] < 0) {
      // Graceful mode keeps surplus machines serving until the
      // replacements are up; otherwise they power down immediately.
      if (graceful_off && any_on)
        state.deferred_offs[a] += -d[a];
      else
        cluster.switch_off(a, -d[a]);
    }
  state.reconfiguring = true;
  state.started = now;
  ++result.reconfigurations;
  if (log_enabled(LogLevel::kDebug))
    log_debug() << "t=" << now << " reconfigure -> "
                << to_string(candidates, decision);
  if (events)
    events->record(now, EventKind::kReconfigurationStart,
                   to_string(candidates, decision));
  state.current_target = std::move(decision);
}

/// Consults every active app's scheduler at `now` and applies the
/// coordinator's merged decision. A scheduler returning std::nullopt keeps
/// its previous proposal; when no proposal changed — and no SLO spare flag
/// flipped — the merged target cannot have changed either and the merge
/// is skipped.
///
/// Apps whose cached decision_stable_until is still in the future are
/// skipped entirely: the contract guarantees their decision cannot have
/// changed, whatever the cluster did since. Only the event-driven path
/// fills the cache, so the per-second reference consults every active app
/// and stays the oracle for the cached path.
void consult_and_apply(const std::vector<WorkloadView>& views, TimePoint now,
                       const Catalog& candidates, bool graceful_off, Run& run,
                       EventLog* events, SimMetrics* metrics) {
  bool any_new = false;
  std::uint64_t consults = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!run.active[i] || run.consult_until[i] > now) continue;
    ++consults;
    std::optional<Combination> d =
        views[i].scheduler->decide(now, *views[i].trace);
    if (d.has_value()) {
      d->resize(candidates.size());
      if (*d != run.proposals[i]) {
        run.proposals[i] = std::move(*d);
        any_new = true;
      }
    }
  }
  if (metrics) metrics->scheduler_consults += consults;
  bool slo_changed = false;
  if (run.slo_enabled) {
    current_spare_flags(run, now, run.flags_scratch);
    slo_changed = run.flags_scratch != run.spare_flags;
  }
  if (!any_new && !slo_changed && !run.lifecycle_dirty) return;
  run.lifecycle_dirty = false;
  if (run.slo_enabled) {
    // Refresh the provisioned spares from the *current* proposals: an
    // active flag rides on whatever the app now asks for. With priority
    // classes, spares are provisioned high-priority-first: while any
    // higher-priority app's flag is active, lower-priority apps' spares
    // are withheld (their flags keep being evaluated, so provisioning
    // resumes the moment the top class recovers).
    int top = std::numeric_limits<int>::min();
    if (run.priority_enabled)
      for (std::size_t i = 0; i < views.size(); ++i)
        if (run.flags_scratch[i] != 0 && views[i].priority > top)
          top = views[i].priority;
    for (std::size_t i = 0; i < views.size(); ++i) {
      const bool granted =
          run.flags_scratch[i] != 0 &&
          (!run.priority_enabled || views[i].priority >= top);
      if (events && granted != (run.spare_granted[i] != 0))
        events->record(now,
                       granted ? EventKind::kSpareProvision
                               : EventKind::kSpareRelease,
                       *views[i].name);
      if (granted) {
        spare_of(run.proposals[i], views[i].slo_spare, candidates.size(),
                 run.spares[i]);
      } else if (run.spares[i].total_machines() > 0) {
        run.spares[i] = Combination{};
        run.spares[i].resize(candidates.size());
      }
      run.spare_power[i] = idle_power_of(candidates, run.spares[i]);
      run.spare_flags[i] = run.flags_scratch[i];
      run.spare_granted[i] = granted ? 1 : 0;
    }
  }
  Combination merged = run.coordinator.merge(run.proposals, run.spares,
                                             run.contributions_scratch);
  run.contributions.swap(run.contributions_scratch);
  update_transition_shares(candidates, run);
  apply_decision(std::move(merged), now, candidates, graceful_off,
                 run.cluster, run.state, run.result, events, metrics);
  // A consult that re-merged has re-provisioned every app's full
  // entitlement (apply_decision boots the difference vs the preemption-
  // reduced target), so any outstanding preemption ends here.
  if (run.priority_enabled)
    for (Combination& c : run.preempted)
      if (c.total_machines() > 0) {
        c = Combination{};
        c.resize(candidates.size());
      }
}

/// Post-step bookkeeping while a reconfiguration is in flight: once all
/// boots drained, issues the deferred switch-offs; once those drained too,
/// clears the flag (the next decision happens the following second).
void settle_reconfiguration(TimePoint now, Cluster& cluster,
                            ReconfigState& state, EventLog* events) {
  if (cluster.booting_total() != 0) return;
  const bool was_shutting = cluster.shutting_down_total() != 0;
  bool issued = false;
  for (std::size_t a = 0; a < state.deferred_offs.size(); ++a)
    if (state.deferred_offs[a] > 0) {
      cluster.switch_off(a, state.deferred_offs[a]);
      state.deferred_offs[a] = 0;
      issued = true;
    }
  if (!issued && !was_shutting) {
    state.reconfiguring = false;  // completed; next decision at t + 1
    if (events)
      events->record(now, EventKind::kReconfigurationComplete,
                     std::to_string(now - state.started + 1) + " s");
  }
}

/// Re-merges the current proposals against the surviving fleet after a
/// failure and boots replacements for any deficit vs the merged target —
/// the coordinator's answer to lost capacity. The merge is pure in the
/// proposals, so the target itself is unchanged; what changes is the
/// fleet underneath it, and the refreshed contributions / transition
/// shares keep reconfiguration-energy attribution consistent while the
/// replacements boot.
///
/// With priority classes, a preemption pass runs between the merge and
/// the deficit boots: instead of waiting out replacement boots, a strike
/// that leaves a high-priority app short takes provisioned machines from
/// lower-priority apps' contributions (the serving capacity is pooled, so
/// the transfer shifts entitlement — strike exposure, transition shares,
/// preempted-seconds — to the class the control plane protects).
/// Preemption is recomputed from scratch at every fault batch: the fresh
/// merge forgot the previous pass, and the new pass re-takes only what
/// the *currently failed* machines still justify, so repairs release
/// preempted machines unit-for-unit and the freed deficit boots below.
void restore_after_failure(TimePoint now, const Catalog& candidates,
                           const std::vector<WorkloadView>& views, Run& run,
                           EventLog* events) {
  // The merge includes the spares the last consult provisioned (the flags
  // themselves only change at consult instants, shared by both paths).
  Combination merged = run.coordinator.merge(run.proposals, run.spares,
                                             run.contributions_scratch);
  run.contributions.swap(run.contributions_scratch);
  if (run.priority_enabled && run.faults.has_value()) {
    // Victims: apps with priority strictly below the highest priority
    // among apps whose domain currently holds a failed machine, shed in
    // trim order (lowest priority first, descending index). Per arch, at
    // most the currently-failed machine count may be preempted — deficit
    // beyond that predates the failures and is the decision loop's to fix.
    const FaultRun& fr = *run.faults;
    int top = std::numeric_limits<int>::min();
    for (std::size_t i = 0; i < views.size(); ++i)
      if (run.active[i] && fr.failed_machines[fr.domain_of[i]] > 0 &&
          views[i].priority > top)
        top = views[i].priority;
    for (Combination& c : run.preempted_scratch) {
      c = Combination{};
      c.resize(candidates.size());
    }
    if (top > std::numeric_limits<int>::min()) {
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        const int have = run.cluster.on_count(a) +
                         run.cluster.booting_count(a) -
                         run.state.deferred_offs[a];
        int deficit = merged.count(a) - have;
        int takeable = 0;
        for (std::size_t d = 0; d < fr.domains; ++d)
          takeable += fr.failed[d][a];
        if (deficit > takeable) deficit = takeable;
        for (std::size_t victim : run.victim_order) {
          if (deficit <= 0) break;
          if (views[victim].priority >= top) continue;
          const int give =
              std::min(deficit, run.contributions[victim].count(a));
          if (give <= 0) continue;
          run.contributions[victim].add(a, -give);
          merged.add(a, -give);
          run.preempted_scratch[victim].add(a, give);
          deficit -= give;
        }
      }
    }
    int newly = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      int app_new = 0;
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        const int diff = run.preempted_scratch[i].count(a) -
                         run.preempted[i].count(a);
        if (diff > 0) app_new += diff;
      }
      if (app_new > 0 && events)
        events->record(now, EventKind::kPreemption,
                       std::to_string(app_new) + " from " + *views[i].name);
      newly += app_new;
    }
    if (newly > 0) {
      run.result.preemptions += newly;
      if (run.result.metrics.enabled)
        run.result.metrics.preemptions += static_cast<std::uint64_t>(newly);
    }
    run.preempted.swap(run.preempted_scratch);
  }
  update_transition_shares(candidates, run);
  run.state.current_target = std::move(merged);

  bool any = false;
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    // Machines already earmarked for this target: serving + booting,
    // minus the surplus that graceful mode will switch off later.
    const int have = run.cluster.on_count(a) + run.cluster.booting_count(a) -
                     run.state.deferred_offs[a];
    const int deficit = run.state.current_target.count(a) - have;
    if (deficit > 0) {
      run.cluster.switch_on(a, deficit);
      any = true;
    }
  }
  if (!any) return;
  if (!run.state.reconfiguring) {
    run.state.reconfiguring = true;
    run.state.started = now;
    ++run.result.reconfigurations;
    if (events)
      events->record(now, EventKind::kReconfigurationStart,
                     "replace failed: " +
                         to_string(candidates, run.state.current_target));
  }
  if (log_enabled(LogLevel::kDebug))
    log_debug() << "t=" << now << " failure restore -> "
                << to_string(candidates, run.state.current_target);
}

/// Applies every fault event due at `now` (shared verbatim by both
/// execution strategies — the fast path guarantees events only ever land
/// on span starts). A failure strike fells one On machine of its arch if
/// the domain's coordinator contributions still entitle it to one; a
/// group (rack) strike fells the struck rack's whole stripe of the
/// domain's surviving entitlement, every arch at once. Landed failures
/// first consume a matching deferred switch-off (the surplus machine the
/// decision was about to power down is simply dead instead), otherwise
/// the fleet is restored against the merged target.
void apply_fault_events(TimePoint now, const Catalog& candidates,
                        const std::vector<WorkloadView>& views, Run& run,
                        EventLog* events) {
  FaultRun& fr = *run.faults;
  bool need_restore = false;
  bool any_event = false;
  // One landed failure, any strike kind: cluster + counters + repair job
  // (through the crew queue) + deferred-off consumption.
  const auto fell_one = [&](std::size_t d, std::size_t a,
                            TimePoint repair_seconds) {
    const ReqRate machine_capacity = candidates[a].max_perf();
    if (run.slo_enabled && fr.failed_machines[d] == 0) fr.down_since[d] = now;
    run.cluster.fail_one(a);
    ++fr.failed[d][a];
    ++fr.failed_machines[d];
    ++fr.total_failed_machines;
    fr.failed_capacity[d] += machine_capacity;
    fr.total_failed_capacity += machine_capacity;
    ++fr.failures[d];
    ++fr.total_failures;
    fr.timeline.schedule_repair(now, repair_seconds, d, a);
    if (run.state.deferred_offs[a] > 0)
      --run.state.deferred_offs[a];
    else
      need_restore = true;
  };
  while (std::optional<FaultEvent> e = fr.timeline.pop(now)) {
    any_event = true;
    if (e->repair) {
      const ReqRate machine_capacity = candidates[e->arch].max_perf();
      run.cluster.repair_one(e->arch);
      --fr.failed[e->domain][e->arch];
      --fr.failed_machines[e->domain];
      --fr.total_failed_machines;
      fr.failed_capacity[e->domain] -= machine_capacity;
      fr.total_failed_capacity -= machine_capacity;
      // Kill any incremental-sum residue once everything is back up, so
      // the availability integrand is exactly 0 between outages.
      if (fr.failed_machines[e->domain] == 0) {
        fr.failed_capacity[e->domain] = 0.0;
        // The domain's outage closes; the interval feeds the SLO windows.
        if (run.slo_enabled) {
          fr.outages[e->domain].push_back(
              FaultRun::Outage{fr.down_since[e->domain], now});
          fr.down_since[e->domain] = -1;
        }
      }
      if (fr.total_failed_machines == 0) fr.total_failed_capacity = 0.0;
      if (events)
        events->record(now, EventKind::kMachineRepair,
                       candidates[e->arch].name());
      continue;
    }
    if (e->group_strike) {
      // The rack holds a deterministic round-robin stripe of the domain's
      // surviving entitlement per arch; the strike fells the whole stripe
      // (clamped by what is actually On). All casualties share the
      // strike's single pre-drawn repair duration.
      int felled = 0;
      for (std::size_t a = 0; a < candidates.size(); ++a) {
        int entitled = 0;
        for (std::size_t i = 0; i < views.size(); ++i)
          if (fr.domain_of[i] == e->domain)
            entitled += run.contributions[i].count(a);
        const int available =
            std::max(0, entitled - fr.failed[e->domain][a]);
        int stripe = available / fr.groups;
        if (static_cast<int>(e->group) < available % fr.groups) ++stripe;
        stripe = std::min(stripe, run.cluster.on_count(a));
        for (int k = 0; k < stripe; ++k)
          fell_one(e->domain, a, e->repair_seconds);
        felled += stripe;
      }
      if (felled > 0) {
        ++fr.group_strikes;
        if (events)
          events->record(now, EventKind::kGroupStrike,
                         std::to_string(felled) + " machines");
      }
      continue;
    }
    int entitled = 0;
    for (std::size_t i = 0; i < views.size(); ++i)
      if (fr.domain_of[i] == e->domain)
        entitled += run.contributions[i].count(e->arch);
    if (fr.failed[e->domain][e->arch] >= entitled ||
        run.cluster.on_count(e->arch) == 0)
      continue;  // the strike found nothing of this domain's to kill
    fell_one(e->domain, e->arch, e->repair_seconds);
    if (events)
      events->record(now, EventKind::kMachineFailure,
                     candidates[e->arch].name());
  }
  // Priority runs recompute the preemption pass at *every* landed batch
  // (repairs release preempted machines and boot their replacements);
  // priority-free runs only restore when a strike left a deficit,
  // byte-identical to a preemption-unaware build.
  if (need_restore || (any_event && run.priority_enabled))
    restore_after_failure(now, candidates, views, run, events);
}

/// Integrates the fault-accounting state over a span whose failure set is
/// constant (1 s in the reference loop; a whole span on the fast path —
/// fault events bound spans, so the set cannot change inside one).
void account_fault_span(FaultRun& fr, TimePoint span) {
  if (fr.total_failed_machines == 0) return;
  for (std::size_t d = 0; d < fr.domains; ++d) {
    if (fr.failed_machines[d] == 0) continue;
    fr.unavailable_seconds[d] += span;
    fr.lost_capacity[d] +=
        fr.failed_capacity[d] * static_cast<double>(span);
  }
  fr.total_unavailable += span;
  fr.total_lost +=
      fr.total_failed_capacity * static_cast<double>(span);
}

/// Sums this span's per-app loads into `run.loads`; returns the total.
ReqRate gather_loads(const std::vector<WorkloadView>& views, TimePoint now,
                     Run& run) {
  ReqRate total = 0.0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    // Inactive tenants offer exactly 0.0: summing the zero in app order
    // keeps the total bit-identical to a gather over the active subset.
    run.loads[i] = run.active[i] ? views[i].trace->at(now) : 0.0;
    total += run.loads[i];
  }
  return total;
}

/// Per-app QoS and energy attribution of one second of the reference
/// loop (advance_span's k-way merge performs the same arithmetic on
/// accumulators it holds open). Only touches per-app accumulators — the
/// cluster-wide aggregates are recorded by the caller. `capacity` is the
/// effective capacity QoS is scored against.
void attribute_second(const std::vector<WorkloadView>& views, Run& run,
                      ReqRate total_load, const ClusterPower& power,
                      ReqRate capacity) {
  // Attribution covers the active subset only: inactive apps integrate
  // nothing (their loads are pinned to 0.0), and an idle-cluster equal
  // split spreads over the tenants present.
  Cluster::split_capacity(run.loads, total_load, capacity, run.alloc);
  const auto n_active = static_cast<double>(run.active_count);
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!run.active[i]) continue;
    run.app_qos[i].record_span(run.loads[i], run.alloc[i], 1);
    const double compute_share =
        total_load > 0.0 ? run.loads[i] / total_load : 1.0 / n_active;
    run.app_meters[i].add_span(power.compute * compute_share,
                               power.transition * run.transition_shares[i],
                               1);
  }
}

/// Opens the span starting at `t` (one second in the reference loop):
/// tenant arrivals and departures land first, then fault events, so the
/// schedulers and the dispatcher see the post-churn tenant set and the
/// post-failure fleet; then, while idle, the consult and merged decision.
void begin_span(const std::vector<WorkloadView>& views, TimePoint t,
                const Catalog& candidates, bool graceful_off, Run& run) {
  EventLog* events = run.events();
  apply_lifecycle_events(views, t, candidates, run, events);
  if (run.faults.has_value())
    apply_fault_events(t, candidates, views, run, events);
  if (!run.state.reconfiguring)
    consult_and_apply(views, t, candidates, graceful_off, run, events,
                      run.metrics());
}

/// Closes the span [t, t + span): integrates the failure set, spares,
/// preemptions and tenant set (all fixed inside a span), then steps the
/// machine transitions, whose completions land at the span's last second
/// (the fast path bounds spans by the next one), and settles there.
void end_span(TimePoint t, TimePoint span, Run& run) {
  if (run.faults.has_value()) account_fault_span(*run.faults, span);
  if (run.slo_enabled) account_spare_span(run, span);
  if (run.priority_enabled) account_preemption_span(run, span);
  account_lifecycle_span(run, span);
  if (run.state.reconfiguring) run.result.reconfiguring_seconds += span;

  const TimePoint last = t + span - 1;
  EventLog* events = run.events();
  const int completed = run.cluster.step(static_cast<Seconds>(span));
  if (events && completed > 0)
    events->record(last, EventKind::kBootComplete,
                   std::to_string(completed) + " transitions");
  if (run.state.reconfiguring)
    settle_reconfiguration(last, run.cluster, run.state, events);

  run.result.peak_machines =
      std::max(run.result.peak_machines, run.cluster.machine_count());
}

/// Records second `s` of an observed run, given its offered `load` and
/// the On `capacity`: its overload entry or exit, its QoS violation and,
/// every sample_every seconds, its timeline sample. Writes nothing the
/// simulation reads.
void observe_second(Run& run, TimePoint s, ReqRate load, ReqRate capacity) {
  EventLog& events = run.result.events;
  ReqRate cap_eff = capacity;
  if (run.degrade.enabled()) {
    const DegradedCap dc = degraded_capacity(run.degrade, load, capacity);
    cap_eff = dc.effective;
    if (dc.overloaded != run.overloaded_now)
      events.record(s,
                    dc.overloaded ? EventKind::kOverloadEnter
                                  : EventKind::kOverloadExit,
                    dc.overloaded
                        ? std::to_string(load - capacity) + " req/s over"
                        : "");
    run.overloaded_now = dc.overloaded;
  }
  if (load > cap_eff)
    events.record(s, EventKind::kQosViolation, std::to_string(load - cap_eff));

  TraceRecording& timeline = run.result.timeline;
  if (s % timeline.sample_every != 0) return;
  const ClusterSnapshot snap = run.cluster.snapshot();
  const std::size_t kinds = timeline.arch_names.size();
  TimelineSample sample;
  sample.time = s;
  sample.on.reserve(kinds);
  for (std::size_t a = 0; a < kinds; ++a) {
    sample.on.push_back(snap.on.count(a));
    sample.booting.push_back(snap.booting.count(a));
    sample.shutting_down.push_back(snap.shutting_down.count(a));
    sample.failed.push_back(snap.failed.count(a));
  }
  sample.offered = load;
  sample.served = load < cap_eff ? load : cap_eff;
  if (run.slo_enabled)
    for (const Combination& c : run.spares)
      sample.spare_machines += static_cast<int>(c.total_machines());
  timeline.samples.push_back(std::move(sample));
}

std::size_t longest_trace(const std::vector<WorkloadView>& views) {
  std::size_t n = 0;
  for (const WorkloadView& v : views) n = std::max(n, v.trace->size());
  return n;
}

/// Advances [begin, end) with a fixed fleet (no transition completes and no
/// decision is applied inside) through the span walks (sim/span_walk.hpp):
/// a single workload walks its own trace runs into the cluster-wide
/// accumulators, several walk the intersection of their runs and attribute
/// each sub-run to the active apps.
///
/// Returns the time actually advanced to (== `end` normally). With the
/// degrade model enabled, an overload entry/exit inside the span stops
/// the walk at the crossing — which lands exactly on an RLE run boundary
/// — and the caller ends the span there (SpanEndCause::kOverloadCrossing),
/// so the per-span accounting downstream integrates a constant overload
/// state, exactly like the per-second reference.
TimePoint advance_span(const std::vector<WorkloadView>& views, Run& run,
                       const std::vector<CompiledTrace>& compiled,
                       std::vector<CompiledTrace::Cursor>& cursors,
                       TimePoint begin, TimePoint end, SimMetrics* metrics) {
  // Fixed fleet for the whole span: capacity and transition power are
  // constant, and the compute power is the compiled fleet curve of the
  // per-run load (within a few ulp of Cluster::compute_power — inside
  // the 1e-9 equivalence contract).
  run.cluster.compile_power_curve(run.power_curve);
  const SpanFleet fleet{run.cluster.on_capacity(),
                        run.cluster.transition_power(), &run.power_curve,
                        run.degrade};
  SpanWork work;
  TimePoint reached;
  // Single-workload runs skip per-run attribution entirely: with one app
  // the capacity, compute and transition shares are all exactly 1.0, so
  // the per-app accumulators would replay the cluster-wide streams
  // bit-for-bit — run_event_driven copies them at the end instead.
  if (views.size() == 1 && !run.lifecycle_enabled) {
    reached = walk_one_span(
        compiled[0], cursors[0], begin, end, fleet, run.qos, run.meter, work,
        [&](ReqRate load, ReqRate lost_rate, TimePoint len) {
          run.loads[0] = load;
          account_overload(views, run, load, lost_rate, len);
        });
  } else {
    // One lane per active app; an inactive app offers 0.0 to the overload
    // accounting and nothing to the merge (see span_walk.hpp).
    run.lanes.clear();
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (!run.active[i]) {
        run.loads[i] = 0.0;
        continue;
      }
      run.lanes.emplace_back(i, compiled[i], cursors[i], begin,
                             run.app_qos[i], run.app_meters[i],
                             fleet.transition * run.transition_shares[i]);
    }
    reached = walk_merged_span(
        run.lanes, views.size(), begin, end, fleet, run.qos, run.meter, work,
        [&](std::span<const MergeLane> lanes, ReqRate total,
            ReqRate lost_rate, TimePoint len) {
          for (const MergeLane& l : lanes) run.loads[l.app] = l.load;
          account_overload(views, run, total, lost_rate, len);
        });
    if (metrics) {
      metrics->merge_frontier_advances += work.frontier_advances;
      if (views.size() > metrics->merge_apps_max)
        metrics->merge_apps_max = views.size();
    }
  }
  if (metrics) {
    metrics->walk_sub_runs += work.sub_runs;
    metrics->walk_power_fallbacks += work.power_fallbacks;
  }
  return reached;
}

}  // namespace

MultiSimulationResult Simulator::run_per_second(
    const std::vector<WorkloadView>& views) const {
  Run run = make_run(candidates_, options_, plan_, views);
  SimMetrics* metrics = run.metrics();
  const std::size_t n = longest_trace(views);
  for (std::size_t t = 0; t < n; ++t) {
    const auto now = static_cast<TimePoint>(t);
    begin_span(views, now, candidates_, options_.graceful_off, run);
    if (metrics) ++metrics->ticks;

    const ReqRate load = gather_loads(views, now, run);
    const ClusterPower power = run.cluster.step_power(load);
    const ReqRate capacity_now = run.cluster.on_capacity();
    // Degraded-mode serving: QoS (cluster-wide and per-app) is scored
    // against the effective capacity; the power draw is unchanged (the
    // fleet curve already saturates at rated capacity).
    ReqRate cap_eff = capacity_now;
    if (run.degrade.enabled()) {
      const DegradedCap dc =
          degraded_capacity(run.degrade, load, capacity_now);
      cap_eff = dc.effective;
      if (dc.overloaded) account_overload(views, run, load, dc.lost_rate, 1);
    }
    run.qos.record(load, cap_eff);
    if (run.result.timeline.enabled)
      observe_second(run, now, load, capacity_now);
    run.meter.add_compute_sample(power.compute);
    if (power.transition > 0.0)
      run.meter.add_reconfiguration_energy(power.transition * 1.0);
    run.meter.tick();
    attribute_second(views, run, load, power, cap_eff);
    end_span(now, 1, run);
  }
  MultiSimulationResult out;
  finalize_run(run, views, out);
  return out;
}

MultiSimulationResult Simulator::run_event_driven(
    const std::vector<WorkloadView>& views) const {
  Run run = make_run(candidates_, options_, plan_, views);
  // Self-metrics ride a nullable pointer: with metrics off the span loop
  // pays one branch per span and the classification work below is
  // skipped entirely.
  SimMetrics* metrics = run.metrics();

  // Run-length view of every trace (O(1) each: the trace's own arrays).
  std::vector<CompiledTrace> compiled;
  compiled.reserve(views.size());
  for (const WorkloadView& v : views) compiled.emplace_back(*v.trace);
  std::vector<CompiledTrace::Cursor> cursors(views.size());

  const auto n = static_cast<TimePoint>(longest_trace(views));
  TimePoint t = 0;
  while (t < n) {
    // 0. Churn and fault events due now, then the consult (skipping apps
    //    whose cached bound is still in the future) — exactly as in the
    //    reference loop. Events can only be due at span starts: step 1
    //    bounds every span by the timelines' next events, so both the
    //    active set and the failure set are constant inside one.
    begin_span(views, t, candidates_, options_.graceful_off, run);

    // 1. Find the next event boundary. While idle, the intersection of the
    //    schedulers' stability bounds is how long the merged decision (and
    //    thus the fleet) stays as it is now. Only the apps just consulted
    //    get a fresh bound, and only once the merge started no
    //    reconfiguration, so no stability walk covers seconds inside one;
    //    reusing an unexpired bound only ends spans early. While
    //    reconfiguring, the next transition completion bounds the span (at
    //    the end of second t + ceil(remaining) - 1), or one drain second
    //    when none is left. Trace value changes do NOT bound the span: its
    //    varying load is integrated run-by-run below.
    TimePoint span_end;
    SpanEndCause cause;
    if (!run.state.reconfiguring) {
      // Only active tenants constrain the bound (inactive schedulers are
      // never consulted); with nobody active the span runs to the next
      // churn event or the trace end.
      span_end = std::numeric_limits<TimePoint>::max();
      for (std::size_t i = 0; i < views.size(); ++i) {
        if (!run.active[i]) continue;
        if (run.consult_until[i] <= t)
          run.consult_until[i] =
              views[i].scheduler->decision_stable_until(t, *views[i].trace);
        span_end = std::min(span_end, run.consult_until[i]);
      }
      if (span_end == std::numeric_limits<TimePoint>::max()) span_end = n;
      cause = SpanEndCause::kSchedulerStable;
    } else {
      const Seconds remaining = run.cluster.next_transition_remaining();
      span_end =
          remaining >= 0.0
              ? t + static_cast<TimePoint>(std::ceil(remaining - 1e-9))
              : t + 1;
      cause = SpanEndCause::kTransitionComplete;
    }
    // Each further bound applies with a strict compare, so `cause` names
    // the binding one and ties keep the earlier-applied cause.
    const auto bound = [&span_end, &cause](TimePoint at, SpanEndCause why) {
      if (at < span_end) {
        span_end = at;
        cause = why;
      }
    };
    // The next scheduled failure strike or repair completion bounds the
    // span exactly like a machine transition: inside a span the failure
    // set (and hence capacity, power, and the availability integrand) is
    // constant. The timeline's events are strictly in the future of the
    // drain in step 0, so this never shrinks the span below t + 1.
    if (run.faults.has_value()) {
      const TimePoint fault_at = run.faults->timeline.next_event();
      bound(fault_at, run.faults->timeline.next_repair() == fault_at
                          ? SpanEndCause::kCrewCompletion
                          : SpanEndCause::kFault);
    }
    // The next tenant arrival or departure bounds the span exactly like a
    // fault strike: the active set (and with it the gather, attribution
    // and coordinator partition) is constant inside one. Step 0 consumed
    // every event due at or before t, so this is strictly in the future.
    if (run.next_lifecycle < run.lifecycle_events.size())
      bound(run.lifecycle_events[run.next_lifecycle].time,
            SpanEndCause::kChurn);
    // Clamping spans at day boundaries costs at most one extra span per
    // simulated day and lets advance_span integrate every sub-run of a
    // span into one day bucket of the cluster meter
    // (EnergyMeter::add_integrated_span) instead of splitting per run.
    bound((t / kSecondsPerDay + 1) * kSecondsPerDay,
          SpanEndCause::kDayBoundary);
    // A spare flag flipping is a decision change: the reference loop
    // re-evaluates the SLO flags every idle second, so an idle span must
    // end at the first second a trailing window crosses an app's error
    // budget (exact — the downtime integrand is fixed inside the span).
    if (run.slo_enabled && run.faults.has_value() &&
        !run.state.reconfiguring)
      bound(next_slo_crossing(run, t, span_end), SpanEndCause::kSloCrossing);
    if (span_end >= n) {
      // A span reaching n ran out of trace whichever bound got it there —
      // classify it as trace-end so every run counts exactly one.
      span_end = n;
      cause = SpanEndCause::kTraceEnd;
    }
    if (span_end < t + 1) span_end = t + 1;

    // 2. Advance the span in closed form: the fleet is constant, so each
    //    constant-load sub-run has constant power and QoS margins. An
    //    overload entry/exit (degrade model) stops the walk and ends the
    //    span there, so end_span integrates a constant overload state.
    const TimePoint advanced =
        advance_span(views, run, compiled, cursors, t, span_end, metrics);
    bound(advanced, SpanEndCause::kOverloadCrossing);
    const TimePoint span = span_end - t;
    if (metrics) {
      // A scheduler-stable bound that lands exactly on a trace run
      // boundary means the load crossed a decision threshold — the
      // "trace change" flavour of a decision bound. Probed with cursor
      // copies so the real walk above is untouched (run_at re-seats a
      // cursor that has already walked past the probe point).
      if (cause == SpanEndCause::kSchedulerStable) {
        for (std::size_t i = 0; i < views.size(); ++i) {
          CompiledTrace::Cursor probe = cursors[i];
          if (compiled[i].run_at(probe, span_end - 1).end == span_end) {
            cause = SpanEndCause::kTraceChange;
            break;
          }
        }
      }
      ++metrics->spans;
      ++metrics->span_end_causes[static_cast<std::size_t>(cause)];
      metrics->span_seconds.observe(static_cast<double>(span));
    }
    // 3. An observed run replays each second of the span for its events
    //    and timeline samples; the fleet is fixed inside the span. A
    //    second whose load stays within capacity, with no overload open,
    //    records nothing but its sample (every sample_every seconds). The
    //    apps' span maxima, summed in app order, bound every second's
    //    summed load (rounding is monotone), so when that bound fits,
    //    only the sample seconds are observed.
    if (run.result.timeline.enabled) {
      const ReqRate capacity = run.cluster.on_capacity();
      ReqRate peak = 0.0;
      for (std::size_t i = 0; i < views.size(); ++i)
        if (run.active[i]) peak += views[i].trace->max_over(t, span_end);
      const TimePoint every = run.result.timeline.sample_every;
      const bool quiet = !run.overloaded_now && peak <= capacity;
      const TimePoint step = quiet ? every : 1;
      for (TimePoint s = quiet ? (t + every - 1) / every * every : t;
           s < span_end; s += step)
        observe_second(run, s, gather_loads(views, s, run), capacity);
    }

    // 4. Per-span accounting, then transitions complete exactly at the
    //    end of the span.
    end_span(t, span, run);
    t = span_end;
  }
  // Single-workload runs: the per-app streams are exactly the cluster-wide
  // streams (every share is 1.0), so advance_span skipped them — install
  // the aggregates as the app slice. (A lifecycle single-app run went
  // through the k-way merge and attributed normally.)
  if (views.size() == 1 && !run.lifecycle_enabled) {
    run.app_qos[0] = run.qos;
    run.app_meters[0] = run.meter;
  }
  MultiSimulationResult out;
  finalize_run(run, views, out);
  return out;
}

}  // namespace bml
