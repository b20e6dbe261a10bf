// The component registry: name -> factory for every catalog, trace
// generator, scheduler, and predictor the library ships, so a ScenarioSpec
// is fully data-driven — composing a new experiment is editing text, not
// writing a C++ main.
//
// Registered names and their parameters (defaults in parentheses):
//
//   catalogs
//     real           the five Table I machines
//     illustrative   the A/B/C/D architectures of Fig. 1
//     file           file=<path to catalog CSV>
//
//   traces — every generator takes seed (= spec seed) where noise applies
//     constant       rate(100), duration(3600)
//     step           segments, as rate:duration;rate:duration;...
//     diurnal        days(1), peak(1000), trough_fraction(0.25),
//                    peak_hour(18), noise(0.02)
//     flash_crowd    base(50), burst_peak(2000), duration(3600),
//                    burst_start(1200), ramp(120), hold(600)
//     worldcup_like  days(87), peak(5200) and every other WorldCupOptions
//                    knob under its field name; match_hours as a
//                    ;-separated list
//     file           file=<path>, origin(0) — CSV or WC98 via load_any
//
//   predictors — any of them takes error_sigma(0), error_bias(0),
//   error_seed(= spec seed); a non-zero sigma/bias wraps the predictor in
//   ErrorInjectingPredictor
//     oracle-max     the paper's emulated look-ahead window
//     last-value
//     moving-max     window(378)
//     ewma           alpha(0.3), headroom(1.2)
//     linear-trend   window(600)
//     seasonal       period(86400), headroom(1.1)
//
//   schedulers
//     bml            window(0 = 2x longest On); uses the spec predictor
//                    and qos class
//     cost-aware     window(0), payback_window(0); uses the spec predictor
//     reactive       headroom(1); ignores the spec predictor
//     hysteresis     hold(300), window(0) — BML wrapped in scale-down
//                    damping; uses the spec predictor and qos class
//     static-max     UpperBound Global: constant homogeneous Big fleet
//     per-day        UpperBound PerDay: Big fleet resized at midnight
//   A sweep replays grid points that differ only in the predictor of a
//   scheduler that ignores it (reactive, static-max, per-day) once, and
//   copies the result to the others (scenario/sweep.hpp).
//
// Multi-tenant specs (`[app]` sections, scenario/scenario_spec.hpp) build
// one trace + predictor + scheduler stack per application through these
// same factories; the sweep runner turns each section into a Workload
// (app/workload.hpp) over the shared design.
//
// Fault keys (sim/cluster.hpp FaultModel; all sweepable):
//   faults.boot_time_jitter(0)   boot-duration noise sigma, <= 10
//   faults.boot_failure_prob(0)  probability a boot fails and retries
//   faults.mtbf(0)               mean seconds between runtime failure
//                                strikes per fault domain per arch
//                                (0 = no runtime faults)
//   faults.mttr(0)               mean repair seconds (min 1 s)
//   faults.groups(0)             racks per fault domain for correlated
//                                strikes (with faults.group_mtbf > 0 a
//                                rack strike fells its whole stripe of
//                                On machines at once)
//   faults.group_mtbf(0)         mean seconds between rack strikes
//   faults.group_mttr(0)         mean rack-strike repair seconds
//   faults.crews(0)              concurrent repair crews (0 = unlimited;
//                                excess repairs queue FIFO)
//   faults.seed(= spec seed)     fault-stream seed override
//   app<i>.fault_domain("")      groups [app] sections into shared fault
//                                domains; empty = the app's own private
//                                domain (per-app failures out of the box)
// SLO keys (availability feedback; all sweepable):
//   slo.window(86400)            trailing availability window (whole s)
//   slo.availability(0)          per-app target in [0, 1] (0 = off);
//                                top-level for classic single-app specs,
//                                app<i>.slo.availability per section
//   slo.spare(0.25)              spare-capacity fraction provisioned
//                                while the target is violated (> 0)
// Degraded-mode serving keys (sim/cluster.hpp DegradeModel; sweepable):
//   degrade.overload_factor(0)   spill-over the On fleet absorbs above its
//                                rated capacity, as a fraction of that
//                                capacity (0 = spill-over is dropped, the
//                                classic behaviour)
//   degrade.penalty(0.5)         contention loss per absorbed req/s, in
//                                [0, 1]: each spill-over req/s serves only
//                                (1 - penalty) effectively
// Priority keys (app/workload.hpp; sweepable per section):
//   priority(0)                  integer class >= 0, higher = more
//                                important; top-level for classic
//                                single-app specs (rejected with
//                                coordinator = sum, where it cannot rank
//                                anything), app<i>.priority per section.
//                                With at least two differing classes the
//                                partitioned coordinator trims
//                                lowest-priority apps first, SLO spares go
//                                high-priority-first, and strikes preempt
//                                low-priority capacity to backfill
//                                higher classes (sim/simulator.hpp)
// Runtime faults make sweeps report machine_failures / availability /
// lost-capacity columns (cluster-wide and per app), correlated strikes
// add group_strikes, and SLO targets add spare_seconds / spare_energy_j;
// a configured degrade model adds overload_seconds / penalty_lost_req_s
// and differing priorities add preemptions / preempted_seconds (see
// scenario/sweep.hpp).
// Observability keys (obs/metrics.hpp, obs/trace_export.hpp; sweepable):
//   obs.metrics(false)           collect simulator self-metrics (span-end
//                                causes, span lengths, scheduler consults;
//                                results are bit-identical on or off)
//   obs.trace(false)             record the event log and the Chrome
//                                trace-event timeline (results are
//                                bit-identical on or off)
//   obs.sample(60)               timeline counter-sample period (s, >= 1)
// None of these alter the CSV schema or any CSV value.
//
// Build sharing across sweeps: every component above is rebuilt per
// scenario *unless* none of the sweep axes name a build input — `catalog`
// / `catalog.*`, `design.*`, `seed`, or any trace field (`trace`,
// `trace.*`, `app<i>.trace*`). In that case the sweep runner builds the
// catalog, the traces, their compiled RLE forms (sim/compiled_trace.hpp),
// the BmlDesign — including the CombinationTable and its
// DecisionThresholds (core/decision_thresholds.hpp, the sorted load
// cut-points behind decision-granular fast-path spans) — and the
// DispatchPlan exactly once, sharing the immutable results across all
// grid points and worker threads (asserted by the CombinationTable
// build-count probe in tests/test_scenario.cpp). Schedulers and
// predictors are stateful and always constructed per scenario. The
// `faults.*` and `slo.*` keys are runtime-only (seed-bearing, but
// consumed by the simulator, never by the build), so fault and SLO axes
// keep the shared build; `obs.*`, `degrade.*` and `priority` keys
// likewise.
//
// Unknown component names and unknown or malformed parameters throw
// std::runtime_error naming the component, the offending key, and the
// accepted names.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/qos.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace bml {

/// One registry entry for `bmlsim list` style reporting.
struct ComponentInfo {
  std::string name;
  std::string summary;
};

[[nodiscard]] std::vector<ComponentInfo> catalog_components();
[[nodiscard]] std::vector<ComponentInfo> trace_components();
[[nodiscard]] std::vector<ComponentInfo> predictor_components();
[[nodiscard]] std::vector<ComponentInfo> scheduler_components();

/// Builds the named catalog. Throws std::runtime_error on unknown names or
/// parameters.
[[nodiscard]] Catalog make_catalog(
    const std::string& name,
    const std::map<std::string, std::string>& params);

/// Builds the named trace; generators with randomness default their seed
/// to `seed`. Every generator additionally accepts the composable
/// post-transforms `seasonal.diurnal` / `seasonal.weekly` (multiplicative
/// cosine envelopes, amplitude in [0, 1], optional `seasonal.peak_hour`)
/// and `spikes.interarrival` (heavy-tailed Pareto spike overlay with
/// `spikes.magnitude` / `spikes.alpha` / `spikes.duration` /
/// `spikes.seed`, the seed defaulting to `seed`).
[[nodiscard]] LoadTrace make_trace(
    const std::string& name, const std::map<std::string, std::string>& params,
    std::uint64_t seed);

/// Builds the named predictor (possibly error-wrapped, see file comment).
[[nodiscard]] std::shared_ptr<Predictor> make_predictor(
    const std::string& name, const std::map<std::string, std::string>& params,
    std::uint64_t seed);

/// Builds the named scheduler over `design`; `predictor` feeds the
/// prediction-driven ones and is ignored by the others (see
/// scheduler_reads_predictor).
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, const std::map<std::string, std::string>& params,
    std::shared_ptr<const BmlDesign> design,
    std::shared_ptr<Predictor> predictor, QosClass qos);

/// False for the schedulers make_scheduler builds without their predictor
/// (reactive, static-max, per-day): their runs do not depend on the
/// predictor keys. True for every other name, unknown ones included.
[[nodiscard]] bool scheduler_reads_predictor(const std::string& name);

}  // namespace bml
