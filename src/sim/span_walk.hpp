// Span walks: the event-driven simulator's innermost loops.
//
// Inside a span the fleet is fixed — no transition completes and no
// decision lands — so the On capacity, the transition power and the fleet's
// power curve are constant, and the span's varying load is integrated run
// by run: one iteration per constant-load sub-run, not one per second.
// Two kernels do it:
//
//   walk_one_span     one workload: the sub-runs are the trace's own runs;
//   walk_merged_span  several: the sub-runs are the intersection of the
//                     active apps' runs, a k-way merge over a frontier
//                     that holds each app's current run (MergeLane).
//
// Each seats its cursors once per span (CompiledTrace::run_at) and then
// steps the run index (a run starts where the previous one ends, and its
// value is the sample there), so a walk over n runs makes no search and no
// re-seating check. The cluster's sums live in locals and fold into its
// tracker and meter once per span (per chunk for the merge); each app's
// sums stay open in its lane for the span.
//
// Per run, each kernel does only what varies per run; what is fixed for
// the span is decided once per span:
//
//   * The power lookup. FleetPowerCurve::lookup<kDepth> unrolls the piece
//     search for one search depth (0-6 steps); each kernel is instantiated
//     per depth, and the walk picks the instantiation once per span
//     (FleetPowerCurve::with_depth), not per lookup.
//   * The run steps. walk_one_span's `end` lies within its trace, so it
//     steps with CompiledTrace::next_run_inside (no trace-end or zero-tail
//     check). A merge lane's trace may end inside the span (the app's
//     zero tail), so the merge steps with next_run.
//   * The lanes' seconds. Each lane's QoS tracker counts the span's
//     seconds once, when it closes (QosTracker::OpenSpan::close).
//   * The lanes' day windows. When the span fits every lane meter's open
//     day (MergedWalk::walk), the lanes add each sub-run without the
//     day-window check and count, and take the span's seconds off the day
//     at once (EnergyMeter::OpenSpan::take_day). Any other span — a lane
//     meter that lags the cluster's days because its app arrived mid-day,
//     or one opened on a day boundary, where no bucket is open — keeps the
//     per-sub-run check, which sends a sub-run past the lane's day
//     through add_span.
//
// None of this reorders an accumulator: integer counts are exact in any
// grouping, and every double below keeps the order it had under the loop
// search, when each lane counted its own seconds and checked its own day
// per sub-run.
//
// Operation order. Both kernels perform, for each sub-run in time order,
// the operations of the per-second reference loop's second
// (run_per_second and attribute_second in sim/simulator.cpp) with the
// second scaled to the sub-run's `len` seconds, so every double keeps its
// bits. A change here must keep, per accumulator, this order:
//
//   * Cluster QoS: QosSpanTotals::add(load, capacity, len) — seconds,
//     then offered += load * len; on a shortfall, the violation seconds,
//     unserved += (load - capacity) * len and the worst shortfall.
//   * Cluster compute energy: compute += power(load) * len, then one
//     QosTracker::record_totals and EnergyMeter::add_integrated_span fold
//     per span (walk_one_span) or per kFlushChunk = 512 sub-runs and at
//     the end (walk_merged_span). The chunking fixes the merged sums'
//     association and with it the pinned bytes.
//   * Merged load: total = +0.0 + the active apps' loads in app order.
//     An inactive app would add +0.0 to a non-negative sum, which is
//     exact, so it has no lane.
//   * Per-app shares: share = load / total; with no load offered, the
//     equal splits 1/k of the capacity (over all k apps) and 1/active of
//     the compute power. Each lane then takes exactly
//     QosTracker::record_span(load, capacity * share, len) and
//     EnergyMeter::add_span(compute * share, transition_i, len), held open
//     across the span (QosTracker::OpenSpan, EnergyMeter::OpenSpan). While
//     no lane draws transition power, every transition_i add would be +0.0
//     to a non-negative sum, so the lanes skip them.
//   * Degraded-mode serving: the first sub-run fixes the span's overload
//     state; the first later sub-run in the other state ends the walk at
//     its start and integrates nothing of it. Overloaded sub-runs are
//     reported to the caller's overload accounting, in time order, before
//     their sums are added.
//
// The work ledger counts the sub-runs a walk integrates
// (SimMetrics::walk_sub_runs: from the cursor's run index for one workload
// and once per flushed chunk for the merge, with no per-run increment) and
// the lookups the curve's general loop answered
// (SimMetrics::walk_power_fallbacks, counted in a register in that branch
// only).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/dispatch_plan.hpp"
#include "power/energy_meter.hpp"
#include "sim/cluster.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/qos.hpp"
#include "util/units.hpp"

namespace bml {

/// What a span is walked against: the fixed fleet and its serving model.
struct SpanFleet {
  /// Rated On capacity (req/s).
  ReqRate capacity = 0.0;
  /// Boot/shutdown power of the machines in transition (W).
  Watts transition = 0.0;
  /// The On fleet's compiled power curve.
  const FleetPowerCurve* power = nullptr;
  /// Degraded-mode serving (off by default).
  DegradeModel degrade;
};

/// The work a walk did: constant-load sub-runs integrated, runs the
/// frontier consumed (merged walks, seating included), and the sub-runs'
/// power lookups the curve's general loop answered.
struct SpanWork {
  std::uint64_t sub_runs = 0;
  std::uint64_t frontier_advances = 0;
  std::uint64_t power_fallbacks = 0;
};

namespace span_walk_detail {
struct MergedWalk;
}  // namespace span_walk_detail

/// One active app of a merged walk: its frontier entry (the current run's
/// load and end, with the cursor that walks its trace) and its QoS tracker
/// and energy meter held open across the span. Constructing a lane seats
/// its cursor at the span's first second; walk_merged_span writes the
/// cursor back and closes the accumulators.
struct MergeLane {
  /// `transition` is the app's attributed share of the fleet's transition
  /// power. The tracker, meter and cursor must outlive the walk and must
  /// not be touched until it returns.
  MergeLane(std::size_t app_index, const CompiledTrace& trace,
            CompiledTrace::Cursor& cursor, TimePoint begin, QosTracker& qos,
            EnergyMeter& meter, Watts transition)
      : app(app_index),
        trace_(trace),
        walk_(cursor),
        cursor_(&cursor),
        qos_(qos),
        energy_(meter, transition) {
    const CompiledTrace::Run r = trace_.run_at(walk_, begin);
    seated_ = walk_.seg;
    load = r.value;
    end = r.end;
  }

  /// The app's index among the walk's workloads.
  std::size_t app;
  /// The current run: its load and the first second past it.
  ReqRate load = 0.0;
  TimePoint end = 0;

 private:
  friend struct span_walk_detail::MergedWalk;

  // The view is held by value, so a step reads no pointer first.
  CompiledTrace trace_;
  CompiledTrace::Cursor walk_;
  std::size_t seated_ = 0;
  CompiledTrace::Cursor* cursor_;
  QosTracker::OpenSpan qos_;
  EnergyMeter::OpenSpan energy_;
};

/// Sub-runs whose cluster sums fold together in walk_merged_span.
inline constexpr std::size_t kFlushChunk = 512;

namespace span_walk_detail {

// Out of line, with the view, the cursor and the sums copied into locals:
// inlined into the simulator's span loop, they would share the registers
// with the whole loop and live on the stack. `end` must not pass the
// trace's end, so the run steps need no trace-end check.
template <bool kDegrade, unsigned kDepth, class OnOverload>
[[gnu::noinline]] TimePoint walk_one(const CompiledTrace view,
                                     CompiledTrace::Cursor& cursor,
                                     CompiledTrace::Run r, TimePoint begin,
                                     TimePoint end, const SpanFleet& fleet,
                                     QosSpanTotals& totals_out,
                                     Joules& compute_out,
                                     std::uint64_t& fallbacks_out,
                                     OnOverload& on_overload) {
  const FleetPowerCurve& curve = *fleet.power;
  const ReqRate capacity = fleet.capacity;
  CompiledTrace::Cursor walk = cursor;
  QosSpanTotals totals;
  Joules compute = 0.0;
  std::uint64_t fallbacks = 0;
  bool span_over = false;
  TimePoint cur = begin;
  for (;;) {
    const TimePoint sub_end = r.end < end ? r.end : end;
    const TimePoint len = sub_end - cur;
    ReqRate cap_eff = capacity;
    if constexpr (kDegrade) {
      const DegradedCap dc =
          degraded_capacity(fleet.degrade, r.value, capacity);
      if (cur == begin) {
        span_over = dc.overloaded;
      } else if (dc.overloaded != span_over) {
        end = cur;
        break;
      }
      cap_eff = dc.effective;
      if (dc.overloaded) on_overload(r.value, dc.lost_rate, len);
    }
    totals.add(r.value, cap_eff, len);
    compute += curve.lookup<kDepth>(r.value, fallbacks) *
               static_cast<double>(len);
    if (sub_end == end) break;
    cur = sub_end;
    r = view.next_run_inside(walk, cur);
  }
  cursor = walk;
  totals_out = totals;
  compute_out = compute;
  fallbacks_out = fallbacks;
  return end;
}

/// The k-way merge, befriended by MergeLane.
struct MergedWalk {
  template <class OnOverload>
  static TimePoint walk(std::span<MergeLane> lanes, std::size_t apps,
                        TimePoint begin, TimePoint end,
                        const SpanFleet& fleet, QosTracker& qos,
                        EnergyMeter& meter, SpanWork& work,
                        OnOverload& on_overload) {
    const TimePoint span = end - begin;
    const bool in_day =
        std::all_of(lanes.begin(), lanes.end(), [span](const MergeLane& l) {
          return l.energy_.fits(span);
        });
    return fleet.power->with_depth([&]<unsigned kDepth>() {
      return in_day ? kernel<kDepth, true>(lanes, apps, begin, end, fleet,
                                           qos, meter, work, on_overload)
                    : kernel<kDepth, false>(lanes, apps, begin, end, fleet,
                                            qos, meter, work, on_overload);
    });
  }

  // kInDay: the span fits every lane meter's open day, so the lanes skip
  // the per-sub-run day check and take its seconds at once.
  template <unsigned kDepth, bool kInDay, class OnOverload>
  [[gnu::noinline]] static TimePoint kernel(
      std::span<MergeLane> lanes, std::size_t apps, TimePoint begin,
      TimePoint end, const SpanFleet& fleet, QosTracker& qos,
      EnergyMeter& meter, SpanWork& work, OnOverload& on_overload) {
    const FleetPowerCurve& curve = *fleet.power;
    const ReqRate capacity = fleet.capacity;
    const bool degrade = fleet.degrade.enabled();
    const double equal_alloc = 1.0 / static_cast<double>(apps);
    const double equal_compute =
        lanes.empty() ? 0.0 : 1.0 / static_cast<double>(lanes.size());
    // The frontier of the first sub-run; the lane pass forms each next one.
    ReqRate total = 0.0;
    TimePoint sub_end = end;
    for (const MergeLane& l : lanes) {
      total += l.load;
      if (l.end < sub_end) sub_end = l.end;
    }
    // Attributes one sub-run of `len` seconds to every lane, at capacity
    // share `alloc(l)` and compute share `share(l)`, then steps the lanes
    // whose run ends at `next` (none at the span's end) and forms the next
    // frontier.
    const auto lane_pass = [&]<bool kReconf>(auto alloc, auto share,
                                             ReqRate cap_eff, Watts compute,
                                             TimePoint len, TimePoint next) {
      const TimePoint step_at = next < end ? next : -1;
      ReqRate next_total = 0.0;
      TimePoint next_end = end;
      for (MergeLane& l : lanes) {
        l.qos_.record(l.load, cap_eff * alloc(l), len);
        if constexpr (kReconf) {
          l.energy_.add<kInDay>(compute * share(l), len);
        } else {
          l.energy_.add_compute<kInDay>(compute * share(l), len);
        }
        if (l.end == step_at) {
          const CompiledTrace::Run r = l.trace_.next_run(l.walk_, step_at);
          l.load = r.value;
          l.end = r.end;
        }
        next_total += l.load;
        if (l.end < next_end) next_end = l.end;
      }
      total = next_total;
      sub_end = next_end;
    };
    const auto attribute = [&]<bool kReconf>(ReqRate cap_eff, Watts compute,
                                             TimePoint len, TimePoint next) {
      if (total > 0.0) {
        const ReqRate t = total;
        const auto proportional = [t](const MergeLane& l) {
          return l.load / t;
        };
        lane_pass.template operator()<kReconf>(proportional, proportional,
                                               cap_eff, compute, len, next);
      } else {
        lane_pass.template operator()<kReconf>(
            [equal_alloc](const MergeLane&) { return equal_alloc; },
            [equal_compute](const MergeLane&) { return equal_compute; },
            cap_eff, compute, len, next);
      }
    };
    const bool reconf =
        std::any_of(lanes.begin(), lanes.end(), [](const MergeLane& l) {
          return l.energy_.transition() != 0.0;
        });
    std::uint64_t fallbacks = 0;
    bool span_over = false;
    bool stopped = false;
    TimePoint cur = begin;
    while (cur < end && !stopped) {
      QosSpanTotals totals;
      Joules compute_e = 0.0;
      std::size_t runs = 0;
      for (; runs < kFlushChunk && cur < end; ++runs) {
        const TimePoint len = sub_end - cur;
        ReqRate cap_eff = capacity;
        if (degrade) {
          const DegradedCap dc =
              degraded_capacity(fleet.degrade, total, capacity);
          if (cur == begin) {
            span_over = dc.overloaded;
          } else if (dc.overloaded != span_over) {
            end = cur;
            stopped = true;
            break;
          }
          cap_eff = dc.effective;
          if (dc.overloaded)
            on_overload(std::span<const MergeLane>(lanes), total,
                        dc.lost_rate, len);
        }
        const Watts compute = curve.lookup<kDepth>(total, fallbacks);
        totals.add(total, cap_eff, len);
        compute_e += compute * static_cast<double>(len);
        const TimePoint next = sub_end;
        if (reconf) {
          attribute.template operator()<true>(cap_eff, compute, len, next);
        } else {
          attribute.template operator()<false>(cap_eff, compute, len, next);
        }
        cur = next;
      }
      if (runs == 0) break;
      work.sub_runs += runs;
      qos.record_totals(totals);
      meter.add_integrated_span(compute_e, fleet.transition,
                                static_cast<std::size_t>(totals.seconds));
    }
    work.power_fallbacks += fallbacks;
    for (MergeLane& l : lanes) {
      work.frontier_advances += l.walk_.seg - l.seated_ + 1;
      *l.cursor_ = l.walk_;
      l.qos_.close(end - begin);
      if constexpr (kInDay) l.energy_.take_day(end - begin);
      l.energy_.close();
    }
    return end;
  }
};

}  // namespace span_walk_detail

/// Integrates [begin, end) of one workload against `fleet` into the
/// cluster's `qos` and `meter` (the caller's single app takes the same
/// streams). `end` must not pass the trace's end, and [begin, end) must
/// lie within the meter's current day; the meter steps 1 s, so a run's
/// power times its seconds is its energy. `on_overload(load, lost_rate,
/// len)` accrues each overloaded sub-run. Returns the second the walk
/// reached: `end`, or an overload crossing (see the file comment).
template <class OnOverload>
TimePoint walk_one_span(const CompiledTrace& trace,
                        CompiledTrace::Cursor& cursor, TimePoint begin,
                        TimePoint end, const SpanFleet& fleet,
                        QosTracker& qos, EnergyMeter& meter, SpanWork& work,
                        OnOverload&& on_overload) {
  assert(begin < end && end <= trace.size());
  const CompiledTrace::Run first = trace.run_at(cursor, begin);
  const std::size_t seated = cursor.seg;
  QosSpanTotals totals;
  Joules compute = 0.0;
  std::uint64_t fallbacks = 0;
  const TimePoint reached = fleet.power->with_depth([&]<unsigned kDepth>() {
    return fleet.degrade.enabled()
               ? span_walk_detail::walk_one<true, kDepth>(
                     trace, cursor, first, begin, end, fleet, totals,
                     compute, fallbacks, on_overload)
               : span_walk_detail::walk_one<false, kDepth>(
                     trace, cursor, first, begin, end, fleet, totals,
                     compute, fallbacks, on_overload);
  });
  // The walk stopped on the last run it integrated, or one run past it
  // when an overload crossing ended it early.
  work.sub_runs += cursor.seg - seated + (reached == end ? 1 : 0);
  work.power_fallbacks += fallbacks;
  qos.record_totals(totals);
  meter.add_integrated_span(compute, fleet.transition,
                            static_cast<std::size_t>(totals.seconds));
  return reached;
}

/// Integrates [begin, end) of the `lanes` (the active apps, in app order,
/// each seated at `begin`) out of `apps` workloads in all against `fleet`:
/// the cluster's sums into `qos` and `meter`, each app's attributed share
/// into its lane's tracker and meter. [begin, end) must lie within the
/// cluster meter's current day, and that meter steps 1 s.
/// `on_overload(lanes, total, lost_rate, len)` accrues each overloaded
/// sub-run, reading the apps' loads from the lanes. Returns the second the
/// walk reached: `end`, or an overload crossing. Closes every lane.
///
/// One pass over the lanes per sub-run: each lane takes its share of the
/// sub-run, steps its cursor if its run ends there, and adds its next load
/// into the next sub-run's total, so the next total sums in app order as
/// the file comment requires. While no lane draws transition power (most
/// sub-runs of a day), the lanes skip their reconfiguration adds
/// (EnergyMeter::OpenSpan::add_compute): calling add() there instead ran
/// the three-app day ~1.2x and the 1,000-app fleet day ~1.1x slower
/// (ABBA pairs of binaries on a shared 4-vCPU host). The in-day path
/// (the file comment) takes 98.6% of the sub-runs of both days and 81% to
/// 99.99% of each shipped multi-app spec's; with it off, the three-app
/// day ran 1.06-1.13x and the fleet day 1.10-1.25x slower (medians of six
/// in-process ABBA runs of ten pairs each, same host; perfbench
/// `channels` replayed 1.06x as many app-days per second with it, ten
/// alternating runs each), and counting each
/// lane's seconds per sub-run instead of once ran the fleet day 1.3x
/// slower (ten ABBA pairs of binaries, all ten won).
template <class OnOverload>
TimePoint walk_merged_span(std::span<MergeLane> lanes, std::size_t apps,
                           TimePoint begin, TimePoint end,
                           const SpanFleet& fleet, QosTracker& qos,
                           EnergyMeter& meter, SpanWork& work,
                           OnOverload&& on_overload) {
  return span_walk_detail::MergedWalk::walk(lanes, apps, begin, end, fleet,
                                            qos, meter, work, on_overload);
}

}  // namespace bml
