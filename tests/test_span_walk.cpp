// The span walks (sim/span_walk.hpp) against the walk they replaced: a
// walk that re-seats its cursors with CompiledTrace::run_at for every
// sub-run and attributes each sub-run with the unfused per-run calls
// (QosTracker::record_span, EnergyMeter::add_span). Every sum must keep
// its bits — the cluster's and each app's QoS stats, the meters' totals
// and day buckets, the overload accounting — and the work ledger must
// count the same sub-runs, frontier advances and power-curve fallbacks,
// over random traces (1 s runs, long runs, zero tails, traces of different
// lengths), random span cuts (mid-run starts, day ends, the trace end),
// fleets whose power curves take every search depth, one to four apps
// with arrival and departure windows (so a lane's meter can lag the
// cluster's day), and degraded-mode serving on and off.
#include "sim/span_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "core/combination.hpp"
#include "core/dispatch_plan.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace bml {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The simulator's overload accounting (account_overload): cluster-wide,
/// and per app offering load, its penalty loss split by load.
struct Overload {
  explicit Overload(std::size_t apps) : app_seconds(apps), app_lost(apps) {}

  void add(const std::vector<ReqRate>& loads, ReqRate total,
           ReqRate lost_rate, TimePoint len) {
    const auto seconds = static_cast<double>(len);
    this->seconds += len;
    lost += lost_rate * seconds;
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (!(loads[i] > 0.0)) continue;
      app_seconds[i] += len;
      app_lost[i] += lost_rate * seconds * (loads[i] / total);
    }
  }

  std::int64_t seconds = 0;
  double lost = 0.0;
  std::vector<std::int64_t> app_seconds;
  std::vector<double> app_lost;
};

void expect_same(const Overload& a, const Overload& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(bits(a.lost), bits(b.lost));
  for (std::size_t i = 0; i < a.app_lost.size(); ++i) {
    EXPECT_EQ(a.app_seconds[i], b.app_seconds[i]) << "app " << i;
    EXPECT_EQ(bits(a.app_lost[i]), bits(b.app_lost[i])) << "app " << i;
  }
}

void expect_same(const QosStats& a, const QosStats& b) {
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.violation_seconds, b.violation_seconds);
  EXPECT_EQ(bits(a.offered_requests), bits(b.offered_requests));
  EXPECT_EQ(bits(a.unserved_requests), bits(b.unserved_requests));
  EXPECT_EQ(bits(a.worst_shortfall), bits(b.worst_shortfall));
}

void expect_same(const EnergyMeter& a, const EnergyMeter& b) {
  EXPECT_EQ(bits(a.compute_energy()), bits(b.compute_energy()));
  EXPECT_EQ(bits(a.reconfiguration_energy()),
            bits(b.reconfiguration_energy()));
  EXPECT_EQ(bits(a.elapsed()), bits(b.elapsed()));
  ASSERT_EQ(a.per_day_compute().size(), b.per_day_compute().size());
  for (std::size_t d = 0; d < a.per_day_compute().size(); ++d) {
    EXPECT_EQ(bits(a.per_day_compute()[d]), bits(b.per_day_compute()[d]))
        << "day " << d;
    EXPECT_EQ(bits(a.per_day_reconfiguration()[d]),
              bits(b.per_day_reconfiguration()[d]))
        << "day " << d;
  }
}

/// The ledger's power-curve fallbacks: lookups outside (0, table_end()).
void count_fallback(const FleetPowerCurve& curve, ReqRate rate,
                    SpanWork& work) {
  if (!(rate > 0.0 && rate < curve.table_end())) ++work.power_fallbacks;
}

/// The single-workload walk the kernel replaced, verbatim: run_at for
/// every run, the sums in locals, one fold per span.
TimePoint oracle_one(const CompiledTrace& trace, CompiledTrace::Cursor& cursor,
                     TimePoint begin, TimePoint end, const SpanFleet& fleet,
                     QosTracker& qos, EnergyMeter& meter, Overload& over,
                     SpanWork& work) {
  const bool deg = fleet.degrade.enabled();
  bool first = true;
  bool span_over = false;
  QosSpanTotals totals;
  Joules compute_e = 0.0;
  std::vector<ReqRate> loads(1);
  TimePoint cur = begin;
  while (cur < end) {
    const CompiledTrace::Run r = trace.run_at(cursor, cur);
    const TimePoint sub_end = r.end < end ? r.end : end;
    const TimePoint len = sub_end - cur;
    const auto seconds = static_cast<double>(len);
    ReqRate cap_eff = fleet.capacity;
    if (deg) {
      const DegradedCap dc =
          degraded_capacity(fleet.degrade, r.value, fleet.capacity);
      if (first) {
        span_over = dc.overloaded;
        first = false;
      } else if (dc.overloaded != span_over) {
        end = cur;
        break;
      }
      cap_eff = dc.effective;
      if (dc.overloaded) {
        loads[0] = r.value;
        over.add(loads, r.value, dc.lost_rate, len);
      }
    }
    totals.add(r.value, cap_eff, len);
    compute_e += fleet.power->power_at(r.value) * seconds;
    ++work.sub_runs;
    count_fallback(*fleet.power, r.value, work);
    cur = sub_end;
  }
  qos.record_totals(totals);
  meter.add_integrated_span(compute_e, fleet.transition,
                            static_cast<std::size_t>(totals.seconds));
  return end;
}

/// The app set of a merged walk: traces, cursors, and each app's tracker
/// and meter.
struct Apps {
  std::vector<CompiledTrace> traces;
  std::vector<CompiledTrace::Cursor> cursors;
  std::vector<QosTracker> qos;
  std::vector<EnergyMeter> meters;
};

/// The k-way merge the kernel replaced, re-seating every active app's
/// cursor with run_at at every sub-run and attributing each sub-run with
/// record_span and add_span: inactive apps offer 0.0 to the total in app
/// order, and the cluster sums fold every 512 sub-runs.
TimePoint oracle_merged(Apps& apps, const std::vector<char>& active,
                        const std::vector<double>& transition_shares,
                        TimePoint begin, TimePoint end,
                        const SpanFleet& fleet, QosTracker& qos,
                        EnergyMeter& meter, Overload& over, SpanWork& work) {
  const std::size_t k = apps.traces.size();
  const auto active_count =
      static_cast<std::size_t>(std::count(active.begin(), active.end(), 1));
  const bool deg = fleet.degrade.enabled();
  const double equal_alloc = 1.0 / static_cast<double>(k);
  const double equal_compute =
      active_count == 0 ? 0.0 : 1.0 / static_cast<double>(active_count);
  std::vector<ReqRate> loads(k, 0.0);
  std::vector<TimePoint> ends(k, end);
  work.frontier_advances += active_count;
  QosSpanTotals totals;
  Joules compute_e = 0.0;
  std::size_t chunk_runs = 0;
  const auto flush = [&] {
    qos.record_totals(totals);
    meter.add_integrated_span(compute_e, fleet.transition,
                              static_cast<std::size_t>(totals.seconds));
    totals = QosSpanTotals{};
    compute_e = 0.0;
    chunk_runs = 0;
  };
  bool first = true;
  bool span_over = false;
  TimePoint cur = begin;
  while (cur < end) {
    TimePoint sub_end = end;
    ReqRate total = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (active[i]) {
        const CompiledTrace::Run r = apps.traces[i].run_at(apps.cursors[i],
                                                           cur);
        loads[i] = r.value;
        ends[i] = r.end;
      }
      total += loads[i];
      if (ends[i] < sub_end) sub_end = ends[i];
    }
    const TimePoint len = sub_end - cur;
    ReqRate cap_eff = fleet.capacity;
    if (deg) {
      const DegradedCap dc =
          degraded_capacity(fleet.degrade, total, fleet.capacity);
      if (first) {
        span_over = dc.overloaded;
        first = false;
      } else if (dc.overloaded != span_over) {
        end = cur;
        break;
      }
      cap_eff = dc.effective;
      if (dc.overloaded) over.add(loads, total, dc.lost_rate, len);
    }
    const Watts compute = fleet.power->power_at(total);
    totals.add(total, cap_eff, len);
    compute_e += compute * static_cast<double>(len);
    ++work.sub_runs;
    count_fallback(*fleet.power, total, work);
    if (++chunk_runs == 512) flush();  // the pinned kFlushChunk
    for (std::size_t i = 0; i < k; ++i) {
      if (!active[i]) continue;
      const double alloc = total > 0.0 ? loads[i] / total : equal_alloc;
      const double share = total > 0.0 ? loads[i] / total : equal_compute;
      apps.qos[i].record_span(loads[i], cap_eff * alloc, len);
      apps.meters[i].add_span(compute * share,
                              fleet.transition * transition_shares[i],
                              static_cast<std::size_t>(len));
    }
    cur = sub_end;
    if (cur < end)
      for (std::size_t i = 0; i < k; ++i)
        if (active[i] && ends[i] == cur) ++work.frontier_advances;
  }
  if (chunk_runs > 0) flush();
  return end;
}

/// Runs of random lengths: 1 s runs (a noisy stretch), long runs, values
/// from a small set (so runs repeat and zero runs occur) or drawn fresh,
/// and now and then a zero tail.
std::vector<double> random_samples(Rng& rng, std::size_t n) {
  const double kValues[] = {0.0, 0.0, 7.0, 450.0, 1200.0};
  std::vector<double> x;
  x.reserve(n);
  while (x.size() < n) {
    const bool noisy = rng.chance(0.5);
    const std::int64_t runs =
        noisy ? rng.uniform_int(1, rng.chance(0.3) ? 3000 : 200) : 1;
    for (std::int64_t r = 0; r < runs && x.size() < n; ++r) {
      const std::int64_t len =
          noisy ? 1 : rng.uniform_int(2, rng.chance(0.3) ? 40'000 : 500);
      const double v = rng.chance(0.4) ? kValues[rng.uniform_int(0, 4)]
                                       : rng.uniform(0.0, 2500.0);
      for (std::int64_t s = 0; s < len && x.size() < n; ++s) x.push_back(v);
    }
  }
  if (rng.chance(0.3)) {
    const std::int64_t tail = rng.uniform_int(
        1, static_cast<std::int64_t>(std::min<std::size_t>(n, 3000)));
    std::fill(x.end() - tail, x.end(), 0.0);
  }
  return x;
}

/// A fleet to walk against: a compiled power curve and its capacity.
struct Fleet {
  FleetPowerCurve curve;
  ReqRate capacity = 0.0;
};

/// The ideal fleets for a few rates, from the empty one to 6,000 req/s,
/// and fleets of 1, 2, 3, 6, 12, 24 and 48 pieces and one past the
/// 64-piece cap, so the walks take the power lookup at every search depth;
/// the curves borrow the plan, which lives as long as they do.
const std::vector<Fleet>& fleets() {
  static const Catalog catalog = real_catalog();
  static const DispatchPlan plan(catalog);
  static const std::vector<Fleet> out = [] {
    const BmlDesign design = BmlDesign::build(catalog);
    std::vector<Combination> combos;
    for (const double rate : {0.0, 30.0, 900.0, 2600.0, 6000.0}) {
      combos.push_back(design.ideal_combination(rate));
      combos.back().resize(catalog.size());
    }
    // Paravance, Taurus, Graphene, Chromebook, Raspberry counts.
    for (const std::vector<int>& counts :
         std::vector<std::vector<int>>{{1, 0, 0, 0, 0},
                                       {2, 0, 0, 0, 0},
                                       {2, 1, 0, 0, 0},
                                       {1, 1, 2, 1, 1},
                                       {1, 1, 2, 4, 4},
                                       {1, 1, 2, 10, 10},
                                       {1, 1, 2, 20, 24},
                                       {2, 3, 4, 9, 80}})
      combos.emplace_back(counts);
    std::vector<Fleet> built;
    for (const Combination& combo : combos) {
      Fleet f;
      plan.compile_fleet(combo.counts(), f.curve);
      f.capacity = capacity(catalog, combo);
      built.push_back(std::move(f));
    }
    return built;
  }();
  return out;
}

TEST(SpanWalk, FleetsTakeEverySearchDepth) {
  std::vector<char> seen(FleetPowerCurve::kMaxDepth + 1);
  for (const Fleet& f : fleets()) seen[f.curve.depth()] = 1;
  for (unsigned d = 0; d <= FleetPowerCurve::kMaxDepth; ++d)
    EXPECT_TRUE(seen[d]) << "depth " << d;
}

/// The next span end after `t`: a random length, clamped at the day's end,
/// the trace end and the next arrival or departure (the simulator's
/// bounds, so the active set is fixed inside a span).
TimePoint next_cut(Rng& rng, TimePoint t, TimePoint n,
                   const std::vector<TimePoint>& events) {
  TimePoint len;
  switch (rng.uniform_int(0, 3)) {
    case 0: len = 1; break;
    case 1: len = rng.uniform_int(1, 60); break;
    case 2: len = rng.uniform_int(1, 4000); break;
    default: len = n; break;
  }
  TimePoint end = std::min({t + len, n, (t / kSecondsPerDay + 1) *
                                            kSecondsPerDay});
  for (const TimePoint e : events)
    if (e > t && e < end) end = e;
  return end;
}

struct Trial {
  std::size_t apps;
  bool windows;
  bool degrade;
  /// When set, every trace has this many seconds and app i arrives at
  /// arrive[i] and stays to the end, in place of the random draws.
  TimePoint seconds = 0;
  std::vector<TimePoint> arrive = {};
};

/// What a trial's spans exercised: spans an overload crossing cut short,
/// and merged spans by how they met their lanes' meters — fitting every
/// lane's open day, reaching past an open day, and starting on a day
/// boundary of a lane that has run before.
struct Coverage {
  std::size_t crossings = 0;
  std::size_t fitting = 0;
  std::size_t past_a_lane_day = 0;
  std::size_t on_a_lane_day_start = 0;

  Coverage& operator+=(const Coverage& o) {
    crossings += o.crossings;
    fitting += o.fitting;
    past_a_lane_day += o.past_a_lane_day;
    on_a_lane_day_start += o.on_a_lane_day_start;
    return *this;
  }
};

/// Walks one random trial with both walks and compares every sum.
Coverage run_trial(const Trial& trial, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
               std::to_string(trial.apps) + " apps" +
               (trial.windows ? ", windows" : "") +
               (trial.degrade ? ", degrade" : ""));
  const std::vector<Fleet>& all_fleets = fleets();
  Rng rng(seed);
  const std::size_t k = trial.apps;
  // Traces of different lengths, some past a day, so offset app meters
  // reach their day's end inside a span.
  std::vector<LoadTrace> traces;
  for (std::size_t i = 0; i < k; ++i)
    traces.emplace_back(random_samples(
        rng, trial.seconds > 0
                 ? static_cast<std::size_t>(trial.seconds)
                 : static_cast<std::size_t>(rng.uniform_int(
                       1, rng.chance(0.5) ? 120'000 : 5'000))));
  TimePoint n = 0;
  for (const LoadTrace& t : traces)
    n = std::max(n, static_cast<TimePoint>(t.size()));
  // Arrival and departure windows [arrive, depart).
  std::vector<TimePoint> arrive(k, 0);
  std::vector<TimePoint> depart(k, n);
  std::vector<TimePoint> events;
  if (!trial.arrive.empty()) {
    arrive = trial.arrive;
    events = trial.arrive;
  } else if (trial.windows) {
    for (std::size_t i = 0; i < k; ++i) {
      if (rng.chance(0.7)) arrive[i] = rng.uniform_int(0, n - 1);
      if (rng.chance(0.5)) depart[i] = rng.uniform_int(arrive[i] + 1, n);
      events.push_back(arrive[i]);
      events.push_back(depart[i]);
    }
  }
  const DegradeModel degrade{0.3, 0.4};

  Apps walked;
  Apps oracle;
  for (Apps* a : {&walked, &oracle}) {
    for (const LoadTrace& t : traces) a->traces.emplace_back(t);
    a->cursors.resize(k);
    a->qos.resize(k);
    a->meters.assign(k, EnergyMeter(1.0));
  }
  QosTracker qos_walked;
  QosTracker qos_oracle;
  EnergyMeter meter_walked(1.0);
  EnergyMeter meter_oracle(1.0);
  Overload over_walked(k);
  Overload over_oracle(k);
  SpanWork work_walked;
  SpanWork work_oracle;
  std::vector<MergeLane> lanes;
  std::vector<char> active(k);
  std::vector<double> shares(k);
  const bool merged = k > 1 || trial.windows || !trial.arrive.empty();
  Coverage seen;
  TimePoint t = 0;
  while (t < n) {
    const TimePoint end = next_cut(rng, t, n, events);
    const Fleet& f = all_fleets[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(all_fleets.size()) - 1))];
    SpanFleet fleet;
    fleet.power = &f.curve;
    fleet.capacity = rng.chance(0.3) ? rng.uniform(0.0, f.capacity)
                                     : f.capacity;
    fleet.transition = rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 900.0);
    if (trial.degrade) fleet.degrade = degrade;
    double weight = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      active[i] = arrive[i] <= t && t < depart[i];
      shares[i] = rng.uniform(0.0, 1.0);
      weight += shares[i];
    }
    for (double& s : shares) s /= weight;

    TimePoint reached;
    TimePoint expected;
    if (!merged) {
      reached = walk_one_span(
          walked.traces[0], walked.cursors[0], t, end, fleet, qos_walked,
          meter_walked, work_walked,
          [&](ReqRate load, ReqRate lost_rate, TimePoint len) {
            over_walked.add({load}, load, lost_rate, len);
          });
      expected = oracle_one(oracle.traces[0], oracle.cursors[0], t, end,
                            fleet, qos_oracle, meter_oracle, over_oracle,
                            work_oracle);
    } else {
      // A lane meter steps 1 s and has a day bucket open unless its tick
      // sits on a day boundary (its first span included).
      bool fits = true;
      for (std::size_t i = 0; i < k; ++i) {
        if (!active[i]) continue;
        const auto ticks = static_cast<TimePoint>(walked.meters[i].elapsed());
        const TimePoint day_left =
            ticks % kSecondsPerDay == 0 ? 0
                                        : kSecondsPerDay - ticks % kSecondsPerDay;
        if (day_left > 0 && end - t > day_left) ++seen.past_a_lane_day;
        if (ticks > 0 && day_left == 0) ++seen.on_a_lane_day_start;
        fits = fits && end - t <= day_left;
      }
      if (fits) ++seen.fitting;
      lanes.clear();
      for (std::size_t i = 0; i < k; ++i)
        if (active[i])
          lanes.emplace_back(i, walked.traces[i], walked.cursors[i], t,
                             walked.qos[i], walked.meters[i],
                             fleet.transition * shares[i]);
      std::vector<ReqRate> loads(k);
      reached = walk_merged_span(
          lanes, k, t, end, fleet, qos_walked, meter_walked, work_walked,
          [&](std::span<const MergeLane> open, ReqRate total,
              ReqRate lost_rate, TimePoint len) {
            std::fill(loads.begin(), loads.end(), 0.0);
            for (const MergeLane& l : open) loads[l.app] = l.load;
            over_walked.add(loads, total, lost_rate, len);
          });
      expected = oracle_merged(oracle, active, shares, t, end, fleet,
                               qos_oracle, meter_oracle, over_oracle,
                               work_oracle);
    }
    EXPECT_EQ(reached, expected) << "span [" << t << ", " << end << ")";
    if (reached != expected) return seen;
    if (reached < end) ++seen.crossings;
    t = reached;
  }
  expect_same(qos_walked.stats(), qos_oracle.stats());
  expect_same(meter_walked, meter_oracle);
  expect_same(over_walked, over_oracle);
  for (std::size_t i = 0; i < k; ++i) {
    SCOPED_TRACE("app " + std::to_string(i));
    expect_same(walked.qos[i].stats(), oracle.qos[i].stats());
    expect_same(walked.meters[i], oracle.meters[i]);
  }
  EXPECT_EQ(work_walked.sub_runs, work_oracle.sub_runs);
  EXPECT_EQ(work_walked.frontier_advances, work_oracle.frontier_advances);
  EXPECT_EQ(work_walked.power_fallbacks, work_oracle.power_fallbacks);
  return seen;
}

TEST(SpanWalk, OneWorkloadMatchesTheRunAtWalkBitForBit) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    seen += run_trial({1, false, seed % 3 == 0}, seed);
  EXPECT_GT(seen.crossings, 0u);
}

TEST(SpanWalk, MergedWalkMatchesTheRunAtWalkBitForBit) {
  // Two to four apps, with and without windows, degrade on every third.
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    seen += run_trial({2 + seed % 3, seed % 2 == 0, seed % 3 == 1}, 100 + seed);
  EXPECT_GT(seen.crossings, 0u);
  EXPECT_GT(seen.fitting, 0u);
}

TEST(SpanWalk, OneAppWithAWindowTakesTheMergedWalk) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    seen += run_trial({1, true, seed % 2 == 0}, 200 + seed);
  EXPECT_GT(seen.crossings, 0u);
}

TEST(SpanWalk, MergedSpansThatDoAndDoNotFitALaneDay) {
  // Three days of three apps. The first is there from the start, so its
  // meter's days are the cluster's and each day's first span opens it on
  // a day boundary; the second arrives mid-day, so its meter's day ends
  // inside a cluster day and a span can reach past it; the third arrives
  // one second before a cluster day ends.
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    seen += run_trial({3, false, seed % 2 == 0, 3 * kSecondsPerDay,
                       {0, 50'000, kSecondsPerDay - 1}},
                      300 + seed);
  EXPECT_GT(seen.fitting, 0u);
  EXPECT_GT(seen.past_a_lane_day, 0u);
  EXPECT_GT(seen.on_a_lane_day_start, 0u);
}

TEST(SpanWalk, DegradeStopsAtTheFirstCrossing) {
  // A load that steps over and back under a 100 req/s fleet: the walk
  // integrates the first run, stops at the crossing, and resumes there.
  const LoadTrace trace(std::vector<double>{50, 50, 150, 150, 60, 60});
  const CompiledTrace compiled(trace);
  const SpanFleet fleet{100.0, 0.0, &fleets()[2].curve, {0.5, 0.5}};
  CompiledTrace::Cursor cursor;
  QosTracker qos;
  EnergyMeter meter(1.0);
  SpanWork work;
  std::int64_t overloaded = 0;
  const auto on_overload = [&](ReqRate, ReqRate, TimePoint len) {
    overloaded += len;
  };
  EXPECT_EQ(walk_one_span(compiled, cursor, 0, 6, fleet, qos, meter, work,
                          on_overload),
            2);
  EXPECT_EQ(walk_one_span(compiled, cursor, 2, 6, fleet, qos, meter, work,
                          on_overload),
            4);
  EXPECT_EQ(walk_one_span(compiled, cursor, 4, 6, fleet, qos, meter, work,
                          on_overload),
            6);
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(work.sub_runs, 3u);
  EXPECT_EQ(qos.stats().total_seconds, 6);
  // Overloaded, 150 req/s is served at 100 + 50 * (1 - 0.5) = 125.
  EXPECT_EQ(qos.stats().violation_seconds, 2);
}

}  // namespace
}  // namespace bml
