// Tests for obs/: histogram bucket edges, deterministic registry
// rendering, the simulator's span-cause accounting and consult counts,
// thread-count independence of sweep metrics, CSV byte-identity with
// observability on or off, and the pinned golden Chrome trace-event
// export.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace_export.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"

namespace bml {
namespace {

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // exactly on a bound lands in that bound's bucket
  h.observe(1.0000001);  // just past a bound falls to the next bucket
  h.observe(2.0);   // <= 2
  h.observe(4.0);   // <= 4 (last finite bucket, inclusive)
  h.observe(4.0000001);  // overflow
  h.observe(-3.0);  // below everything still lands in the first bucket

  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 3u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.total_count(), 7u);
}

TEST(Histogram, RejectsEmptyOrNonIncreasingBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
}

TEST(Histogram, UnconfiguredDropsObservations) {
  Histogram h;
  EXPECT_FALSE(h.configured());
  h.observe(1.0);
  EXPECT_EQ(h.total_count(), 0u);
}

TEST(Histogram, MergeAddsAdoptsAndRejectsMismatches) {
  Histogram a(std::vector<double>{1.0, 2.0});
  a.observe(0.5);
  Histogram b(std::vector<double>{1.0, 2.0});
  b.observe(1.5);
  b.observe(5.0);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 3u);
  EXPECT_EQ(a.counts()[1], 1u);
  EXPECT_EQ(a.counts()[2], 1u);

  // Merging into an unconfigured histogram adopts the source's bounds;
  // merging an unconfigured source is a no-op.
  Histogram empty;
  empty.merge(a);
  EXPECT_EQ(empty.upper_bounds(), a.upper_bounds());
  EXPECT_EQ(empty.total_count(), 3u);
  a.merge(Histogram{});
  EXPECT_EQ(a.total_count(), 3u);

  Histogram other(std::vector<double>{1.0, 3.0});
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(Histogram, ExponentialLadderCoversADayOfSpanSeconds) {
  const Histogram h = Histogram::exponential(1.0, 2.0, 18);
  ASSERT_EQ(h.upper_bounds().size(), 18u);
  EXPECT_DOUBLE_EQ(h.upper_bounds().front(), 1.0);
  // The span-length ladder must reach past 86400 s so a whole quiet day
  // never lands in the overflow bucket.
  EXPECT_GT(h.upper_bounds().back(), 86400.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, RendersSortedDeterministicText) {
  MetricsRegistry r;
  r.add_counter("zeta", 2);
  r.add_counter("alpha", 1);
  r.add_counter("alpha", 4);
  r.max_gauge("gauge", 1.5);
  r.max_gauge("gauge", 0.5);  // max keeps 1.5
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(1.0);
  r.merge_histogram("hist", h);

  EXPECT_EQ(r.counter("alpha"), 5u);
  EXPECT_EQ(r.counter("absent"), 0u);
  const std::string text = r.to_text();
  EXPECT_EQ(text,
            "alpha 5\n"
            "zeta 2\n"
            "gauge 1.5\n"
            "hist count=1 mean=1 le1:1\n");

  // Merging the same shards in the same order is associative on the text.
  MetricsRegistry copy;
  copy.merge(r);
  EXPECT_EQ(copy.to_text(), text);
}

TEST(SpanEndCause, NamesAreStable) {
  EXPECT_STREQ(to_string(SpanEndCause::kSchedulerStable), "scheduler-stable");
  EXPECT_STREQ(to_string(SpanEndCause::kTraceChange), "trace-change");
  EXPECT_STREQ(to_string(SpanEndCause::kTransitionComplete),
               "transition-complete");
  EXPECT_STREQ(to_string(SpanEndCause::kFault), "fault");
  EXPECT_STREQ(to_string(SpanEndCause::kCrewCompletion), "crew-completion");
  EXPECT_STREQ(to_string(SpanEndCause::kSloCrossing), "slo-crossing");
  EXPECT_STREQ(to_string(SpanEndCause::kDayBoundary), "day-boundary");
  EXPECT_STREQ(to_string(SpanEndCause::kTraceEnd), "trace-end");
}

// ---------------------------------------------------------------------------
// Simulator instrumentation through the scenario engine

constexpr const char* kTinySpec = R"(name = tiny
catalog = illustrative
trace = step
trace.segments = 120:300;4000:300
scheduler = bml
predictor = oracle-max
seed = 7
)";

TEST(SimMetrics, SpanEndCausesSumToSpans) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  const SimMetrics& m = result.sim.metrics;
  ASSERT_TRUE(m.enabled);
  EXPECT_GT(m.spans, 0u);
  EXPECT_EQ(m.ticks, 0u);  // event-driven path
  const std::uint64_t cause_sum = std::accumulate(
      m.span_end_causes.begin(), m.span_end_causes.end(), std::uint64_t{0});
  EXPECT_EQ(cause_sum, m.spans);
  EXPECT_EQ(m.span_seconds.total_count(), m.spans);
  EXPECT_GT(m.scheduler_consults, 0u);
  // The tiny step forces exactly one reconfiguration.
  EXPECT_EQ(m.decisions_applied, 1u);
  EXPECT_EQ(m.span_end_causes[static_cast<std::size_t>(
                SpanEndCause::kTraceEnd)],
            1u);
}

TEST(SimMetrics, MetricsCollectionDoesNotChangeResults) {
  const ScenarioSpec off = parse_scenario(kTinySpec);
  ScenarioSpec on = off;
  on.obs_metrics = true;
  const ScenarioResult a = run_scenario(off);
  const ScenarioResult b = run_scenario(on);
  EXPECT_EQ(a.sim.compute_energy, b.sim.compute_energy);
  EXPECT_EQ(a.sim.reconfiguration_energy, b.sim.reconfiguration_energy);
  EXPECT_EQ(a.sim.reconfigurations, b.sim.reconfigurations);
  EXPECT_FALSE(a.sim.metrics.enabled);
}

// A quiet 3-day run of `apps` tenants (800 req/s, then 300 req/s) under
// static-max, whose decision never changes.
std::string quiet_days_spec(int apps) {
  std::string text = "name = quiet\ncatalog = illustrative\nseed = 7\n";
  for (int a = 0; a < apps; ++a)
    text += "[app]\nname = app" + std::to_string(a) +
            "\ntrace = constant\ntrace.rate = " + (a == 0 ? "800" : "300") +
            "\ntrace.duration = 259200\nscheduler = static-max\n";
  return text;
}

void expect_close(double fast, double reference, const char* what) {
  EXPECT_NEAR(fast, reference, 1e-9 * std::max(1.0, std::abs(reference)))
      << what;
}

// Two tenants on their own fault domains: `steady` (static-max, never
// changes) beside `daily` (per-day, resized at both midnights), while
// crashes and repairs land on both domains.
constexpr const char* kNeighboursSpec = R"(name = neighbours
catalog = illustrative
seed = 7
faults.mtbf = 20000
faults.mttr = 600
faults.seed = 3
[app]
name = steady
trace = constant
trace.rate = 300
trace.duration = 259200
scheduler = static-max
fault_domain = a
[app]
name = daily
trace = step
trace.segments = 200:86400;900:86400;400:86400
scheduler = per-day
fault_domain = b
)";

// The fast path's results equal the per-second reference's: integer
// counters exactly, integrals within the 1e-9 contract.
void expect_fast_matches_reference(const ScenarioResult& fast,
                                   const ScenarioResult& reference) {
  EXPECT_EQ(fast.sim.reconfigurations, reference.sim.reconfigurations);
  EXPECT_EQ(fast.sim.peak_machines, reference.sim.peak_machines);
  EXPECT_EQ(fast.sim.qos.total_seconds, reference.sim.qos.total_seconds);
  EXPECT_EQ(fast.sim.qos.violation_seconds,
            reference.sim.qos.violation_seconds);
  expect_close(fast.sim.compute_energy, reference.sim.compute_energy,
               "compute_energy");
  expect_close(fast.sim.reconfiguration_energy,
               reference.sim.reconfiguration_energy,
               "reconfiguration_energy");
  expect_close(fast.sim.qos.unserved_requests,
               reference.sim.qos.unserved_requests, "unserved_requests");
  ASSERT_EQ(fast.apps.size(), reference.apps.size());
  for (std::size_t a = 0; a < fast.apps.size(); ++a) {
    EXPECT_EQ(fast.apps[a].active_seconds, reference.apps[a].active_seconds);
    EXPECT_EQ(fast.apps[a].qos_stats.violation_seconds,
              reference.apps[a].qos_stats.violation_seconds);
    expect_close(fast.apps[a].compute_energy,
                 reference.apps[a].compute_energy, "app compute_energy");
    expect_close(fast.apps[a].reconfiguration_energy,
                 reference.apps[a].reconfiguration_energy,
                 "app reconfiguration_energy");
  }
}

TEST(SimMetrics, EveryAppCountConsultsOnlyWhenTheCachedBoundExpires) {
  // The event-driven path keeps each app's decision_stable_until across
  // spans at any app count: three day-bounded spans cost one consult per
  // app, while the per-second reference consults every app every second.
  for (const int apps : {1, 2}) {
    SCOPED_TRACE("apps = " + std::to_string(apps));
    ScenarioSpec spec = parse_scenario(quiet_days_spec(apps));
    spec.obs_metrics = true;
    const ScenarioResult fast = run_scenario(spec);
    spec.event_driven = false;
    const ScenarioResult reference = run_scenario(spec);

    const auto k = static_cast<std::uint64_t>(apps);
    EXPECT_EQ(fast.sim.metrics.spans, 3u);
    EXPECT_EQ(fast.sim.metrics.scheduler_consults, k);
    EXPECT_EQ(reference.sim.metrics.ticks, 259'200u);
    EXPECT_EQ(reference.sim.metrics.scheduler_consults, k * 259'200u);
    expect_fast_matches_reference(fast, reference);
  }

  // A cached bound survives a neighbour's reconfigurations and fault
  // batches: a decision depends on the trace and the time alone.
  SCOPED_TRACE("neighbours under faults");
  ScenarioSpec spec = parse_scenario(kNeighboursSpec);
  spec.obs_metrics = true;
  const ScenarioResult fast = run_scenario(spec);
  spec.event_driven = false;
  const ScenarioResult reference = run_scenario(spec);

  // Faults land on both domains, and their replacement boots are
  // reconfigurations too.
  ASSERT_EQ(fast.apps.size(), 2u);
  EXPECT_GT(fast.apps[0].failures, 0);
  EXPECT_GT(fast.apps[1].failures, 0);
  EXPECT_GT(fast.sim.reconfigurations, 2);
  // `steady` is consulted once: static-max is stable for the whole replay.
  // `daily` is consulted at t = 0, stable until midnight; at each of the
  // two midnights the consult starts a resize, and the app is consulted
  // again when that reconfiguration completes, stable until the next
  // midnight. No other consult happens: 1 + 1 + 2 * 2.
  EXPECT_EQ(fast.sim.metrics.decisions_applied, 2u);
  EXPECT_EQ(fast.sim.metrics.scheduler_consults, 1u + 1u + 2u * 2u);
  EXPECT_EQ(fast.sim.machine_failures, reference.sim.machine_failures);
  expect_fast_matches_reference(fast, reference);
}

// Four effective apps (3 replicas + 1) run the fused k-way merge.
constexpr const char* kFleetSpec = R"(name = fleet
catalog = illustrative
seed = 7
[app]
name = a
replicas = 3
trace = step
trace.segments = 120:300;2000:300
scheduler = bml
predictor = oracle-max
[app]
name = b
trace = constant
trace.rate = 400
trace.duration = 600
scheduler = reactive
)";

TEST(SimMetrics, FleetModeKeepsCauseSumAndCountsMergeWork) {
  ScenarioSpec spec = parse_scenario(kFleetSpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  const SimMetrics& m = result.sim.metrics;
  ASSERT_TRUE(m.enabled);
  EXPECT_GT(m.spans, 0u);
  EXPECT_EQ(m.ticks, 0u);
  // The span-cause ledger must stay exact through the fused merge: every
  // span names exactly one ending cause.
  const std::uint64_t cause_sum = std::accumulate(
      m.span_end_causes.begin(), m.span_end_causes.end(), std::uint64_t{0});
  EXPECT_EQ(cause_sum, m.spans);
  EXPECT_EQ(m.span_seconds.total_count(), m.spans);
  EXPECT_EQ(m.merge_apps_max, 4u);
  // Every span seeds one frontier cursor per app before consuming runs.
  EXPECT_GE(m.merge_frontier_advances, m.spans * 4);
}

TEST(SimMetrics, MergeCountersExportUnderSimMergeNames) {
  ScenarioSpec spec = parse_scenario(kFleetSpec);
  spec.obs_metrics = true;
  const ScenarioResult result = run_scenario(spec);
  MetricsRegistry registry;
  result.sim.metrics.export_to(registry);
  EXPECT_EQ(registry.counter("sim.merge.frontier_advances"),
            result.sim.metrics.merge_frontier_advances);
  EXPECT_NE(registry.to_text().find("sim.merge.apps_max 4"),
            std::string::npos);
}

constexpr const char* kSweepSpec = R"(name = grid
catalog = illustrative
trace = step
trace.segments = 120:300;4000:300
scheduler = bml
predictor = oracle-max
seed = 7
sweep scheduler.window = 400,800
sweep predictor = oracle-max,moving-max
)";

TEST(SweepMetrics, TextIsIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = parse_scenario(kSweepSpec);
  spec.obs_metrics = true;
  SweepOptions one;
  one.threads = 1;
  SweepOptions four;
  four.threads = 4;
  const SweepReport a = run_sweep(spec, one);
  const SweepReport b = run_sweep(spec, four);
  EXPECT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics.to_text(), b.metrics.to_text());
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.metrics.counter("sweep.scenarios"), 4u);
  // scheduler.window / predictor axes are runtime components — the build
  // stays shared, so the cache takes every grid point but the first.
  EXPECT_EQ(a.metrics.counter("sweep.build_cache.hits"), 3u);
  EXPECT_EQ(a.metrics.counter("sweep.build_cache.misses"), 1u);
}

TEST(SweepMetrics, CsvIsByteIdenticalWithObservabilityOnOrOff) {
  const ScenarioSpec off = parse_scenario(kSweepSpec);
  ScenarioSpec on = off;
  on.obs_metrics = true;
  on.obs_trace = true;
  const SweepReport a = run_sweep(off, {});
  const SweepReport b = run_sweep(on, {});
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_TRUE(a.metrics.empty());
  EXPECT_FALSE(b.metrics.empty());
}

// ---------------------------------------------------------------------------
// Chrome trace-event export

TEST(TraceExport, GoldenTimelineJson) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_trace = true;
  spec.obs_sample = 120;
  const ScenarioResult result = run_scenario(spec);
  // Pinned output of this exact scenario: 5 counter samples at 120 s, one
  // reconfiguration rendered as a ph:"X" duration, three boot-complete
  // instants. Regenerate with
  //   bmlsim run <tiny.scn> --trace-out out.json --trace-sample 120
  // if the exporter's format deliberately changes.
  const std::string golden = R"({"displayTimeUnit":"ms",
"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"bmlsim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"events"}},
{"name":"machines on","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":4}},
{"name":"machines booting","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":0,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":0,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":0,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":4}},
{"name":"machines booting","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":120000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":120000000,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":120000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":240000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":240000000,"pid":1,"args":{"offered":120,"served":120}},
{"name":"slo spares","ph":"C","ts":240000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":360000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":360000000,"pid":1,"args":{"offered":4000,"served":4000}},
{"name":"slo spares","ph":"C","ts":360000000,"pid":1,"args":{"machines":0}},
{"name":"machines on","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":6,"arch-B":1,"arch-C":0}},
{"name":"machines booting","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines shutting down","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"machines failed","ph":"C","ts":480000000,"pid":1,"args":{"arch-A":0,"arch-B":0,"arch-C":0}},
{"name":"load","ph":"C","ts":480000000,"pid":1,"args":{"offered":4000,"served":4000}},
{"name":"slo spares","ph":"C","ts":480000000,"pid":1,"args":{"machines":0}},
{"name":"boot-complete","ph":"i","ts":120000000,"pid":1,"tid":1,"s":"g","args":{"detail":"1 transitions"}},
{"name":"boot-complete","ph":"i","ts":180000000,"pid":1,"tid":1,"s":"g","args":{"detail":"6 transitions"}},
{"name":"boot-complete","ph":"i","ts":195000000,"pid":1,"tid":1,"s":"g","args":{"detail":"4 transitions"}},
{"name":"reconfiguration","ph":"X","ts":61000000,"dur":135000000,"pid":1,"tid":1,"args":{"target":"6xarch-A + 1xarch-B"}}
]}
)";
  EXPECT_EQ(chrome_trace_json(result.sim.timeline, result.sim.events),
            golden);
}

TEST(TraceExport, EventCountsExportOnlyRecordedKinds) {
  ScenarioSpec spec = parse_scenario(kTinySpec);
  spec.obs_trace = true;
  const ScenarioResult result = run_scenario(spec);
  MetricsRegistry registry;
  export_event_counts(result.sim.events, registry);
  EXPECT_EQ(registry.counter("events.total"), result.sim.events.total());
  EXPECT_GT(registry.counter("events.boot-complete"), 0u);
  EXPECT_EQ(registry.counter("events.qos-violation"), 0u);
}

TEST(TraceExport, NamedEventCountsSumToTheTotal) {
  // degraded_priority logs preemptions and overload entries and exits,
  // tenant_churn app arrivals and departures: every kind is named.
  for (const std::string name : {"degraded_priority", "tenant_churn"}) {
    ScenarioSpec spec = load_scenario(
        std::filesystem::path(BML_SPECS_DIR) / (name + ".scn"));
    spec.sweeps.clear();
    spec.obs_trace = true;
    const ScenarioResult result = run_scenario(spec);
    MetricsRegistry registry;
    export_event_counts(result.sim.events, registry);
    std::uint64_t named = 0;
    std::istringstream text(registry.to_text());
    for (std::string line; std::getline(text, line);)
      if (line.starts_with("events.") && !line.starts_with("events.total "))
        named += std::stoull(line.substr(line.find(' ') + 1));
    EXPECT_GT(named, 0u) << name;
    EXPECT_EQ(named, registry.counter("events.total")) << name;
  }
}

TEST(TraceExport, TracedRunKeepsEveryEvent) {
  // A load far above the design's largest fleet logs a QoS violation
  // every second: 80,000 of them, more than a 2^16-event cap would keep.
  ScenarioSpec spec = parse_scenario(R"(name = overload
catalog = real
trace = constant
trace.rate = 100000
trace.duration = 80000
design.max_rate = 1000
scheduler = bml
)");
  spec.obs_trace = true;
  const ScenarioResult result = run_scenario(spec);
  const EventLog& log = result.sim.events;
  ASSERT_EQ(log.count(EventKind::kQosViolation), 80'000u);
  EXPECT_EQ(log.events().size(), log.total());
  EXPECT_EQ(log.events().front().time, 0);
}

// A noisy diurnal day: the load changes almost every second, so a traced
// run replayed on another strategy would sum its energy in another order.
constexpr const char* kNoisyDaySpec = R"(name = noisy
catalog = real
trace = diurnal
trace.peak = 1500
trace.noise = 0.05
seed = 3
)";

TEST(TraceExport, TimelineRecordingPreservesSimulationResults) {
  // Recording is a pure read of the run it observes: results are
  // bit-identical with it on or off.
  for (const char* text : {kTinySpec, kNoisyDaySpec}) {
    SCOPED_TRACE(text);
    const ScenarioSpec off = parse_scenario(text);
    ScenarioSpec on = off;
    on.obs_trace = true;
    const ScenarioResult a = run_scenario(off);
    const ScenarioResult b = run_scenario(on);
    EXPECT_EQ(a.sim.reconfigurations, b.sim.reconfigurations);
    EXPECT_EQ(a.sim.qos.violation_seconds, b.sim.qos.violation_seconds);
    EXPECT_EQ(a.sim.compute_energy, b.sim.compute_energy);
    EXPECT_EQ(a.sim.reconfiguration_energy, b.sim.reconfiguration_energy);
    EXPECT_EQ(a.sim.qos.unserved_requests, b.sim.qos.unserved_requests);
  }
}

TEST(TraceExport, BothStrategiesRecordTheSameTimeline) {
  // The fast path observes only the sample seconds of a span whose load
  // cannot exceed its capacity, as every other second records nothing on
  // the per-second loop either. Noisy loads, QoS violations, overload
  // edges, rack strikes, preemptions and churn all record the same JSON.
  std::vector<ScenarioSpec> specs{parse_scenario(kTinySpec),
                                  parse_scenario(kNoisyDaySpec),
                                  parse_scenario(R"(name = overload
catalog = real
trace = step
trace.segments = 900:1800;100000:600;900:1800
design.max_rate = 1000
scheduler = bml
)")};
  for (const std::string name :
       {"degraded_priority", "tenant_churn", "rack_strikes"})
    for (const ScenarioSpec& row : expand_sweep(load_scenario(
             std::filesystem::path(BML_SPECS_DIR) / (name + ".scn"))))
      specs.push_back(row);
  for (ScenarioSpec spec : specs) {
    SCOPED_TRACE(spec.name);
    spec.obs_trace = true;
    spec.obs_sample = 60;
    const ScenarioResult fast = run_scenario(spec);
    spec.event_driven = false;
    const ScenarioResult reference = run_scenario(spec);
    EXPECT_GT(fast.sim.timeline.samples.size(), 0u);
    EXPECT_EQ(chrome_trace_json(fast.sim.timeline, fast.sim.events),
              chrome_trace_json(reference.sim.timeline,
                                reference.sim.events));
  }
}

TEST(TraceExport, RejectsZeroSamplePeriod) {
  EXPECT_THROW(parse_scenario(std::string(kTinySpec) + "obs.sample = 0\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace bml
