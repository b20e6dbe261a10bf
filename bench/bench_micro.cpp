// google-benchmark microbenchmarks for the library's hot paths: the
// combination solvers, load dispatch (reference vs compiled plan), the
// threshold computation, the oracle predictor, end-to-end trace replay
// (event-driven fast path vs per-second reference), scenario-engine
// sweep throughput at 1 and N worker threads, and the random words and
// trace generation the build spends its time in.
//
// The binary overrides global operator new/delete with a counting
// allocator so benchmarks can report an `allocs_per_iter` counter;
// BM_Dispatch (the DispatchPlan path) must report 0.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/bml_design.hpp"
#include "core/dispatch_plan.hpp"
#include "predict/predictor.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "sched/bml_scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bml;

const BmlDesign& design() {
  static const BmlDesign d = BmlDesign::build(real_catalog());
  return d;
}

/// Records the number of heap allocations per iteration as a counter.
class AllocationScope {
 public:
  explicit AllocationScope(benchmark::State& state)
      : state_(state),
        start_(g_allocation_count.load(std::memory_order_relaxed)) {}
  ~AllocationScope() {
    const std::size_t total =
        g_allocation_count.load(std::memory_order_relaxed) - start_;
    state_.counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(total) /
        static_cast<double>(state_.iterations() ? state_.iterations() : 1));
  }

 private:
  benchmark::State& state_;
  std::size_t start_;
};

void BM_GreedySolve(benchmark::State& state) {
  const auto& d = design();
  const GreedyThresholdSolver solver(d.candidates(), d.thresholds());
  double rate = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(rate));
    rate = rate >= 5000.0 ? 1.0 : rate + 37.0;
  }
}
BENCHMARK(BM_GreedySolve);

void BM_ExactDpBuild(benchmark::State& state) {
  const auto& d = design();
  for (auto _ : state) {
    const ExactDpSolver solver(d.candidates(),
                               static_cast<double>(state.range(0)));
    benchmark::DoNotOptimize(&solver);
  }
}
BENCHMARK(BM_ExactDpBuild)->Arg(1000)->Arg(5000);

void BM_TableLookup(benchmark::State& state) {
  const auto& d = design();
  double rate = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.ideal_combination(rate));
    rate = rate >= 5000.0 ? 0.0 : rate + 13.0;
  }
}
BENCHMARK(BM_TableLookup);

// Allocation-free dispatch through the compiled plan: the simulator /
// solver hot path. allocs_per_iter must be 0.
void BM_Dispatch(benchmark::State& state) {
  const auto& d = design();
  const DispatchPlan plan(d.candidates());
  Combination combo = d.ideal_combination(2500.0);
  combo.resize(d.candidates().size());
  DispatchResult scratch;
  plan.dispatch_into(combo.counts(), 0.0, scratch);  // warm the scratch
  double load = 0.0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    plan.dispatch_into(combo.counts(), load, scratch);
    benchmark::DoNotOptimize(scratch.power);
    load = load >= 2500.0 ? 0.0 : load + 11.0;
  }
}
BENCHMARK(BM_Dispatch);

// Power-only query, the innermost call of the DP solvers and the
// event-driven simulator.
void BM_DispatchPlanPowerAt(benchmark::State& state) {
  const auto& d = design();
  const DispatchPlan plan(d.candidates());
  Combination combo = d.ideal_combination(2500.0);
  combo.resize(d.candidates().size());
  double load = 0.0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.power_at(combo.counts(), load));
    load = load >= 2500.0 ? 0.0 : load + 11.0;
  }
}
BENCHMARK(BM_DispatchPlanPowerAt);

// The legacy per-call dispatch(), kept as the baseline the plan is
// measured against (it re-sorts and allocates every call).
void BM_DispatchReference(benchmark::State& state) {
  const auto& d = design();
  const Combination combo = d.ideal_combination(2500.0);
  double load = 0.0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch(d.candidates(), combo, load));
    load = load >= 2500.0 ? 0.0 : load + 11.0;
  }
}
BENCHMARK(BM_DispatchReference);

void BM_ThresholdComputation(benchmark::State& state) {
  const Catalog catalog = real_catalog();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BmlDesign::build(catalog, {.build_table = false}));
  }
}
BENCHMARK(BM_ThresholdComputation);

void BM_OraclePredictorQuery(benchmark::State& state) {
  DiurnalOptions options;
  options.noise = 0.05;
  const LoadTrace trace = diurnal_trace(options, 1);
  OracleMaxPredictor oracle;
  (void)oracle.predict(trace, 0, 378.0);  // build the cache once
  TimePoint t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.predict(trace, t, 378.0));
    t = (t + 17) % 86400;
  }
}
BENCHMARK(BM_OraclePredictorQuery);

void BM_SimulatorDay(benchmark::State& state) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  WorldCupOptions options;
  options.days = 1;
  options.peak = 3000.0;
  const LoadTrace trace = worldcup_like_trace(options);
  const Simulator simulator(d->candidates());
  for (auto _ : state) {
    BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
    benchmark::DoNotOptimize(simulator.run(scheduler, trace));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK(BM_SimulatorDay)->Unit(benchmark::kMillisecond);

// Three colocated applications (diurnal + worldcup + steady) replayed for
// one day through the multi-workload layer: the per-app attribution and
// coordinator-merge overhead on top of BM_SimulatorDay. Traces are built
// once; each timed iteration builds its three schedulers fresh, as
// BM_SimulatorDay does for its one, so the CI ratio compares like with
// like. items_per_second counts app-trace-seconds (3 x 86400 per
// iteration).
void BM_MultiAppSimulatorDay(benchmark::State& state) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.0;
  WorldCupOptions worldcup;
  worldcup.days = 1;
  worldcup.peak = 3000.0;
  constexpr std::size_t kApps = 3;
  const LoadTrace traces[kApps] = {diurnal_trace(diurnal, 1),
                                   worldcup_like_trace(worldcup),
                                   constant_trace(400.0, 86'400.0)};
  const std::string names[kApps] = {"web", "worldcup", "batch"};
  const Simulator simulator(d->candidates());
  std::int64_t seconds_per_iter = 0;
  for (const LoadTrace& trace : traces)
    seconds_per_iter += static_cast<std::int64_t>(trace.size());
  for (auto _ : state) {
    std::vector<std::unique_ptr<BmlScheduler>> schedulers;
    std::vector<Simulator::WorkloadView> views;
    for (std::size_t i = 0; i < kApps; ++i) {
      schedulers.push_back(std::make_unique<BmlScheduler>(
          d, std::make_shared<OracleMaxPredictor>()));
      views.push_back(Simulator::WorkloadView{&names[i], &traces[i],
                                              schedulers[i].get(),
                                              QosClass::kTolerant, 1.0});
    }
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          seconds_per_iter);
}
BENCHMARK(BM_MultiAppSimulatorDay)->Unit(benchmark::kMillisecond);

// One simulated day across a 1,000-app colocated fleet stamped out of
// four tenant archetypes, replicas sharing one trace per archetype
// exactly as the scenario engine's `replicas` dedup does: the
// widest fused k-way merge and the most consult-cache entries of the
// suite; items_per_second counts app-trace-seconds
// (1000 x 86400 per iteration).
void BM_FleetScaleDay(benchmark::State& state) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  constexpr std::size_t kApps = 1000;
  constexpr std::size_t kArchetypes = 4;
  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.0;
  WorldCupOptions worldcup;
  worldcup.days = 1;
  worldcup.peak = 3000.0;
  const LoadTrace traces[kArchetypes] = {
      diurnal_trace(diurnal, 1), worldcup_like_trace(worldcup),
      constant_trace(400.0, 86'400.0),
      step_trace({{300.0, 43'200.0}, {1000.0, 43'200.0}})};
  // One predictor per archetype, shared by its replicas' schedulers:
  // predictors hold no per-trace state on the BML path, and every
  // scheduler slides its own cursor over the shared trace.
  std::shared_ptr<OracleMaxPredictor> predictors[kArchetypes];
  for (auto& p : predictors) p = std::make_shared<OracleMaxPredictor>();
  const Simulator simulator(d->candidates());
  std::vector<std::string> names(kApps);
  std::vector<std::unique_ptr<BmlScheduler>> schedulers;
  std::vector<Simulator::WorkloadView> views;
  schedulers.reserve(kApps);
  views.reserve(kApps);
  std::int64_t seconds_per_iter = 0;
  for (std::size_t i = 0; i < kApps; ++i) {
    const std::size_t a = i % kArchetypes;
    names[i] = "app" + std::to_string(i);
    schedulers.push_back(std::make_unique<BmlScheduler>(d, predictors[a]));
    views.push_back(Simulator::WorkloadView{&names[i], &traces[a],
                                            schedulers.back().get(),
                                            QosClass::kTolerant, 1.0});
    seconds_per_iter += static_cast<std::int64_t>(traces[a].size());
  }
  benchmark::DoNotOptimize(simulator.run(views));  // bind the cursors
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          seconds_per_iter);
}
BENCHMARK(BM_FleetScaleDay)->Unit(benchmark::kMillisecond);

// BM_FleetScaleDay with tenant churn: one quarter of the 1000 apps are
// visitors arriving in hourly onboarding waves and staying six hours
// (dozens of lifecycle events, each re-partitioning the coordinator and
// re-entering the fused k-way merge with a different active subset — and
// each wave moving ~60 tenants' capacity at once). CI gates this at
// <= 2x BM_FleetScaleDay: lifecycle bookkeeping must stay a bounded tax
// on the fleet fast path.
void BM_FleetScaleChurnDay(benchmark::State& state) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  constexpr std::size_t kApps = 1000;
  constexpr std::size_t kArchetypes = 4;
  DiurnalOptions diurnal;
  diurnal.peak = 1500.0;
  diurnal.noise = 0.0;
  WorldCupOptions worldcup;
  worldcup.days = 1;
  worldcup.peak = 3000.0;
  const LoadTrace traces[kArchetypes] = {
      diurnal_trace(diurnal, 1), worldcup_like_trace(worldcup),
      constant_trace(400.0, 86'400.0),
      step_trace({{300.0, 43'200.0}, {1000.0, 43'200.0}})};
  std::shared_ptr<OracleMaxPredictor> predictors[kArchetypes];
  for (auto& p : predictors) p = std::make_shared<OracleMaxPredictor>();
  const Simulator simulator(d->candidates());
  std::vector<std::string> names(kApps);
  std::vector<std::unique_ptr<BmlScheduler>> schedulers;
  std::vector<Simulator::WorkloadView> views;
  schedulers.reserve(kApps);
  views.reserve(kApps);
  std::int64_t seconds_per_iter = 0;
  for (std::size_t i = 0; i < kApps; ++i) {
    const std::size_t a = i % kArchetypes;
    names[i] = "app" + std::to_string(i);
    schedulers.push_back(std::make_unique<BmlScheduler>(d, predictors[a]));
    Simulator::WorkloadView view{&names[i], &traces[a],
                                 schedulers.back().get(),
                                 QosClass::kTolerant, 1.0};
    if (i % 4 == 3) {
      // Hourly onboarding waves across the first half of the day, each
      // visitor resident for six hours.
      view.arrive = (1 + static_cast<TimePoint>((i / 4) % 12)) * 3600;
      view.depart = view.arrive + 6 * 3600;
    }
    views.push_back(view);
    seconds_per_iter += static_cast<std::int64_t>(traces[a].size());
  }
  benchmark::DoNotOptimize(simulator.run(views));  // bind the cursors
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          seconds_per_iter);
}
BENCHMARK(BM_FleetScaleChurnDay)->Unit(benchmark::kMillisecond);

/// Seven days of a steady (piecewise-constant) load: a 24-level staircase
/// per day, repeated — the shape of a planned-capacity workload. This is
/// the scenario where run-length batching shines.
LoadTrace steady_week_trace() {
  std::vector<StepSegment> segments;
  for (int day = 0; day < 7; ++day)
    for (int hour = 0; hour < 24; ++hour) {
      const double level =
          250.0 + 2250.0 * (hour < 12 ? hour : 24 - hour) / 12.0;
      segments.push_back({level, 3600.0});
    }
  return step_trace(segments);
}

/// Seven days of a per-second-varying World-Cup-style replay: Poisson
/// arrivals change the rate (almost) every second, the regime of the
/// paper's real recorded workloads — and the trace-granularity limiter the
/// decision-granular simulator removes. Peak sized so the BML fleet
/// actually reconfigures over the week.
LoadTrace noisy_week_trace() {
  WorldCupOptions options;
  options.days = 7;
  options.peak = 3000.0;
  options.tournament_start_day = 2;
  options.tournament_end_day = 6;
  return worldcup_like_trace(options);
}

void replay_week(benchmark::State& state, const LoadTrace& trace,
                 bool event_driven, SimulatorOptions options = {}) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  options.event_driven = event_driven;
  const Simulator simulator(d->candidates(), options);
  // The oracle BML scheduler is constructed once and bound to the trace
  // by one untimed run; each timed run restarts its prediction cursor at
  // t = 0 and walks it again, so the decision walks are part of the
  // replay (BM_SimulatorWeekNoisyPredictor also times a fresh
  // scheduler).
  BmlScheduler scheduler(d, std::make_shared<OracleMaxPredictor>());
  const std::string name = "app";
  const std::vector<Simulator::WorkloadView> views{Simulator::WorkloadView{
      &name, &trace, &scheduler, QosClass::kTolerant, 1.0}};
  benchmark::DoNotOptimize(simulator.run(views));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

// Event-driven fast path vs per-second reference on the same 7-day steady
// trace; the items_per_second ratio is the replay speedup.
void BM_SimulatorWeekSteadyEventDriven(benchmark::State& state) {
  replay_week(state, steady_week_trace(), /*event_driven=*/true);
}
BENCHMARK(BM_SimulatorWeekSteadyEventDriven)->Unit(benchmark::kMillisecond);

void BM_SimulatorWeekSteadyReference(benchmark::State& state) {
  replay_week(state, steady_week_trace(), /*event_driven=*/false);
}
BENCHMARK(BM_SimulatorWeekSteadyReference)->Unit(benchmark::kMillisecond);

// The same pair on the noisy 7-day WC98-style replay — the benchmark that
// tracks the decision-granular batching this library optimises for (CI
// fails when the event-driven path drops below 6x the reference here).
void BM_SimulatorWeekNoisyEventDriven(benchmark::State& state) {
  replay_week(state, noisy_week_trace(), /*event_driven=*/true);
}
BENCHMARK(BM_SimulatorWeekNoisyEventDriven)->Unit(benchmark::kMillisecond);

void BM_SimulatorWeekNoisyReference(benchmark::State& state) {
  replay_week(state, noisy_week_trace(), /*event_driven=*/false);
}
BENCHMARK(BM_SimulatorWeekNoisyReference)->Unit(benchmark::kMillisecond);

// The event-driven noisy week with its event log and timeline recorded, as
// `bmlsim run --trace-out` records them: the fast path replays each second
// of a span for its events and samples, so observing costs a constant
// factor (CI holds it to <= 4x BM_SimulatorWeekNoisyEventDriven).
void BM_SimulatorWeekNoisyObserved(benchmark::State& state) {
  SimulatorOptions options;
  options.record_timeline = true;
  replay_week(state, noisy_week_trace(), /*event_driven=*/true, options);
}
BENCHMARK(BM_SimulatorWeekNoisyObserved)->Unit(benchmark::kMillisecond);

// The event-driven noisy week under BML with each pure predictor,
// building a fresh scheduler (and so a fresh prediction cursor) every
// iteration: the exact decision walks over the whole week are timed along
// with the replay. CI holds seasonal, which slides four windows, to <= 8x
// oracle-max, and linear-trend, which slides its least-squares sums and
// decides most consults from their rounding enclosure, to <= 20x.
void BM_SimulatorWeekNoisyPredictor(benchmark::State& state,
                                    const std::string& predictor) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const Simulator simulator(d->candidates());
  const LoadTrace trace = noisy_week_trace();
  const std::string name = "app";
  for (auto _ : state) {
    BmlScheduler scheduler(d, make_predictor(predictor, {}, 1));
    const std::vector<Simulator::WorkloadView> views{Simulator::WorkloadView{
        &name, &trace, &scheduler, QosClass::kTolerant, 1.0}};
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyPredictor, oracle-max,
                  std::string("oracle-max"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyPredictor, moving-max,
                  std::string("moving-max"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyPredictor, seasonal,
                  std::string("seasonal"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyPredictor, last-value,
                  std::string("last-value"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyPredictor, linear-trend,
                  std::string("linear-trend"))
    ->Unit(benchmark::kMillisecond);

// The event-driven noisy week under the schedulers with call history, a
// fresh one every iteration, as the registry builds them over the oracle:
// hysteresis bounds itself by its inner BML scheduler and its hold;
// cost-aware, and BML over the stateful EWMA predictor, are consulted
// every second.
void BM_SimulatorWeekNoisyScheduler(benchmark::State& state,
                                    const std::string& scheduler_name,
                                    const std::string& predictor) {
  auto d = std::make_shared<BmlDesign>(BmlDesign::build(real_catalog()));
  const Simulator simulator(d->candidates());
  const LoadTrace trace = noisy_week_trace();
  const std::string name = "app";
  for (auto _ : state) {
    const std::unique_ptr<Scheduler> scheduler =
        make_scheduler(scheduler_name, {}, d, make_predictor(predictor, {}, 1),
                       QosClass::kTolerant);
    const std::vector<Simulator::WorkloadView> views{Simulator::WorkloadView{
        &name, &trace, scheduler.get(), QosClass::kTolerant, 1.0}};
    benchmark::DoNotOptimize(simulator.run(views));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyScheduler, hysteresis,
                  std::string("hysteresis"), std::string("oracle-max"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyScheduler, cost-aware,
                  std::string("cost-aware"), std::string("oracle-max"))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulatorWeekNoisyScheduler, bml-ewma,
                  std::string("bml"), std::string("ewma"))
    ->Unit(benchmark::kMillisecond);

// The steady week with an active runtime fault model (machine crashes
// roughly every couple of hours, ~15 min mean repairs): every failure and
// repair is a first-class fast-path event plus a self-healing
// reconfiguration, so this tracks the span-batching overhead of the
// availability subsystem against BM_SimulatorWeekSteadyEventDriven.
void BM_SimulatorWeekFaulty(benchmark::State& state) {
  SimulatorOptions options;
  options.faults.mtbf = 7200.0;
  options.faults.mttr = 900.0;
  options.faults.seed = 7;
  replay_week(state, steady_week_trace(), /*event_driven=*/true, options);
}
BENCHMARK(BM_SimulatorWeekFaulty)->Unit(benchmark::kMillisecond);

// The steady week under the full resilience stack: correlated rack
// strikes (each felling a whole stripe of the fleet in one event) on top
// of per-machine faults, with a crew-limited repair queue stretching
// outages. Group events bound fast-path spans exactly like machine
// transitions; CI holds the event-driven path to >= 10x the reference
// loop on this pair.
SimulatorOptions correlated_fault_options() {
  SimulatorOptions options;
  options.faults.mtbf = 7200.0;
  options.faults.mttr = 900.0;
  options.faults.groups = 2;
  options.faults.group_mtbf = 14400.0;
  options.faults.group_mttr = 1200.0;
  options.faults.crews = 2;
  options.faults.seed = 7;
  return options;
}

void BM_SimulatorWeekCorrelatedFaultsEventDriven(benchmark::State& state) {
  replay_week(state, steady_week_trace(), /*event_driven=*/true,
              correlated_fault_options());
}
BENCHMARK(BM_SimulatorWeekCorrelatedFaultsEventDriven)
    ->Unit(benchmark::kMillisecond);

void BM_SimulatorWeekCorrelatedFaultsReference(benchmark::State& state) {
  replay_week(state, steady_week_trace(), /*event_driven=*/false,
              correlated_fault_options());
}
BENCHMARK(BM_SimulatorWeekCorrelatedFaultsReference)
    ->Unit(benchmark::kMillisecond);

// Scenario-engine sweep throughput: an 8-point grid (scheduler x predictor
// x QoS) over a short step trace, at 1 worker vs hardware concurrency.
// items_per_second is scenarios/sec, the number that bounds how large a
// campaign bmlsim can expand per CPU-hour.
void BM_SweepThroughput(benchmark::State& state) {
  ScenarioSpec spec;
  spec.name = "bench";
  spec.trace = "step";
  spec.trace_params["segments"] = "200:900;2100:900;100:900";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "reactive"}});
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "moving-max"}});
  spec.sweeps.push_back(SweepAxis{"qos", {"tolerant", "critical"}});
  SweepOptions options;
  options.threads = static_cast<unsigned>(state.range(0));
  std::size_t scenarios = 0;
  for (auto _ : state) {
    const SweepReport report = run_sweep(spec, options);
    scenarios += report.rows.size();
    benchmark::DoNotOptimize(report.rows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(scenarios));
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(0)  // 0 = hardware concurrency
    ->Unit(benchmark::kMillisecond);

// Sweep throughput when the shared-build cache engages: none of the axes
// touch catalog / design / trace / seed inputs, so the CombinationTable,
// DispatchPlan and indexed trace are built once for the whole 12-point
// grid instead of once per scenario. A noisy day-long trace makes the
// per-scenario build the dominant cost the cache removes.
void BM_SweepSharedBuildThroughput(benchmark::State& state) {
  ScenarioSpec spec;
  spec.name = "bench-shared";
  spec.trace = "worldcup_like";
  spec.trace_params["days"] = "1";
  spec.trace_params["peak"] = "2500";
  spec.trace_params["tournament_start_day"] = "0";
  spec.trace_params["tournament_end_day"] = "1";
  spec.sweeps.push_back(SweepAxis{"scheduler", {"bml", "reactive", "per-day"}});
  spec.sweeps.push_back(SweepAxis{"predictor", {"oracle-max", "moving-max"}});
  spec.sweeps.push_back(SweepAxis{"qos", {"tolerant", "critical"}});
  SweepOptions options;
  options.threads = 1;
  std::size_t scenarios = 0;
  for (auto _ : state) {
    const SweepReport report = run_sweep(spec, options);
    scenarios += report.rows.size();
    benchmark::DoNotOptimize(report.rows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(scenarios));
}
BENCHMARK(BM_SweepSharedBuildThroughput)->Unit(benchmark::kMillisecond);

// Raw engine words: Rng's MT19937-64 against std::mt19937_64, which
// produces the same words, in the same loop. Rng's words are read through
// the full-range uniform_int (word + 2^63), so the baseline adds 2^63 too.
template <class NextWord>
void engine_words(benchmark::State& state, NextWord next_word) {
  constexpr int kWordsPerIteration = 4096;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (int i = 0; i < kWordsPerIteration; ++i) sum += next_word();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kWordsPerIteration);
}

void BM_RngWords(benchmark::State& state) {
  Rng rng(1998);
  engine_words(state, [&] {
    return static_cast<std::uint64_t>(rng.uniform_int(INT64_MIN, INT64_MAX));
  });
}
BENCHMARK(BM_RngWords);

void BM_StdMt19937_64Words(benchmark::State& state) {
  std::mt19937_64 engine(1998);
  engine_words(state, [&] { return engine() + (std::uint64_t{1} << 63); });
}
BENCHMARK(BM_StdMt19937_64Words);

// Generation plus the LoadTrace indexing it returns through. At 87 days
// (the default, seed 1998) this is the Fig. 5 trace as shipped in
// examples/specs/fig5_worldcup.scn: mostly Poisson and normal draws.
void BM_WorldCupTraceGeneration(benchmark::State& state) {
  WorldCupOptions options;
  options.days = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(worldcup_like_trace(options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(options.days) * 86400);
}
BENCHMARK(BM_WorldCupTraceGeneration)->Arg(1)->Arg(7)->Arg(87)
    ->Unit(benchmark::kMillisecond);

// How *this binary* was compiled. google-benchmark's own
// `library_build_type` context key reports how the (system) benchmark
// library was built, which says nothing about the code under test —
// bench/run_bench.sh asserts on this key instead before recording
// BENCH_micro.json.
#if defined(NDEBUG) && (defined(__OPTIMIZE__) || defined(_MSC_VER))
constexpr const char kBmlBuildType[] = "release";
#else
constexpr const char kBmlBuildType[] = "debug";
#endif

/// Collects every run a RunSpecifiedBenchmarks call reports, for the
/// paired mode below.
class PairReporter : public benchmark::BenchmarkReporter {
 public:
  struct Reading {
    std::string name;
    double real_seconds;  // per iteration
    double items_per_second;
  };

  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const auto items = run.counters.find("items_per_second");
      readings.push_back(
          {run.benchmark_name(),
           run.real_accumulated_time / static_cast<double>(run.iterations),
           items == run.counters.end() ? 0.0 : items->second.value});
      std::fprintf(stderr, "%-52s %12.6f ms\n", readings.back().name.c_str(),
                   readings.back().real_seconds * 1e3);
    }
  }

  std::vector<Reading> readings;
};

/// Paired mode, `--abba=NUM,DEN`: times the two named benchmarks
/// alternately in this one process, NUM DEN DEN NUM per round for
/// kAbbaRounds rounds, each a full google-benchmark run, and prints the
/// readings in run order as JSON on stdout. Adjacent readings form a pair,
/// so the host's drift between phases cancels out of each pair's ratio;
/// bench/gates.py checks the median of those ratios.
constexpr int kAbbaRounds = 5;

int run_abba(const std::string& pair) {
  const std::size_t comma = pair.find(',');
  if (comma == std::string::npos) {
    std::fprintf(stderr, "bench_micro: --abba wants NUM,DEN\n");
    return 2;
  }
  const std::string names[2] = {pair.substr(0, comma),
                                pair.substr(comma + 1)};
  PairReporter reporter;
  for (int r = 0; r < kAbbaRounds; ++r) {
    for (const int which : {0, 1, 1, 0}) {
      const std::size_t before = reporter.readings.size();
      benchmark::RunSpecifiedBenchmarks(&reporter,
                                        "^" + names[which] + "$");
      if (reporter.readings.size() != before + 1) {
        std::fprintf(stderr, "bench_micro: --abba: '%s' names no single "
                             "benchmark\n", names[which].c_str());
        return 2;
      }
    }
  }
  std::printf("{\"readings\": [");
  for (std::size_t i = 0; i < reporter.readings.size(); ++i) {
    const PairReporter::Reading& x = reporter.readings[i];
    std::printf("%s\n  {\"name\": \"%s\", \"real_time_s\": %.9g, "
                "\"items_per_second\": %.9g}",
                i == 0 ? "" : ",", x.name.c_str(), x.real_seconds,
                x.items_per_second);
  }
  std::printf("\n]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // The paired mode's own flag, taken out before the unknown-flag check.
  std::string abba;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--abba=", 0) == 0) {
      abba = arg.substr(7);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("bml_build_type", kBmlBuildType);
  int status = 0;
  if (abba.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    status = run_abba(abba);
  }
  benchmark::Shutdown();
  return status;
}
