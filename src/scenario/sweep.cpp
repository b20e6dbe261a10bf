#include "scenario/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "scenario/registry.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace bml {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

ReqRate design_max_rate(const ScenarioSpec& spec,
                        const std::vector<const LoadTrace*>& traces) {
  if (spec.design_max_rate == "trace-peak") {
    // The shared cluster is designed for the aggregate demand: the peak
    // of the element-wise trace sum. A single app sums to its own trace,
    // which keeps single-app sizing bit-identical to the pre-multi-tenant
    // engine.
    const ReqRate peak = traces.size() == 1 ? traces.front()->peak()
                                            : combined_trace(traces).peak();
    return std::max(peak, 1.0);
  }
  if (spec.design_max_rate == "default") return 0.0;
  return parse_double(spec.design_max_rate);
}

/// Applies one grid point to a copy of the base spec and names it after
/// its coordinates.
ScenarioSpec grid_point(const ScenarioSpec& base,
                        const std::vector<std::string>& values) {
  ScenarioSpec spec = base;
  spec.sweeps.clear();
  std::string suffix;
  for (std::size_t a = 0; a < base.sweeps.size(); ++a) {
    spec.set(base.sweeps[a].key, values[a]);
    suffix += (a == 0 ? "[" : ",") + base.sweeps[a].key + "=" + values[a];
  }
  if (!suffix.empty()) spec.name += suffix + "]";
  return spec;
}

/// Axis values of grid index `i`, first axis outermost.
std::vector<std::string> grid_values(const ScenarioSpec& spec,
                                     std::size_t i) {
  std::vector<std::string> values(spec.sweeps.size());
  std::size_t stride = 1;
  for (std::size_t a = spec.sweeps.size(); a-- > 0;) {
    const std::vector<std::string>& axis = spec.sweeps[a].values;
    values[a] = axis[(i / stride) % axis.size()];
    stride *= axis.size();
  }
  return values;
}

std::size_t grid_size(const ScenarioSpec& spec) {
  std::size_t n = 1;
  for (const SweepAxis& axis : spec.sweeps) n *= axis.values.size();
  return n;
}

/// True when a sweep axis addresses a trace field — top-level
/// (`trace`, `trace.*`) or app-scoped (`app<i>.trace`, `app<i>.trace.*`)
/// — i.e. an axis a shared trace would silently override.
bool is_trace_axis(const std::string& key) {
  std::string_view k = key;
  if (k.starts_with("app")) {
    std::size_t pos = 3;
    while (pos < k.size() && k[pos] >= '0' && k[pos] <= '9') ++pos;
    if (pos > 3 && pos < k.size() && k[pos] == '.') k.remove_prefix(pos + 1);
  }
  return k == "trace" || k.starts_with("trace.");
}

}  // namespace

namespace {

/// Per-app random stream derived from the master seed (golden-ratio
/// stepping), otherwise identically-configured tenants would replay
/// byte-identical noise and bias colocation results. App 0 keeps the
/// master seed itself, which pins single-[app] equivalence; per-section
/// `trace.seed` / `predictor.error_seed` still override. Masked to 63
/// bits: seeds round-trip through the registry's non-negative integer
/// parameters.
std::uint64_t app_seed(const ScenarioSpec& spec, std::size_t i) {
  return (spec.seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i)) &
         0x7FFF'FFFF'FFFF'FFFFULL;
}

/// The fault model a spec configures — what the simulator runs with, and
/// whose runtime_active() / group_active() gate the fault CSV columns.
FaultModel fault_model(const ScenarioSpec& spec) {
  FaultModel faults;
  faults.boot_time_jitter = spec.boot_time_jitter;
  faults.boot_failure_prob = spec.boot_failure_prob;
  faults.mtbf = spec.fault_mtbf;
  faults.mttr = spec.fault_mttr;
  faults.groups = spec.fault_groups;
  faults.group_mtbf = spec.fault_group_mtbf;
  faults.group_mttr = spec.fault_group_mttr;
  faults.crews = spec.fault_crews;
  faults.seed = spec.fault_seed >= 0
                    ? static_cast<std::uint64_t>(spec.fault_seed)
                    : spec.seed;
  return faults;
}

/// Effective app list: the `[app]` sections, or the classic single app
/// described by the top-level trace / scheduler / predictor / qos fields.
/// Sections with `replicas = N` are stamped out N times — each copy gets
/// its own expanded index (and thus its own app_seed-derived trace /
/// predictor noise) and an indexed name suffix; a shared fault_domain
/// name keeps the copies in one domain.
std::vector<AppSpec> effective_apps(const ScenarioSpec& spec) {
  std::vector<AppSpec> raw;
  if (!spec.apps.empty()) {
    raw = spec.apps;
  } else {
    AppSpec app;
    app.trace = spec.trace;
    app.trace_params = spec.trace_params;
    app.scheduler = spec.scheduler;
    app.scheduler_params = spec.scheduler_params;
    app.predictor = spec.predictor;
    app.predictor_params = spec.predictor_params;
    app.qos = spec.qos;
    app.slo_availability = spec.slo_availability;
    app.slo_spare = spec.slo_spare;
    app.priority = spec.priority;
    raw.push_back(std::move(app));
  }
  bool expand = false;
  for (const AppSpec& app : raw)
    if (app.replicas > 1) expand = true;
  if (!expand) return raw;
  std::size_t total = 0;
  for (const AppSpec& app : raw)
    total += static_cast<std::size_t>(app.replicas);
  std::vector<AppSpec> out;
  out.reserve(total);
  for (const AppSpec& app : raw) {
    if (app.replicas == 1) {
      out.push_back(app);
      continue;
    }
    for (int r = 0; r < app.replicas; ++r) {
      AppSpec copy = app;
      copy.replicas = 1;
      if (!copy.name.empty()) {
        copy.name += '-';
        copy.name += std::to_string(r);
      }
      out.push_back(std::move(copy));
    }
  }
  return out;
}

/// Exponential whole-second draw, >= 1 s — the same transform the fault
/// timeline uses, so churn gaps and lifetimes follow the repo-wide idiom.
/// State-independent: each draw consumes exactly one uniform, so the
/// stream is a pure function of (seed, draw index) and results are
/// identical across --threads values.
TimePoint churn_exponential_seconds(Rng& rng, double mean) {
  const double u = rng.uniform(0.0, 1.0);
  const double draw = std::min(-mean * std::log(1.0 - u), 1.0e15);
  return std::max<TimePoint>(1, static_cast<TimePoint>(std::ceil(draw)));
}

/// One stochastic transient tenant: active over [arrive, depart).
struct TenantClone {
  TimePoint arrive;
  TimePoint depart;
};

/// Draws the churn timeline for a spec: exponential arrival gaps of mean
/// churn.interarrival, exponential lifetimes of mean churn.lifetime,
/// stopping at the trace horizon (arrivals at or past it would never
/// serve) or at churn.max clones. The stream is salted off the churn seed
/// exactly like the fault timeline's channels, so trace / fault noise is
/// untouched by turning churn on.
std::vector<TenantClone> churn_timeline(const ScenarioSpec& spec,
                                        TimePoint horizon) {
  std::vector<TenantClone> clones;
  const std::uint64_t base = spec.churn_seed >= 0
                                 ? static_cast<std::uint64_t>(spec.churn_seed)
                                 : spec.seed;
  Rng rng(base + 0x9E3779B97F4A7C15ULL * 0x636875726EULL);  // "churn"
  TimePoint at = 0;
  while (true) {
    at += churn_exponential_seconds(rng, spec.churn_interarrival);
    if (at >= horizon) break;
    clones.push_back(
        TenantClone{at, at + churn_exponential_seconds(rng, spec.churn_lifetime)});
    if (spec.churn_max > 0 &&
        clones.size() >= static_cast<std::size_t>(spec.churn_max))
      break;
  }
  return clones;
}

/// The expensive immutable artifacts of a scenario: catalog, traces (each
/// with its run-length index), the design (with its CombinationTable /
/// DecisionThresholds), and the dispatch plan. Everything here is
/// read-only after construction, so a sweep whose axes don't touch the
/// inputs of any of these builds one ScenarioBuild and shares it across
/// all grid points and worker threads; the remaining per-scenario state
/// (schedulers, predictors, cluster, meters) is constructed per run.
struct ScenarioBuild {
  // `traces` points into `own_traces` (or at the caller's shared trace):
  // copying or moving would dangle it, so neither is allowed.
  ScenarioBuild(const ScenarioBuild&) = delete;
  ScenarioBuild& operator=(const ScenarioBuild&) = delete;

  ScenarioBuild(const ScenarioSpec& spec, const LoadTrace* shared_trace) {
    catalog = make_catalog(spec.catalog, spec.catalog_params);
    const std::vector<AppSpec> apps = effective_apps(spec);
    if (shared_trace && apps.size() > 1)
      throw std::runtime_error(
          "run_scenario: a shared trace requires a single-workload spec");

    traces.resize(apps.size());
    if (shared_trace) {
      traces[0] = shared_trace;
    } else {
      // Identical traces are materialised once: replica expansion stamps
      // out whole groups whose generators ignore the per-app seed, and a
      // fleet of thousands of tenants must not hold thousands of copies
      // of the same day-long sample buffer and run index. The FNV hash
      // only shortlists candidates; sharing requires an exact
      // sample-for-sample match, so aliasing distinct traces is
      // impossible. A single-app build has nothing to share and skips
      // the hash.
      own_traces.reserve(apps.size());
      const bool dedup = apps.size() > 1;
      std::map<std::uint64_t, std::vector<std::size_t>> by_hash;
      for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto generate_start = std::chrono::steady_clock::now();
        LoadTrace t =
            make_trace(apps[i].trace, apps[i].trace_params, app_seed(spec, i));
        phases.generate += elapsed_seconds(generate_start);
        if (!dedup) {
          own_traces.push_back(std::move(t));
          traces[i] = &own_traces.back();
          continue;
        }
        const auto dedup_start = std::chrono::steady_clock::now();
        const std::span<const double> v = t.series().values();
        std::uint64_t h =
            1469598103934665603ULL ^ static_cast<std::uint64_t>(v.size());
        for (const double x : v) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &x, sizeof bits);
          h = (h ^ bits) * 1099511628211ULL;
        }
        std::size_t found = apps.size();
        for (const std::size_t j : by_hash[h]) {
          const std::span<const double> w = own_traces[j].series().values();
          if (w.size() == v.size() &&
              std::equal(v.begin(), v.end(), w.begin())) {
            found = j;
            break;
          }
        }
        if (found == apps.size()) {
          own_traces.push_back(std::move(t));
          found = own_traces.size() - 1;
          by_hash[h].push_back(found);
        }
        traces[i] = &own_traces[found];
        phases.dedup += elapsed_seconds(dedup_start);
      }
    }

    const auto design_start = std::chrono::steady_clock::now();
    BmlDesignOptions design_options;
    design_options.max_rate = design_max_rate(spec, traces);
    design_options.solver = spec.design_solver == "exact-dp"
                                ? SolverKind::kExactDp
                                : SolverKind::kGreedyThreshold;
    design =
        std::make_shared<BmlDesign>(BmlDesign::build(catalog, design_options));
    plan = std::make_shared<DispatchPlan>(design->candidates());
    phases.design = elapsed_seconds(design_start);
  }

  Catalog catalog;
  /// Distinct materialised traces (deduplicated).
  std::vector<LoadTrace> own_traces;
  /// Per-app pointers into the distinct storage (or the shared trace) —
  /// parallel to the app list; replicas of one config share one target.
  std::vector<const LoadTrace*> traces;
  std::shared_ptr<const BmlDesign> design;
  std::shared_ptr<const DispatchPlan> plan;
  /// Wall time of this build's phases (the catalog is not timed).
  BuildPhases phases;
};

/// Executes `spec` over a (possibly shared) prebuilt ScenarioBuild. Only
/// per-scenario state is constructed here; `start` is when this scenario's
/// work began (including its build when it was not shared).
ScenarioResult run_built(const ScenarioSpec& spec, const ScenarioBuild& build,
                         std::chrono::steady_clock::time_point start) {
  ScenarioResult result;
  result.spec = spec;

  const std::vector<AppSpec> apps = effective_apps(spec);
  // `priority` ranks colocated tenants against each other; on a
  // single-workload spec under the sum coordinator there is nothing to
  // rank and no budget to trim, so a configured class is a spec error
  // rather than a silent no-op.
  if (apps.size() == 1 && apps[0].priority != 0 && spec.coordinator == "sum")
    throw std::runtime_error(
        "scenario: priority = " + std::to_string(apps[0].priority) +
        " has no effect on a single-workload spec with coordinator = sum; "
        "priority ranks colocated [app] sections");

  // Stochastic tenant churn: a runtime-only expansion (the shared build
  // is untouched — clones alias the template's built trace, and the
  // design stays sized for the declared tenants, which is exactly what a
  // churn-aware coordinator must cope with).
  const bool churn_on =
      spec.churn_interarrival > 0.0 || spec.churn_lifetime > 0.0;
  std::size_t churn_tmpl = 0;
  std::vector<TenantClone> clones;
  if (churn_on) {
    if (!(spec.churn_interarrival > 0.0) || !(spec.churn_lifetime > 0.0))
      throw std::runtime_error(
          "scenario: churn.interarrival and churn.lifetime must be set "
          "together");
    const std::size_t sections = spec.apps.empty() ? 1 : spec.apps.size();
    if (static_cast<std::size_t>(spec.churn_template) >= sections)
      throw std::runtime_error(
          "scenario: churn.template = " + std::to_string(spec.churn_template) +
          " but the spec declares " + std::to_string(sections) +
          " [app] section(s)");
    // churn.template addresses the raw [app] section; replicas expansion
    // maps it to the section's first effective app.
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(spec.churn_template); ++k)
      churn_tmpl += static_cast<std::size_t>(spec.apps[k].replicas);
    TimePoint horizon = 0;
    for (const LoadTrace* t : build.traces)
      horizon = std::max(horizon, static_cast<TimePoint>(t->size()));
    clones = churn_timeline(spec, horizon);
  }
  const std::size_t total = apps.size() + clones.size();

  std::vector<std::string> names(total);
  for (std::size_t i = 0; i < apps.size(); ++i)
    names[i] =
        apps[i].name.empty() ? "app" + std::to_string(i) : apps[i].name;
  for (std::size_t j = 0; j < clones.size(); ++j)
    names[apps.size() + j] = names[churn_tmpl] + "+c" + std::to_string(j);

  std::vector<QosClass> qos(total);
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.reserve(total);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    qos[i] = parse_qos_class(apps[i].qos);
    std::shared_ptr<Predictor> predictor = make_predictor(
        apps[i].predictor, apps[i].predictor_params, app_seed(spec, i));
    schedulers.push_back(make_scheduler(apps[i].scheduler,
                                        apps[i].scheduler_params, build.design,
                                        std::move(predictor), qos[i]));
  }
  for (std::size_t j = 0; j < clones.size(); ++j) {
    // Clones get fresh scheduler/predictor instances with their own
    // derived seeds (continuing the app_seed index space past the
    // declared tenants), exactly like replica expansion.
    const AppSpec& tmpl = apps[churn_tmpl];
    const std::size_t idx = apps.size() + j;
    qos[idx] = parse_qos_class(tmpl.qos);
    std::shared_ptr<Predictor> predictor = make_predictor(
        tmpl.predictor, tmpl.predictor_params, app_seed(spec, idx));
    schedulers.push_back(make_scheduler(tmpl.scheduler, tmpl.scheduler_params,
                                        build.design, std::move(predictor),
                                        qos[idx]));
  }

  SimulatorOptions options;
  options.graceful_off = spec.graceful_off;
  options.event_driven = spec.event_driven;
  options.coordinator = parse_coordinator_mode(spec.coordinator);
  options.coordinator_budget = spec.coordinator_budget == "design-max"
                                   ? build.design->max_rate()
                                   : parse_double(spec.coordinator_budget);
  options.faults = fault_model(spec);
  options.slo_window = spec.slo_window;
  options.degrade.overload_factor = spec.degrade_overload_factor;
  options.degrade.penalty = spec.degrade_penalty;
  options.collect_metrics = spec.obs_metrics;
  options.record_timeline = spec.obs_trace;
  options.timeline_sample_every = static_cast<std::size_t>(spec.obs_sample);

  const Simulator simulator(build.design->candidates(), build.plan, options);
  std::vector<Simulator::WorkloadView> views;
  views.reserve(total);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    Simulator::WorkloadView view{
        &names[i], build.traces[i], schedulers[i].get(), qos[i],
        apps[i].share, &apps[i].fault_domain};
    view.slo_availability = apps[i].slo_availability;
    view.slo_spare = apps[i].slo_spare;
    view.priority = apps[i].priority;
    view.arrive = apps[i].arrive;
    view.depart = apps[i].depart;
    views.push_back(view);
  }
  for (std::size_t j = 0; j < clones.size(); ++j) {
    const AppSpec& tmpl = apps[churn_tmpl];
    const std::size_t idx = apps.size() + j;
    Simulator::WorkloadView view{
        &names[idx], build.traces[churn_tmpl], schedulers[idx].get(),
        qos[idx], tmpl.share, &tmpl.fault_domain};
    view.slo_availability = tmpl.slo_availability;
    view.slo_spare = tmpl.slo_spare;
    view.priority = tmpl.priority;
    view.arrive = clones[j].arrive;
    view.depart = clones[j].depart;
    views.push_back(view);
  }
  MultiSimulationResult multi = simulator.run(views);
  result.sim = std::move(multi.total);
  result.apps = std::move(multi.apps);
  for (const LoadTrace* t : build.traces)
    result.trace_duration = std::max(result.trace_duration, t->duration());
  result.wall_seconds = elapsed_seconds(start);
  return result;
}

/// True when a sweep axis addresses an input of ScenarioBuild — catalog or
/// design parameters, the master seed (trace generation and fault noise
/// derive from it), or any trace field. Such an axis forces per-scenario
/// builds; every other axis (scheduler, predictor, qos, coordinator,
/// fault knobs, app shares, ...) leaves the build shareable. The fault
/// model is seed-bearing but runtime-only — `faults.*` axes (including
/// `faults.seed`) never touch the catalog / traces / design, so the
/// shared build stays correct under fault sweeps; only the master `seed`
/// axis (which fault seeds default to) blocks sharing, because it also
/// feeds trace generation.
bool axis_blocks_shared_build(const std::string& key) {
  return key == "catalog" || key.starts_with("catalog.") ||
         key.starts_with("design.") || key == "seed" || is_trace_axis(key);
}

/// `spec` as its replay reads it: without its name, and without the
/// predictor keys of each workload whose scheduler ignores its predictor.
/// Grid points with equal replay specs replay identically.
ScenarioSpec replay_spec(ScenarioSpec spec) {
  spec.name.clear();
  const auto drop_unread = [](const std::string& scheduler,
                              std::string& predictor,
                              std::map<std::string, std::string>& params) {
    if (scheduler_reads_predictor(scheduler)) return;
    predictor.clear();
    params.clear();
  };
  drop_unread(spec.scheduler, spec.predictor, spec.predictor_params);
  for (AppSpec& app : spec.apps)
    drop_unread(app.scheduler, app.predictor, app.predictor_params);
  return spec;
}

/// Builds every predictor of `spec` that its scheduler ignores, so that a
/// copied row still rejects a malformed predictor its replay would have
/// built.
void check_unread_predictors(const ScenarioSpec& spec) {
  for (const AppSpec& app : effective_apps(spec))
    if (!scheduler_reads_predictor(app.scheduler))
      (void)make_predictor(app.predictor, app.predictor_params,
                           app_seed(spec, 0));
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  const ScenarioBuild build(spec, nullptr);
  return run_built(spec, build, start);
}

ConfiguredChannels configured_channels(const ScenarioSpec& spec) {
  const FaultModel faults = fault_model(spec);
  ConfiguredChannels on;
  on.faults = faults.runtime_active();
  on.groups = faults.group_active();
  on.degrade = spec.degrade_overload_factor > 0.0;
  on.churn = spec.churn_interarrival > 0.0 && spec.churn_lifetime > 0.0;
  const std::vector<AppSpec> apps = effective_apps(spec);
  for (const AppSpec& app : apps) {
    on.slo = on.slo || app.slo_availability > 0.0;
    on.priority = on.priority || app.priority != apps.front().priority;
    on.churn = on.churn || app.arrive > 0 || app.depart >= 0;
  }
  return on;
}

std::vector<ScenarioSpec> expand_sweep(const ScenarioSpec& spec) {
  const std::size_t n = grid_size(spec);
  std::vector<ScenarioSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(grid_point(spec, grid_values(spec, i)));
  return out;
}

SweepReport run_sweep(const ScenarioSpec& spec, const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  SweepReport report;
  report.threads =
      options.threads == 0 ? default_parallelism() : options.threads;
  for (const SweepAxis& axis : spec.sweeps) {
    if (options.shared_trace && is_trace_axis(axis.key))
      throw std::runtime_error(
          "run_sweep: axis '" + axis.key +
          "' conflicts with the shared trace (every scenario replays it)");
    // With [app] sections the top-level workload fields are ignored —
    // sweeping one would expand a grid whose rows are all identical.
    if (!spec.apps.empty())
      // slo.window stays global; slo.availability / slo.spare / priority
      // are per-workload like the trace / scheduler stack.
      for (const char* ignored :
           {"trace", "scheduler", "predictor", "qos", "slo.availability",
            "slo.spare", "priority"})
        if (axis.key == ignored ||
            axis.key.starts_with(std::string(ignored) + "."))
          throw std::runtime_error(
              "run_sweep: axis '" + axis.key +
              "' addresses the top-level workload fields, which [app] "
              "sections replace; sweep app<i>." +
              axis.key + " instead");
    report.axis_keys.push_back(axis.key);
  }

  const std::size_t n = grid_size(spec);
  report.rows.resize(n);

  // Build caching: when no axis touches a catalog / design / trace / seed
  // input, every grid point needs the exact same catalog, traces, design
  // (CombinationTable + DecisionThresholds) and dispatch plan — build
  // them once here and share the immutable result across all worker
  // threads instead of rebuilding per scenario. Axes that do touch build
  // inputs fall back to the per-scenario build.
  bool shareable = true;
  for (const SweepAxis& axis : spec.sweeps)
    if (axis_blocks_shared_build(axis.key)) shareable = false;
  std::optional<ScenarioBuild> shared_build;
  if (shareable) shared_build.emplace(spec, options.shared_trace);

  // The first grid point of each group of equal replay specs runs; the
  // others copy its row once every group has run.
  std::vector<ScenarioSpec> points = expand_sweep(spec);
  std::vector<std::size_t> runs;  // grid indices that replay
  std::vector<ScenarioSpec> run_specs;  // their replay specs
  std::vector<std::size_t> source(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScenarioSpec key = replay_spec(points[i]);
    const auto group = static_cast<std::size_t>(
        std::find(run_specs.begin(), run_specs.end(), key) -
        run_specs.begin());
    if (group == runs.size()) {
      runs.push_back(i);
      run_specs.push_back(std::move(key));
    }
    source[i] = runs[group];
  }

  std::vector<BuildPhases> own_phases(runs.size());
  parallel_for(
      runs.size(),
      [&](std::size_t r) {
        const std::size_t i = runs[r];
        const auto scenario_start = std::chrono::steady_clock::now();
        std::optional<ScenarioBuild> own;
        if (!shared_build) own.emplace(points[i], options.shared_trace);
        ScenarioResult result = run_built(
            points[i], shared_build ? *shared_build : *own, scenario_start);
        if (own) own_phases[r] = own->phases;
        SimMetrics shard = std::exchange(result.sim.metrics, SimMetrics{});
        report.rows[i] = SweepRow{std::move(result), grid_values(spec, i),
                                  std::nullopt, std::move(shard)};
      },
      report.threads);

  for (std::size_t i = 0; i < n; ++i) {
    if (source[i] == i) continue;
    const auto copy_start = std::chrono::steady_clock::now();
    check_unread_predictors(points[i]);
    SweepRow row = report.rows[source[i]];
    row.spec = std::move(points[i]);
    row.axis_values = grid_values(spec, i);
    row.copy_of = source[i];
    row.wall_seconds = elapsed_seconds(copy_start);
    report.rows[i] = std::move(row);
  }

  report.builds = shareable ? (n > 0 ? 1 : 0) : n;
  report.build_cache_reuses = shareable && n > 0 ? n - 1 : 0;
  const auto add_phases = [&](const BuildPhases& p) {
    report.build_phases.generate += p.generate;
    report.build_phases.dedup += p.dedup;
    report.build_phases.design += p.design;
  };
  if (shared_build) add_phases(shared_build->phases);
  for (const BuildPhases& p : own_phases) add_phases(p);
  // Fold the per-row metric shards sequentially in grid index order:
  // deterministic and thread-count-independent, unlike any merge done
  // inside the parallel region would be.
  SimMetrics merged;
  for (const SweepRow& row : report.rows) merged.merge(row.metrics);
  merged.export_to(report.metrics);
  if (merged.enabled) {
    report.metrics.add_counter("sweep.scenarios", n);
    report.metrics.add_counter("sweep.build_cache.hits",
                               report.build_cache_reuses);
    report.metrics.add_counter("sweep.build_cache.misses", report.builds);
  }

  report.wall_seconds = elapsed_seconds(start);
  return report;
}

namespace {

/// CSV cells: names verbatim, integers in full, reals with the 12
/// significant digits CsvWriter uses.
std::string cell(const std::string& text) { return text; }
std::string cell(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}
template <std::integral T>
std::string cell(T v) {
  return std::to_string(v);
}

/// One CSV column: its name, the ConfiguredChannels flag that gates it
/// (null = always present), and its cell formatter.
template <typename Source>
struct Column {
  const char* name;
  bool ConfiguredChannels::*gate;
  std::string (*format)(const Source&);
};

/// Cluster-wide columns, after `scenario` and the axis columns.
/// `scheduler_name` is the resolved Scheduler::name() (e.g.
/// "bml(oracle-max)"), distinct from a possible `scheduler` axis column.
const Column<SweepRow> kClusterColumns[] = {
    {"scheduler_name", nullptr,
     [](const SweepRow& r) { return cell(r.sim.scheduler_name); }},
    {"total_energy_j", nullptr,
     [](const SweepRow& r) { return cell(r.sim.total_energy()); }},
    {"compute_energy_j", nullptr,
     [](const SweepRow& r) { return cell(r.sim.compute_energy); }},
    {"reconfiguration_energy_j", nullptr,
     [](const SweepRow& r) { return cell(r.sim.reconfiguration_energy); }},
    {"reconfigurations", nullptr,
     [](const SweepRow& r) { return cell(r.sim.reconfigurations); }},
    {"qos_violation_s", nullptr,
     [](const SweepRow& r) { return cell(r.sim.qos.violation_seconds); }},
    {"served_fraction", nullptr,
     [](const SweepRow& r) { return cell(r.sim.qos.served_fraction()); }},
    {"mean_power_w", nullptr,
     [](const SweepRow& r) { return cell(r.mean_power()); }},
    {"peak_machines", nullptr,
     [](const SweepRow& r) { return cell(r.sim.peak_machines); }},
    {"machine_failures", &ConfiguredChannels::faults,
     [](const SweepRow& r) { return cell(r.sim.machine_failures); }},
    {"availability", &ConfiguredChannels::faults,
     [](const SweepRow& r) { return cell(r.sim.availability); }},
    {"lost_capacity_req_s", &ConfiguredChannels::faults,
     [](const SweepRow& r) { return cell(r.sim.lost_capacity); }},
    {"group_strikes", &ConfiguredChannels::groups,
     [](const SweepRow& r) { return cell(r.sim.group_strikes); }},
    {"spare_seconds", &ConfiguredChannels::slo,
     [](const SweepRow& r) { return cell(r.sim.spare_seconds); }},
    {"spare_energy_j", &ConfiguredChannels::slo,
     [](const SweepRow& r) { return cell(r.sim.spare_energy); }},
    {"overload_seconds", &ConfiguredChannels::degrade,
     [](const SweepRow& r) { return cell(r.sim.overload_seconds); }},
    {"penalty_lost_req_s", &ConfiguredChannels::degrade,
     [](const SweepRow& r) { return cell(r.sim.penalty_lost_capacity); }},
    {"preemptions", &ConfiguredChannels::priority,
     [](const SweepRow& r) { return cell(r.sim.preemptions); }},
    {"arrivals", &ConfiguredChannels::churn,
     [](const SweepRow& r) { return cell(r.sim.arrivals); }},
    {"departures", &ConfiguredChannels::churn,
     [](const SweepRow& r) { return cell(r.sim.departures); }},
};

/// Per-app columns, repeated as app<i>_<name> for every app slot.
const Column<WorkloadResult> kAppColumns[] = {
    {"name", nullptr, [](const WorkloadResult& a) { return cell(a.name); }},
    {"compute_energy_j", nullptr,
     [](const WorkloadResult& a) { return cell(a.compute_energy); }},
    {"reconfiguration_energy_j", nullptr,
     [](const WorkloadResult& a) { return cell(a.reconfiguration_energy); }},
    {"qos_violation_s", nullptr,
     [](const WorkloadResult& a) {
       return cell(a.qos_stats.violation_seconds);
     }},
    {"served_fraction", nullptr,
     [](const WorkloadResult& a) {
       return cell(a.qos_stats.served_fraction());
     }},
    {"availability", &ConfiguredChannels::faults,
     [](const WorkloadResult& a) { return cell(a.availability); }},
    {"lost_capacity_req_s", &ConfiguredChannels::faults,
     [](const WorkloadResult& a) { return cell(a.lost_capacity); }},
    {"spare_seconds", &ConfiguredChannels::slo,
     [](const WorkloadResult& a) { return cell(a.spare_seconds); }},
    {"spare_energy_j", &ConfiguredChannels::slo,
     [](const WorkloadResult& a) { return cell(a.spare_energy); }},
    {"overload_seconds", &ConfiguredChannels::degrade,
     [](const WorkloadResult& a) { return cell(a.overload_seconds); }},
    {"penalty_lost_req_s", &ConfiguredChannels::degrade,
     [](const WorkloadResult& a) { return cell(a.penalty_lost_capacity); }},
    {"preempted_seconds", &ConfiguredChannels::priority,
     [](const WorkloadResult& a) { return cell(a.preempted_seconds); }},
    {"active_seconds", &ConfiguredChannels::churn,
     [](const WorkloadResult& a) { return cell(a.active_seconds); }},
};

/// The columns of `table` whose gate some row's configuration enables.
template <typename Source, std::size_t N>
std::vector<const Column<Source>*> present_columns(
    const Column<Source> (&table)[N],
    const std::vector<ConfiguredChannels>& configured) {
  std::vector<const Column<Source>*> out;
  for (const Column<Source>& column : table)
    if (column.gate == nullptr ||
        std::any_of(configured.begin(), configured.end(),
                    [&](const ConfiguredChannels& c) {
                      return c.*column.gate;
                    }))
      out.push_back(&column);
  return out;
}

}  // namespace

std::string SweepReport::to_csv() const {
  std::vector<ConfiguredChannels> configured;
  configured.reserve(rows.size());
  std::size_t max_apps = 0;
  for (const SweepRow& row : rows) {
    configured.push_back(configured_channels(row.spec));
    max_apps = std::max(max_apps, row.apps.size());
  }
  const auto cluster = present_columns(kClusterColumns, configured);
  const auto per_app = present_columns(kAppColumns, configured);
  // Single-app sweeps (including single-[app] specs) carry no app groups.
  const std::size_t app_slots = max_apps >= 2 ? max_apps : 0;

  CsvWriter writer;
  std::vector<std::string> header{"scenario"};
  header.insert(header.end(), axis_keys.begin(), axis_keys.end());
  for (const auto* column : cluster) header.emplace_back(column->name);
  for (std::size_t i = 0; i < app_slots; ++i)
    for (const auto* column : per_app)
      header.push_back("app" + std::to_string(i) + "_" + column->name);
  writer.set_header(std::move(header));

  for (const SweepRow& row : rows) {
    std::vector<std::string> cells{row.spec.name};
    cells.insert(cells.end(), row.axis_values.begin(), row.axis_values.end());
    for (const auto* column : cluster) cells.push_back(column->format(row));
    for (std::size_t i = 0; i < app_slots; ++i)
      for (const auto* column : per_app)
        cells.push_back(i < row.apps.size() ? column->format(row.apps[i])
                                            : std::string());
    writer.add_row(std::move(cells));
  }
  return writer.to_string();
}

std::string SweepReport::summary_table() const {
  AsciiTable table({"scenario", "energy (kWh)", "mean W", "reconfig",
                    "QoS viol (s)", "served %", "machines", "wall (ms)"});
  for (const SweepRow& row : rows)
    table.add_row({row.spec.name,
                   AsciiTable::num(joules_to_kwh(row.sim.total_energy())),
                   AsciiTable::num(row.mean_power(), 1),
                   std::to_string(row.sim.reconfigurations),
                   std::to_string(row.sim.qos.violation_seconds),
                   AsciiTable::num(100.0 * row.sim.qos.served_fraction(), 3),
                   std::to_string(row.sim.peak_machines),
                   AsciiTable::num(1000.0 * row.wall_seconds, 1)});
  return table.render();
}

std::string SweepReport::perf_report() const {
  AsciiTable table({"#", "scenario", "wall (ms)", "spans", "ticks",
                    "consults", "decisions", "copy of"});
  double scenario_wall = 0.0;
  std::size_t copies = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    scenario_wall += row.wall_seconds;
    copies += row.copy_of.has_value();
    table.add_row({std::to_string(i), row.spec.name,
                   AsciiTable::num(1000.0 * row.wall_seconds, 1),
                   std::to_string(row.metrics.spans),
                   std::to_string(row.metrics.ticks),
                   std::to_string(row.metrics.scheduler_consults),
                   std::to_string(row.metrics.decisions_applied),
                   row.copy_of ? std::to_string(*row.copy_of) : ""});
  }
  const auto ms = [](double seconds) {
    return AsciiTable::num(1000.0 * seconds, 1) + " ms";
  };
  std::ostringstream os;
  os << table.render();
  os << "builds: " << builds << "  cache reuses: " << build_cache_reuses
     << "  copied rows: " << copies << "  threads: " << threads << '\n';
  os << "build: " << ms(build_phases.generate)
     << " trace generation (with LoadTrace index), "
     << ms(build_phases.dedup) << " dedup, " << ms(build_phases.design)
     << " design + DispatchPlan\n";
  os << "wall: " << ms(wall_seconds) << " sweep, " << ms(scenario_wall)
     << " summed scenario work\n";
  return os.str();
}

}  // namespace bml
