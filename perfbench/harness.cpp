// bml_perfbench — one measured pass over the path `bmlsim sweep --threads 1
// --csv` takes: load_scenario -> run_sweep with one worker thread ->
// SweepReport::to_csv.
//
//   bml_perfbench <spec.scn> --csv FILE [--trace-out FILE]
//
// Writes the rendered CSV to FILE and prints one JSON object on stdout:
// the pipeline's wall times, each sweep row's replay wall and tenant-seconds,
// and the process's ru_maxrss. perfbench/run.py turns these into the
// end-to-end metrics.
//
// With --trace-out the spec runs with obs.metrics on (results are
// bit-identical), every public call of the pipeline is bracketed by an
// in-memory span, and the build calls run_sweep makes internally (catalog,
// trace generation, LoadTrace indexing, dedup, CompiledTrace, BmlDesign,
// DispatchPlan) plus the per-tenant predictor/scheduler construction are
// re-timed as probes on the same inputs, outside the pipeline span. The
// JSON then also carries the per-layer metrics and a per-span-name table
// with self times, and the spans are written to the --trace-out file as
// Chrome trace-event JSON (opens in ui.perfetto.dev).
//
// Exit codes: 0 success, 1 usage error, 2 spec/runtime error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "core/bml_design.hpp"
#include "core/dispatch_plan.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "sim/compiled_trace.hpp"
#include "sim/qos.hpp"
#include "util/csv.hpp"

namespace {

using namespace bml;
using Clock = std::chrono::steady_clock;

// How this binary was compiled; run.py refuses to report timings from
// anything but an optimised NDEBUG build.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr const char kBuildType[] = "release";
#else
constexpr const char kBuildType[] = "debug";
#endif

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans kept in memory: name, start and end (seconds since the recorder
/// was created) and the index of the enclosing span (-1 at the root).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Opens a span on construction and closes it on destruction; scopes
  /// nest, so the innermost open scope is the parent of the next one.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name)
        : recorder_(recorder), index_(recorder.open(std::move(name))) {}
    ~Scope() { recorder_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the time its direct children cover
  /// (children never overlap: everything runs on one thread).
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& span : spans_)
      if (span.parent >= 0) self[span.parent] -= span.end - span.start;
    return self;
  }

  /// Summed duration of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& span : spans_)
      if (span.name == name) sum += span.end - span.start;
    return sum;
  }

 private:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now();
    stack_.pop_back();
  }
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    out += '"' + name + "\":" + json_number(value);
  }
  return out + "}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

// --- Mirrors of the sweep build's file-local helpers (scenario/sweep.cpp).
// The probes must see the same inputs the shared build does; if the build
// changes and these do not, the probe sum drifts away from setup_s in the
// traced report, which is how the drift shows.

/// Effective tenants: the [app] sections with `replicas` stamped out, or
/// the classic single app of the top-level fields.
std::vector<AppSpec> effective_apps(const ScenarioSpec& spec) {
  std::vector<AppSpec> raw = spec.apps;
  if (raw.empty()) {
    AppSpec app;
    app.trace = spec.trace;
    app.trace_params = spec.trace_params;
    app.scheduler = spec.scheduler;
    app.scheduler_params = spec.scheduler_params;
    app.predictor = spec.predictor;
    app.predictor_params = spec.predictor_params;
    app.qos = spec.qos;
    raw.push_back(std::move(app));
  }
  std::vector<AppSpec> out;
  for (const AppSpec& app : raw)
    for (int r = 0; r < app.replicas; ++r) out.push_back(app);
  return out;
}

std::uint64_t app_seed(const ScenarioSpec& spec, std::size_t i) {
  return (spec.seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i)) &
         0x7FFF'FFFF'FFFF'FFFFULL;
}

ReqRate design_max_rate(const ScenarioSpec& spec,
                        const std::vector<const LoadTrace*>& traces) {
  if (spec.design_max_rate == "trace-peak") {
    const ReqRate peak = traces.size() == 1 ? traces.front()->peak()
                                            : combined_trace(traces).peak();
    return std::max(peak, 1.0);
  }
  if (spec.design_max_rate == "default") return 0.0;
  return parse_double(spec.design_max_rate);
}

std::uint64_t fnv1a(std::span<const double> values) {
  std::uint64_t h =
      1469598103934665603ULL ^ static_cast<std::uint64_t>(values.size());
  for (const double x : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

/// Re-times the build run_sweep performs for `spec` (its shared build: the
/// base spec, all grid points reusing it) and the per-row scheduler stacks,
/// call by call, and records the counts the build layers see.
void run_probes(const ScenarioSpec& spec, SpanRecorder& recorder,
                std::map<std::string, double>& metrics) {
  using Scope = SpanRecorder::Scope;
  const Scope probes(recorder, "build.probes");

  Catalog catalog;
  {
    const Scope s(recorder, "arch.make_catalog");
    catalog = make_catalog(spec.catalog, spec.catalog_params);
  }

  const std::vector<AppSpec> apps = effective_apps(spec);
  std::vector<LoadTrace> distinct;
  distinct.reserve(apps.size());
  std::vector<std::size_t> of_app(apps.size());
  std::map<std::uint64_t, std::vector<std::size_t>> by_hash;
  double samples = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    LoadTrace trace;
    {
      const Scope s(recorder, "trace.make_trace");
      trace = make_trace(apps[i].trace, apps[i].trace_params,
                         app_seed(spec, i));
    }
    const std::span<const double> values = trace.series().values();
    samples += static_cast<double>(values.size());
    {
      // The change-point scan and range-max index LoadTrace builds inside
      // every generator, timed alone on a copy of the samples.
      std::vector<double> copy(values.begin(), values.end());
      LoadTrace indexed;
      {
        const Scope s(recorder, "trace.LoadTrace");
        indexed = LoadTrace(std::move(copy));
      }
    }
    const Scope s(recorder, "trace.dedup");
    std::vector<std::size_t>& bucket = by_hash[fnv1a(values)];
    std::size_t found = distinct.size();
    for (const std::size_t j : bucket) {
      const std::span<const double> other = distinct[j].series().values();
      if (other.size() == values.size() &&
          std::equal(values.begin(), values.end(), other.begin())) {
        found = j;
        break;
      }
    }
    if (found == distinct.size()) {
      bucket.push_back(found);
      distinct.push_back(std::move(trace));
    }
    of_app[i] = found;
  }

  std::vector<CompiledTrace> compiled;
  compiled.reserve(distinct.size());
  double segments = 0.0;
  for (const LoadTrace& trace : distinct) {
    {
      const Scope s(recorder, "trace.CompiledTrace");
      compiled.emplace_back(trace);
    }
    segments += static_cast<double>(compiled.back().segment_count());
  }

  std::vector<const LoadTrace*> traces(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i)
    traces[i] = &distinct[of_app[i]];
  std::shared_ptr<const BmlDesign> design;
  {
    const Scope s(recorder, "core.BmlDesign::build");
    BmlDesignOptions options;
    options.max_rate = design_max_rate(spec, traces);
    options.solver = spec.design_solver == "exact-dp"
                         ? SolverKind::kExactDp
                         : SolverKind::kGreedyThreshold;
    design = std::make_shared<BmlDesign>(BmlDesign::build(catalog, options));
  }
  std::optional<DispatchPlan> plan;
  {
    const Scope s(recorder, "core.DispatchPlan");
    plan.emplace(design->candidates());
  }

  // Every grid row constructs its own predictor + scheduler per tenant
  // inside its replay (after the row's clock starts).
  for (const ScenarioSpec& point : expand_sweep(spec)) {
    const std::vector<AppSpec> row_apps = effective_apps(point);
    std::vector<std::unique_ptr<Scheduler>> stacks;
    stacks.reserve(row_apps.size());
    for (std::size_t i = 0; i < row_apps.size(); ++i) {
      const AppSpec& app = row_apps[i];
      const Scope s(recorder, "sched.make_scheduler");
      stacks.push_back(make_scheduler(
          app.scheduler, app.scheduler_params, design,
          make_predictor(app.predictor, app.predictor_params,
                         app_seed(point, i)),
          parse_qos_class(app.qos)));
    }
  }

  metrics["trace.samples"] = samples;
  metrics["trace.distinct_frac"] =
      static_cast<double>(distinct.size()) / static_cast<double>(apps.size());
  metrics["trace.segments"] = segments;
  metrics["core.table_entries"] =
      design->table() ? static_cast<double>(design->table()->grid_size()) : 0.0;
}

std::string chrome_trace(const SpanRecorder& recorder) {
  const std::vector<SpanRecorder::Span>& spans = recorder.spans();
  const std::vector<double> self = recorder.self_times();
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecorder::Span& span = spans[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
       << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << json_number(1e6 * span.start)
       << ",\"dur\":" << json_number(1e6 * (span.end - span.start))
       << ",\"args\":{\"parent\":\""
       << (span.parent >= 0 ? spans[span.parent].name : std::string())
       << "\",\"self_us\":" << json_number(1e6 * self[i]) << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

/// Per span name: call count, summed duration and summed self time, in
/// first-appearance order.
std::string layer_table(const SpanRecorder& recorder) {
  const std::vector<SpanRecorder::Span>& spans = recorder.spans();
  const std::vector<double> self = recorder.self_times();
  std::vector<std::string> order;
  std::map<std::string, std::array<double, 3>> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto [it, inserted] = rows.try_emplace(spans[i].name,
                                           std::array<double, 3>{0, 0, 0});
    if (inserted) order.push_back(spans[i].name);
    it->second[0] += 1.0;
    it->second[1] += spans[i].end - spans[i].start;
    it->second[2] += self[i];
  }
  std::string out = "[";
  for (const std::string& name : order) {
    const std::array<double, 3>& row = rows[name];
    if (out.size() > 1) out += ',';
    out += "{\"name\":\"" + name + "\",\"calls\":" + json_number(row[0]) +
           ",\"total_s\":" + json_number(row[1]) +
           ",\"self_s\":" + json_number(row[2]) + "}";
  }
  return out + "]";
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

int run(const std::string& spec_path, const std::string& csv_path,
        const std::string& trace_out) {
  SweepOptions options;
  options.threads = 1;
  const bool traced = !trace_out.empty();
  SpanRecorder recorder;
  using Scope = SpanRecorder::Scope;

  ScenarioSpec spec;
  SweepReport report;
  std::string csv;
  double wall_s = 0.0;
  double pipeline_s = 0.0;
  double render_s = 0.0;
  if (!traced) {
    const auto t0 = Clock::now();
    spec = load_scenario(spec_path);
    report = run_sweep(spec, options);
    const auto t1 = Clock::now();
    csv = report.to_csv();
    const auto t2 = Clock::now();
    wall_s = seconds_between(t0, t2);
    pipeline_s = seconds_between(t0, t1);
    render_s = seconds_between(t1, t2);
  } else {
    {
      const Scope pipeline(recorder, "pipeline");
      {
        const Scope s(recorder, "scenario.load_scenario");
        spec = load_scenario(spec_path);
        spec.obs_metrics = true;
      }
      {
        const Scope s(recorder, "scenario.expand_sweep");
        (void)expand_sweep(spec);
      }
      {
        const Scope s(recorder, "sweep.run_sweep");
        report = run_sweep(spec, options);
      }
      const Scope s(recorder, "report.to_csv");
      csv = report.to_csv();
    }
    wall_s = recorder.total("pipeline");
    render_s = recorder.total("report.to_csv");
    pipeline_s = wall_s - render_s;
  }
  const double rss_kb = peak_rss_kb();
  write_file(csv_path, csv);

  std::vector<double> row_wall;
  std::vector<double> row_active;
  for (const SweepRow& row : report.rows) {
    row_wall.push_back(row.wall_seconds);
    double active = 0.0;
    for (const SweepAppRow& app : row.apps)
      active += static_cast<double>(app.active_seconds);
    row_active.push_back(active);
  }

  std::string json = std::string("{\"build_type\":\"") + kBuildType +
                     "\",\"wall_s\":" + json_number(wall_s) +
                     ",\"pipeline_s\":" + json_number(pipeline_s) +
                     ",\"render_s\":" + json_number(render_s) +
                     ",\"row_wall_s\":" + json_array(row_wall) +
                     ",\"row_active_s\":" + json_array(row_active) +
                     ",\"peak_rss_kb\":" + json_number(rss_kb);

  if (traced) {
    std::map<std::string, double> metrics;
    run_probes(spec, recorder, metrics);

    double replay = 0.0;
    for (const double w : row_wall) replay += w;
    const auto [min_row, max_row] =
        std::minmax_element(row_wall.begin(), row_wall.end());
    SimMetrics merged;
    for (const SweepRow& row : report.rows) merged.merge(row.metrics);
    const MetricsRegistry& registry = report.metrics;
    const double spans =
        static_cast<double>(registry.counter("sim.spans"));
    const double consults =
        static_cast<double>(registry.counter("sim.scheduler_consults"));

    metrics["scenario.spec_s"] = recorder.total("scenario.load_scenario") +
                                 recorder.total("scenario.expand_sweep");
    metrics["arch.catalog_s"] = recorder.total("arch.make_catalog");
    metrics["trace.generate_s"] = recorder.total("trace.make_trace");
    metrics["trace.index_s"] = recorder.total("trace.LoadTrace");
    metrics["trace.dedup_s"] = recorder.total("trace.dedup");
    metrics["trace.compile_s"] = recorder.total("trace.CompiledTrace");
    metrics["core.design_s"] = recorder.total("core.BmlDesign::build");
    metrics["core.plan_s"] = recorder.total("core.DispatchPlan");
    metrics["sched.construct_s"] = recorder.total("sched.make_scheduler");
    // What the shared build costs, as the probes see it: everything the
    // setup_s subtraction covers (spec parse, grid expansion and the build).
    // trace.index_s is excluded — make_trace already indexes its output.
    metrics["build.probe_sum_s"] =
        metrics["scenario.spec_s"] + metrics["arch.catalog_s"] +
        metrics["trace.generate_s"] + metrics["trace.dedup_s"] +
        metrics["trace.compile_s"] + metrics["core.design_s"] +
        metrics["core.plan_s"];
    metrics["sim.replay_s"] = replay;
    metrics["sim.row_replay_max_s"] = row_wall.empty() ? 0.0 : *max_row;
    metrics["sim.row_replay_min_s"] = row_wall.empty() ? 0.0 : *min_row;
    metrics["sim.spans"] = spans;
    metrics["sim.us_per_span"] = spans > 0 ? 1e6 * replay / spans : 0.0;
    metrics["sim.scheduler_consults"] = consults;
    metrics["sim.consults_per_span"] = spans > 0 ? consults / spans : 0.0;
    metrics["sim.merge.frontier_advances"] = static_cast<double>(
        registry.counter("sim.merge.frontier_advances"));
    for (std::size_t c = 0; c < kSpanEndCauseCount; ++c) {
      const std::string name = std::string("sim.span_end.") +
                               to_string(static_cast<SpanEndCause>(c));
      metrics[name] = static_cast<double>(registry.counter(name));
    }
    metrics["sim.span_seconds_mean"] = merged.span_seconds.mean();
    metrics["sim.decisions_applied"] =
        static_cast<double>(registry.counter("sim.decisions_applied"));
    metrics["sim.preemptions"] =
        static_cast<double>(registry.counter("sim.preemptions"));
    metrics["report.render_s"] = render_s;

    write_file(trace_out, chrome_trace(recorder));
    json += ",\"metrics\":" + json_object(metrics) +
            ",\"layers\":" + layer_table(recorder);
  }
  std::printf("%s}\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string csv_path;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!arg.starts_with("--") && spec_path.empty()) {
      spec_path = arg;
    } else {
      spec_path.clear();
      break;
    }
  }
  if (spec_path.empty() || csv_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s <spec.scn> --csv FILE [--trace-out FILE]\n",
                 argv[0]);
    return 1;
  }
  try {
    return run(spec_path, csv_path, trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bml_perfbench: %s\n", e.what());
    return 2;
  }
}
