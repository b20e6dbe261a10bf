// bmlsim — the scenario engine's command-line front end.
//
//   bmlsim run <spec.scn>  [--csv FILE] [--per-day] [--metrics]
//              [--trace-out FILE] [--trace-sample N]
//       Run one scenario and print its summary (per-day energies with
//       --per-day); --csv dumps the single-row sweep CSV. Multi-tenant
//       specs ([app] sections) additionally print the per-application
//       energy / QoS attribution table; runtime-fault specs (faults.mtbf)
//       add the cluster failure/availability line and per-app avail % /
//       failures columns. --metrics prints the simulator self-metrics
//       (deterministic "name value" lines); --trace-out writes the run's
//       timeline as Chrome trace-event JSON (open in ui.perfetto.dev or
//       chrome://tracing), sampling counter tracks every --trace-sample
//       seconds (default 60). Tracing leaves the CSV and the sim.*
//       metrics unchanged; --metrics adds the events.* counters.
//
//   bmlsim sweep <spec.scn> [--threads N] [--csv FILE] [--metrics]
//               [--perf-report]
//       Expand the spec's `sweep` axes into the grid, run it in parallel,
//       print the summary table, and optionally write the CSV. The CSV
//       bytes are identical for every --threads value, and so is the
//       --metrics output (per-scenario metric shards merge in grid
//       order). --perf-report prints per-scenario wall clock + span/tick
//       counts, the build-cache totals and the process's peak resident
//       set (VmHWM, where /proc/self/status has it) — console-only
//       numbers.
//
//   bmlsim list
//       Print every registered catalog, trace generator, scheduler, and
//       predictor with its parameters.
//
//   bmlsim print <spec.scn>
//       Parse a spec and echo its canonical form (a format round-trip).
//
// Exit codes: 0 success, 1 usage error, 2 spec/runtime error.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace bml;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run <spec.scn> [--csv FILE] [--per-day] "
               "[--metrics] [--trace-out FILE] [--trace-sample N]\n"
               "       %s sweep <spec.scn> [--threads N] [--csv FILE] "
               "[--metrics] [--perf-report]\n"
               "       %s list\n"
               "       %s print <spec.scn>\n",
               argv0, argv0, argv0, argv0);
  return 1;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
}

void print_components(const char* title,
                      const std::vector<ComponentInfo>& components) {
  std::printf("%s\n", title);
  for (const ComponentInfo& c : components)
    std::printf("  %-14s %s\n", c.name.c_str(), c.summary.c_str());
}

/// The process's peak resident set in kB (VmHWM in /proc/self/status),
/// or -1 where the file or the field is unavailable.
long long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.starts_with("VmHWM:")) return std::atoll(line.c_str() + 6);
  return -1;
}

int cmd_list() {
  print_components("catalogs", catalog_components());
  print_components("traces", trace_components());
  print_components("schedulers", scheduler_components());
  print_components("predictors", predictor_components());
  return 0;
}

int cmd_print(const std::string& path) {
  std::fputs(write_scenario(load_scenario(path)).c_str(), stdout);
  return 0;
}

int cmd_run(const std::string& path, const std::string& csv_path,
            bool per_day, bool metrics, const std::string& trace_out,
            int trace_sample) {
  const ScenarioSpec spec = load_scenario(path);
  if (!spec.sweeps.empty())
    std::fprintf(stderr,
                 "note: spec declares %zu sweep axes; `run` executes the "
                 "base point only (use `sweep`)\n",
                 spec.sweeps.size());

  ScenarioSpec base = spec;
  base.sweeps.clear();
  if (metrics) base.obs_metrics = true;
  if (!trace_out.empty()) {
    base.obs_trace = true;
    if (trace_sample > 0) base.obs_sample = trace_sample;
  }
  SweepOptions options;
  options.threads = 1;
  const SweepReport report = run_sweep(base, options);
  std::fputs(report.summary_table().c_str(), stdout);

  const SweepRow& row = report.rows.front();
  const SimulationResult& sim = row.sim;
  const ConfiguredChannels on = configured_channels(row.spec);
  std::printf("\nscheduler %s: %.3f kWh compute + %.3f kWh reconfiguration "
              "over %d reconfigurations\n",
              sim.scheduler_name.c_str(), joules_to_kwh(sim.compute_energy),
              joules_to_kwh(sim.reconfiguration_energy), sim.reconfigurations);
  if (on.faults) {
    std::printf("faults: %d machine failures, availability %.4f%%, "
                "%.0f req-s capacity lost\n",
                sim.machine_failures, 100.0 * sim.availability,
                sim.lost_capacity);
    if (on.groups)
      std::printf("  %d rack strikes across %d groups (%s repair crews)\n",
                  sim.group_strikes, spec.fault_groups,
                  spec.fault_crews > 0 ? std::to_string(spec.fault_crews).c_str()
                                       : "unlimited");
  }
  if (on.slo)
    std::printf("slo: %lld s with spares provisioned, %.3f kWh spare energy "
                "(%.0f s window)\n",
                static_cast<long long>(sim.spare_seconds),
                joules_to_kwh(sim.spare_energy), spec.slo_window);
  if (on.degrade)
    std::printf("degrade: %lld s overloaded, %.0f req-s lost to the "
                "contention penalty (factor %.2f, penalty %.2f)\n",
                static_cast<long long>(sim.overload_seconds),
                sim.penalty_lost_capacity, spec.degrade_overload_factor,
                spec.degrade_penalty);
  if (on.priority)
    std::printf("priority: %d preemptions backfilled high-priority apps "
                "after strikes\n",
                sim.preemptions);
  if (row.apps.size() >= 2) {
    std::vector<std::string> columns{"app",           "scheduler",
                                     "compute (kWh)", "reconfig (kWh)",
                                     "QoS viol (s)",  "served %"};
    if (on.faults) {
      columns.push_back("avail %");
      columns.push_back("failures");
    }
    if (on.slo) columns.push_back("spare (s)");
    if (on.degrade) columns.push_back("overload (s)");
    if (on.priority) columns.push_back("preempted (s)");
    AsciiTable per_app(columns);
    for (const WorkloadResult& app : row.apps) {
      std::vector<std::string> cells{
          app.name, app.scheduler_name,
          AsciiTable::num(joules_to_kwh(app.compute_energy), 3),
          AsciiTable::num(joules_to_kwh(app.reconfiguration_energy), 3),
          std::to_string(app.qos_stats.violation_seconds),
          AsciiTable::num(100.0 * app.qos_stats.served_fraction(), 3)};
      if (on.faults) {
        cells.push_back(AsciiTable::num(100.0 * app.availability, 4));
        cells.push_back(std::to_string(app.failures));
      }
      if (on.slo) cells.push_back(std::to_string(app.spare_seconds));
      if (on.degrade) cells.push_back(std::to_string(app.overload_seconds));
      if (on.priority) cells.push_back(std::to_string(app.preempted_seconds));
      per_app.add_row(cells);
    }
    std::fputs(per_app.render().c_str(), stdout);
  }
  if (per_day) {
    AsciiTable table({"day", "compute (kWh)", "reconfig (kWh)"});
    for (std::size_t d = 0; d < sim.per_day_compute.size(); ++d)
      table.add_row({std::to_string(d),
                     AsciiTable::num(joules_to_kwh(sim.per_day_compute[d]), 3),
                     AsciiTable::num(
                         joules_to_kwh(sim.per_day_reconfiguration[d]), 3)});
    std::fputs(table.render().c_str(), stdout);
  }
  if (!trace_out.empty()) {
    write_text_file(trace_out, chrome_trace_json(sim.timeline, sim.events));
    std::printf("wrote %s (%zu samples, %zu events — open in "
                "ui.perfetto.dev)\n",
                trace_out.c_str(), sim.timeline.samples.size(),
                sim.events.total());
  }
  if (metrics) {
    // The sweep registry already holds the sim.* self-metrics; the event
    // counters only exist when the run logged events (a timeline forces
    // that).
    MetricsRegistry registry = report.metrics;
    if (sim.events.total() > 0) export_event_counts(sim.events, registry);
    std::printf("\nmetrics:\n%s", registry.to_text().c_str());
  }
  if (!csv_path.empty()) {
    write_text_file(csv_path, report.to_csv());
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_sweep(const std::string& path, unsigned threads,
              const std::string& csv_path, bool metrics, bool perf) {
  ScenarioSpec spec = load_scenario(path);
  // The perf report's span/tick columns come from the same self-metrics.
  if (metrics || perf) spec.obs_metrics = true;
  SweepOptions options;
  options.threads = threads;
  const SweepReport report = run_sweep(spec, options);
  std::fputs(report.summary_table().c_str(), stdout);
  std::printf("%zu scenarios on %u threads in %.2f s\n", report.rows.size(),
              report.threads, report.wall_seconds);
  if (perf) {
    std::fputs(report.perf_report().c_str(), stdout);
    // MB = 2^20 bytes, as perfbench's peak_rss_mb.
    if (const long long kb = peak_rss_kb(); kb >= 0)
      std::printf("peak RSS: %.1f MB (VmHWM)\n",
                  static_cast<double>(kb) / 1024.0);
  }
  if (metrics)
    std::printf("\nmetrics:\n%s", report.metrics.to_text().c_str());
  if (!csv_path.empty()) {
    write_text_file(csv_path, report.to_csv());
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];

  std::string spec_path;
  std::string csv_path;
  std::string trace_out;
  unsigned threads = 0;
  bool per_day = false;
  bool metrics = false;
  bool perf_report = false;
  int trace_sample = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--trace-sample" && i + 1 < argc) {
      const char* text = argv[++i];
      std::int64_t value = 0;
      try {
        value = parse_int(text);
      } catch (const std::exception&) {
        value = 0;
      }
      if (value < 1 || value > std::numeric_limits<int>::max()) {
        std::fprintf(stderr,
                     "%s: --trace-sample must be an integer in [1, %d], got "
                     "'%s'\n",
                     argv[0], std::numeric_limits<int>::max(), text);
        return 1;
      }
      trace_sample = static_cast<int>(value);
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--perf-report") {
      perf_report = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      // Strict full-token parsing: "--threads 3x" is an error naming the
      // flag, never a silent 3.
      const char* text = argv[++i];
      std::int64_t value = 0;
      try {
        value = parse_int(text);
      } catch (const std::exception&) {
        value = -1;
      }
      if (value < 0 || value > UINT_MAX) {
        std::fprintf(stderr,
                     "%s: --threads must be an integer in [0, %u], got "
                     "'%s'\n",
                     argv[0], UINT_MAX, text);
        return 1;
      }
      threads = static_cast<unsigned>(value);
    } else if (arg == "--per-day") {
      per_day = true;
    } else if (!arg.starts_with("--") && spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }

  try {
    if (command == "list") return cmd_list();
    if (spec_path.empty()) return usage(argv[0]);
    if (command == "print") return cmd_print(spec_path);
    if (command == "run")
      return cmd_run(spec_path, csv_path, per_day, metrics, trace_out,
                     trace_sample);
    if (command == "sweep")
      return cmd_sweep(spec_path, threads, csv_path, metrics, perf_report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmlsim: %s\n", e.what());
    return 2;
  }
  return usage(argv[0]);
}
