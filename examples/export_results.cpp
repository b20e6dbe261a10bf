// Export every experiment's data as CSV and print the workload's
// statistical character.
//
//   $ ./export_results [out-dir] [days]
//
// Writes table1.csv, fig1_profiles.csv ... fig5_per_day.csv into the
// output directory (default ./bml-results, 7 World-Cup days by default so
// the example finishes in seconds; pass 87 for paper scale), then prints
// the trace statistics that govern the Fig. 5 overhead spread. A day count
// that is not an integer >= 1 prints `export_results: <message>` and exits
// 2 before anything is written; valid counts below 2 replay 2 days.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "experiments/export.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_stats.hpp"
#include "util/csv.hpp"

namespace {

std::size_t parse_days(const std::string& text) {
  const std::int64_t days = bml::parse_int(text);
  if (days < 1)
    throw std::invalid_argument("days must be >= 1, got '" + text + "'");
  return static_cast<std::size_t>(days);
}

int export_results(const std::filesystem::path& directory,
                   std::size_t days) {
  using namespace bml;
  std::printf("exporting to %s (%zu World-Cup days)\n",
              directory.string().c_str(), days);

  export_table1(run_table1(), directory);
  std::puts("  table1.csv");
  export_fig1(run_fig1(), directory);
  std::puts("  fig1_profiles.csv");
  export_fig2(run_fig2(), directory);
  std::puts("  fig2_thresholds.csv");
  export_fig3(run_fig3(), directory);
  std::puts("  fig3_profiles.csv");
  export_fig4(run_fig4(), directory);
  std::puts("  fig4_curves.csv");

  WorldCupOptions options;
  options.days = std::max<std::size_t>(2, days);
  options.tournament_start_day = options.days / 3;
  options.tournament_end_day = options.days - 1;
  const LoadTrace trace = worldcup_like_trace(options);
  export_fig5(run_fig5(trace), directory);
  std::puts("  fig5_per_day.csv");

  std::puts("\nworkload character (these statistics govern the Fig. 5 "
            "overhead spread):");
  std::fputs(to_string(analyze_trace(trace)).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return export_results(argc > 1 ? argv[1] : "bml-results",
                          argc > 2 ? parse_days(argv[2]) : 7);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "export_results: %s\n", e.what());
    return 2;
  }
}
