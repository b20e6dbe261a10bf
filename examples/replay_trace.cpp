// Replay a real trace file through the full BML evaluation.
//
//   $ ./replay_trace <trace-file> [catalog.csv]
//
// The trace file is either the two-column WC98-derived per-second format
// ("<second> <count>") or a single-column `rate` CSV (LoadTrace format);
// the format is auto-detected. With the real 1998 World Cup trace
// converted to per-second counts this reproduces the paper's Fig. 5 on the
// original data instead of the synthetic workload. An unreadable or
// malformed file prints `replay_trace: <message>` and exits 2.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "predict/predictor.hpp"
#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/lower_bound.hpp"
#include "sim/simulator.hpp"
#include "trace/wc98.hpp"

namespace {

int replay(const char* trace_path, const char* catalog_path) {
  using namespace bml;
  const LoadTrace trace = load_any(trace_path);
  const Catalog catalog =
      catalog_path != nullptr ? load_catalog(catalog_path) : real_catalog();
  std::printf("trace: %zu seconds (%zu days), peak %.1f req/s, mean %.1f "
              "req/s\n",
              trace.size(), trace.days(), trace.peak(), trace.mean());

  auto design = std::make_shared<BmlDesign>(BmlDesign::build(
      catalog, {.max_rate = std::max(trace.peak(), 1.0)}));
  std::printf("design: %zu candidates, Big=%s Little=%s\n\n",
              design->candidates().size(), design->big().name().c_str(),
              design->little().name().c_str());

  const Simulator simulator(design->candidates());
  BmlScheduler bml_sched(design, std::make_shared<OracleMaxPredictor>());
  const SimulationResult bml = simulator.run(bml_sched, trace);
  StaticMaxScheduler global_sched(design->big(), 0);
  const SimulationResult global = simulator.run(global_sched, trace);
  const Joules lower = theoretical_lower_bound_total(*design, trace);

  std::printf("energy (kWh): lower bound %.3f | BML %.3f (+%.1f%%) | "
              "over-provisioned %.3f (%.1fx BML)\n",
              joules_to_kwh(lower), joules_to_kwh(bml.total_energy()),
              percent_over(bml.total_energy(), lower),
              joules_to_kwh(global.total_energy()),
              global.total_energy() / bml.total_energy());
  std::printf("BML QoS: %.4f%% served, %lld violation seconds, "
              "%d reconfigurations\n",
              bml.qos.served_fraction() * 100.0,
              static_cast<long long>(bml.qos.violation_seconds),
              bml.reconfigurations);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <trace-file> [catalog.csv]\n", argv[0]);
    return 2;
  }
  try {
    return replay(argv[1], argc > 2 ? argv[2] : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_trace: %s\n", e.what());
    return 2;
  }
}
