// Reproduces Fig. 5: "Energy consumption comparison with lower and upper
// bounds" — per-day energy over 87 World-Cup days for UpperBound Global,
// UpperBound PerDay, Big-Medium-Little, and LowerBound Theoretical, plus
// the paper's summary statistic (BML % over the lower bound: the paper
// reports avg 32 %, min 6.8 %, max 161.4 % on the real WC98 trace; the
// synthetic trace reproduces the ordering and the quiet-day/busy-day
// pattern).
//
// Pass --quick to replay 7 days instead of 87.
#include <cstdio>
#include <cstring>

#include "experiments/experiments.hpp"
#include "trace/synthetic.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace bml;
  WorldCupOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.days = 7;
      options.tournament_start_day = 3;
      options.tournament_end_day = 6;
    }
  }

  std::printf("=== Fig. 5: per-day energy vs lower and upper bounds (%zu "
              "days, synthetic World-Cup-like trace) ===\n\n",
              options.days);

  const Fig5Result result = run_fig5(worldcup_like_trace(options));

  AsciiTable table({"day", "LowerBound (kWh)", "BML (kWh)", "BML vs LB",
                    "UpperBound PerDay (kWh)", "UpperBound Global (kWh)"});
  const std::size_t stride = options.days > 20 ? 5 : 1;
  for (std::size_t d = 0; d < result.lower_bound.size(); d += stride)
    table.add_row({std::to_string(d + 6),  // the paper replays days 6..92
                   AsciiTable::num(joules_to_kwh(result.lower_bound[d]), 3),
                   AsciiTable::num(joules_to_kwh(result.bml[d]), 3),
                   "+" + AsciiTable::num(result.bml_overhead_pct[d], 1) + "%",
                   AsciiTable::num(joules_to_kwh(result.per_day_bound[d]), 3),
                   AsciiTable::num(joules_to_kwh(result.global_bound[d]), 3)});
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nBML energy over LowerBound Theoretical: avg +%.1f%%  "
              "min +%.1f%%  max +%.1f%%\n",
              result.mean_overhead_pct(), result.min_overhead_pct(),
              result.max_overhead_pct());
  std::printf("(paper, real WC98 trace: avg +32%%, min +6.8%%, max "
              "+161.4%%)\n");
  std::printf("\nBML: %d reconfigurations, %.3f%% requests served, "
              "%lld violation seconds\n",
              result.bml_sim.reconfigurations,
              result.bml_sim.qos.served_fraction() * 100.0,
              static_cast<long long>(result.bml_sim.qos.violation_seconds));

  double lb = 0.0, bml = 0.0, per_day = 0.0, global = 0.0;
  for (std::size_t d = 0; d < result.lower_bound.size(); ++d) {
    lb += result.lower_bound[d];
    bml += result.bml[d];
    per_day += result.per_day_bound[d];
    global += result.global_bound[d];
  }
  std::printf("\nWhole-trace energy (kWh): LowerBound %.1f | BML %.1f | "
              "UpperBound PerDay %.1f (%.1fx BML) | UpperBound Global %.1f "
              "(%.1fx BML)\n",
              joules_to_kwh(lb), joules_to_kwh(bml), joules_to_kwh(per_day),
              per_day / bml, joules_to_kwh(global), global / bml);
  return 0;
}
