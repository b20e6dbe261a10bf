// Energy-proportionality metrics (Section II's IPR and LDR, plus a
// composite score) for every Table I machine, the composed BML curve, and
// the BML-linear reference — quantifying the paper's claim that the
// heterogeneous combination is more energy proportional than any single
// machine — then Section II's RAPL foil and the design's sensitivity to
// profiling error. The simulated ablations are the specs
// examples/specs/ablation_*.scn (`bmlsim sweep <spec>`).
#include <cstdio>

#include "core/sensitivity.hpp"
#include "experiments/ablations.hpp"
#include "util/table.hpp"

int main() {
  using namespace bml;
  std::puts("=== Energy proportionality metrics (IPR / LDR / score) ===\n");

  AsciiTable table({"power curve", "IPR (idle/peak, lower=better)",
                    "LDR (0=linear)", "proportionality score (1=ideal)"});
  for (const ProportionalityRow& row : run_proportionality_metrics())
    table.add_row({row.name, AsciiTable::num(row.ipr, 3),
                   AsciiTable::num(row.ldr, 3),
                   AsciiTable::num(row.score, 3)});
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nReading: every single machine wastes a large idle fraction "
            "(IPR 0.35-0.84); the composed BML curve approaches the ideal "
            "because small machines carry the low-rate regime.");

  std::puts("\n=== Ideally RAPL-capped homogeneous Big fleet vs BML "
            "(Section II) ===\n");
  AsciiTable rapl({"rate (req/s)", "BML (W)", "RAPL-capped 4xBig (W)",
                   "RAPL / BML"});
  for (const RaplRow& row : run_rapl_comparison()) {
    const std::string ratio =
        row.bml > 0.01
            ? AsciiTable::num(row.rapl_big / row.bml, 1) + "x"
            : "-";
    rapl.add_row({AsciiTable::num(row.rate, 0), AsciiTable::num(row.bml, 1),
                  AsciiTable::num(row.rapl_big, 1), ratio});
  }
  std::fputs(rapl.render().c_str(), stdout);
  std::puts("\nReading: power capping tracks load but keeps every idle "
            "machine burning its floor draw; the heterogeneous combination "
            "sheds it by switching to smaller machines.");

  // Robustness of the design to Step 1 profiling error (+/- 2 %, the
  // simulated wattmeter's noise level).
  std::puts("\n=== Design sensitivity to profiling error (+2 % per "
            "parameter) ===\n");
  AsciiTable sens({"machine", "parameter", "candidates kept",
                   "max |threshold shift| (req/s)", "mean power drift"});
  for (const SensitivityRow& row :
       sensitivity_analysis(real_catalog(), 0.02)) {
    double worst_shift = 0.0;
    for (ReqRate shift : row.threshold_shift)
      worst_shift = std::max(worst_shift, std::abs(shift));
    sens.add_row({row.machine, to_string(row.parameter),
                  row.same_candidates ? "yes" : "NO",
                  AsciiTable::num(worst_shift, 0),
                  AsciiTable::num(row.mean_power_drift * 100.0, 2) + "%"});
  }
  std::fputs(sens.render().c_str(), stdout);
  std::puts("\nReading: within instrument noise the candidate set never "
            "changes and the ideal-power curve drifts by at most a few "
            "percent — the five-step methodology is robust to Step 1 "
            "measurement error.");
  return 0;
}
