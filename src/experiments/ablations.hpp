// Analytic ablations beyond the paper's figures:
//
//  * energy-proportionality metrics (IPR / LDR / composite score) per
//    machine and for the composed BML curve (Section II's yardsticks);
//  * the RAPL foil: BML's power curve against an ideally power-capped
//    homogeneous Big fleet (Section II).
//
// The simulated ablations (prediction error, look-ahead window, policy,
// cost-aware reconfiguration, boot faults) are the shipped specs
// examples/specs/ablation_*.scn, run with `bmlsim sweep` like every other
// simulated experiment; tests/test_ablations.cpp checks them.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// Energy-proportionality metric row for one power curve.
struct ProportionalityRow {
  std::string name;
  double ipr = 0.0;    // idle-to-peak ratio (lower is better)
  double ldr = 0.0;    // linear deviation ratio (0 = perfectly linear)
  double score = 0.0;  // composite proportionality score (1 is ideal)
};

/// Metrics for every real machine plus the composed BML curve and the
/// BML-linear reference.
[[nodiscard]] std::vector<ProportionalityRow> run_proportionality_metrics();

/// One point of the RAPL-vs-BML curve comparison.
struct RaplRow {
  ReqRate rate = 0.0;
  Watts bml = 0.0;       // ideal BML combination
  Watts rapl_big = 0.0;  // ideally capped homogeneous Big fleet
};

/// Power curves: BML combination vs an ideally RAPL-capped homogeneous Big
/// fleet (sized for `fleet_rate`), over rates 0..fleet_rate. Section II's
/// point: capping improves proportionality but cannot shed idle power.
[[nodiscard]] std::vector<RaplRow> run_rapl_comparison(
    ReqRate fleet_rate = 4.0 * 1331.0, int points = 21);

}  // namespace bml
