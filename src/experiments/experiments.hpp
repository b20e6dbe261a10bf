// Experiment runners — one per table/figure of the paper's evaluation.
//
// Each runner returns a structured result; the bench binaries render the
// rows/series the paper reports and optionally dump CSVs. Keeping the
// logic here (a library) lets the test suite assert on the reproduced
// numbers without re-parsing bench output.
//
//   Table I  — run_table1   simulated Step 1 profiling of all 5 machines
//   Fig. 1   — run_fig1     illustrative profiles + Step 2 filtering
//   Fig. 2   — run_fig2     Step 3 vs Step 4 crossing points
//   Fig. 3   — run_fig3     measured power/perf curves (real catalog)
//   Fig. 4   — run_fig4     ideal BML combination curve vs Big / BML-linear
//   Fig. 5   — run_fig5     World-Cup evaluation vs lower & upper bounds
//
// Fig. 5's three simulated rows are examples/specs/fig5_worldcup.scn;
// run_fig5 adds the analytic lower bound, which no spec expresses, and
// Fig5.RunnerMatchesTheShippedSpec pins the two to the same per-day
// energies, bit for bit. Every other simulated experiment is only a spec
// in examples/specs/, built by the scenario engine: those beyond the
// paper (colocation, SLO spares under rack strikes, graceful degradation,
// tenant churn; tests/test_experiments.cpp) and the ablations
// (ablation_*.scn; tests/test_ablations.cpp).
#pragma once

#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace bml {

// ---------------------------------------------------------------- Table I

/// One profiled machine: measured profile next to the ground truth.
struct ProfiledArch {
  ArchitectureProfile measured;
  ArchitectureProfile truth;

  /// Largest relative error across max perf / idle / max power.
  [[nodiscard]] double worst_relative_error() const;
};

struct Table1Result {
  std::vector<ProfiledArch> rows;
};

/// Profiles every machine of the real catalog on the simulated testbed.
[[nodiscard]] Table1Result run_table1(std::uint64_t seed = 42);

// ----------------------------------------------------------------- Fig. 1

struct Fig1Result {
  Catalog input;                      // A, B, C, D
  Catalog kept;                       // sorted candidates after Step 2
  std::vector<RemovedArch> removed;   // D, with the dominance reason
  /// Power of the repeated (homogeneous) profile of each input arch over
  /// rates 0..max, step `rate_step` — the Fig. 1 series.
  std::vector<std::vector<Watts>> homogeneous_series;
  ReqRate rate_step = 10.0;
  ReqRate max_rate = 700.0;
};

[[nodiscard]] Fig1Result run_fig1();

// ----------------------------------------------------------------- Fig. 2

struct Fig2Result {
  BmlDesign design;                   // on the illustrative catalog
  /// Candidate names, Step 3 and Step 4 thresholds (parallel vectors).
  std::vector<std::string> names;
  std::vector<ReqRate> step3;
  std::vector<ReqRate> step4;
};

[[nodiscard]] Fig2Result run_fig2();

// ----------------------------------------------------------------- Fig. 3

struct Fig3Series {
  std::string name;
  std::vector<ReqRate> rates;
  std::vector<Watts> powers;
};

struct Fig3Result {
  std::vector<Fig3Series> series;  // one per real machine
};

/// Power/performance curves of the five Table I machines, sampled at
/// `points` evenly spaced rates each.
[[nodiscard]] Fig3Result run_fig3(int points = 25);

// ----------------------------------------------------------------- Fig. 4

struct Fig4Result {
  BmlDesign design;             // real catalog
  std::vector<ReqRate> rates;   // 0..maxPerf(Big)
  std::vector<Watts> bml;       // ideal BML combination power
  std::vector<Watts> big_only;  // homogeneous Big power (1 machine)
  std::vector<Watts> linear;    // BML-linear reference
};

[[nodiscard]] Fig4Result run_fig4(ReqRate rate_step = 1.0);

// ----------------------------------------------------------------- Fig. 5

struct Fig5Result {
  /// Per-day energies (J), one entry per replayed day.
  std::vector<Joules> lower_bound;
  std::vector<Joules> bml;
  std::vector<Joules> per_day_bound;
  std::vector<Joules> global_bound;
  /// Full simulation records for the three simulated scenarios.
  SimulationResult bml_sim;
  SimulationResult per_day_sim;
  SimulationResult global_sim;
  /// Per-day percentage of BML energy over the theoretical lower bound.
  std::vector<double> bml_overhead_pct;

  [[nodiscard]] double mean_overhead_pct() const;
  [[nodiscard]] double min_overhead_pct() const;
  [[nodiscard]] double max_overhead_pct() const;
};

/// Fig. 5 over `trace`: the analytic lower bound per day, and the three
/// rows of examples/specs/fig5_worldcup.scn replayed on `trace`.
[[nodiscard]] Fig5Result run_fig5(const LoadTrace& trace);

}  // namespace bml
