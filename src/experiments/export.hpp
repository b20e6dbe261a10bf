// CSV export of experiment results — one file per figure/table series so
// the paper's plots can be regenerated with any plotting tool.
//
//   bml::export_fig4(bml::run_fig4(), "out/");   // writes out/fig4_curves.csv
//
// Each bench binary prints human-readable tables; these exports carry the
// same data in machine-readable form (examples/export_results writes all
// six).
#pragma once

#include <filesystem>

#include "experiments/experiments.hpp"

namespace bml {

/// Writes table1.csv: measured vs truth per machine.
void export_table1(const Table1Result& result,
                   const std::filesystem::path& directory);

/// Writes fig1_profiles.csv: rate + one homogeneous power column per arch.
void export_fig1(const Fig1Result& result,
                 const std::filesystem::path& directory);

/// Writes fig2_thresholds.csv: name, step3, step4.
void export_fig2(const Fig2Result& result,
                 const std::filesystem::path& directory);

/// Writes fig3_profiles.csv: long-format name, rate, power.
void export_fig3(const Fig3Result& result,
                 const std::filesystem::path& directory);

/// Writes fig4_curves.csv: rate, bml, big_only, linear.
void export_fig4(const Fig4Result& result,
                 const std::filesystem::path& directory);

/// Writes fig5_per_day.csv: day, lower_bound, bml, per_day, global,
/// bml_overhead_pct.
void export_fig5(const Fig5Result& result,
                 const std::filesystem::path& directory);

}  // namespace bml
