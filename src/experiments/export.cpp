#include "experiments/export.hpp"

#include "util/csv.hpp"

namespace bml {

namespace {

void ensure_directory(const std::filesystem::path& directory) {
  std::filesystem::create_directories(directory);
}

}  // namespace

void export_table1(const Table1Result& result,
                   const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  w.set_header({"name", "measured_max_perf", "truth_max_perf",
                "measured_idle_w", "truth_idle_w", "measured_max_w",
                "truth_max_w", "on_s", "on_j", "off_s", "off_j"});
  for (const ProfiledArch& row : result.rows) {
    w.add_row(std::vector<std::string>{
        row.truth.name(), std::to_string(row.measured.max_perf()),
        std::to_string(row.truth.max_perf()),
        std::to_string(row.measured.idle_power()),
        std::to_string(row.truth.idle_power()),
        std::to_string(row.measured.max_power()),
        std::to_string(row.truth.max_power()),
        std::to_string(row.measured.on_cost().duration),
        std::to_string(row.measured.on_cost().energy),
        std::to_string(row.measured.off_cost().duration),
        std::to_string(row.measured.off_cost().energy)});
  }
  w.write_file(directory / "table1.csv");
}

void export_fig1(const Fig1Result& result,
                 const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  std::vector<std::string> header{"rate"};
  for (const ArchitectureProfile& arch : result.input)
    header.push_back(arch.name());
  w.set_header(std::move(header));
  const std::size_t points = result.homogeneous_series.front().size();
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<double> row{static_cast<double>(i) * result.rate_step};
    for (const auto& series : result.homogeneous_series)
      row.push_back(series[i]);
    w.add_row(row);
  }
  w.write_file(directory / "fig1_profiles.csv");
}

void export_fig2(const Fig2Result& result,
                 const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  w.set_header({"name", "step3_threshold", "step4_threshold"});
  for (std::size_t i = 0; i < result.names.size(); ++i)
    w.add_row(std::vector<std::string>{result.names[i],
                                       std::to_string(result.step3[i]),
                                       std::to_string(result.step4[i])});
  w.write_file(directory / "fig2_thresholds.csv");
}

void export_fig3(const Fig3Result& result,
                 const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  w.set_header({"name", "rate", "power"});
  for (const Fig3Series& series : result.series)
    for (std::size_t i = 0; i < series.rates.size(); ++i)
      w.add_row(std::vector<std::string>{series.name,
                                         std::to_string(series.rates[i]),
                                         std::to_string(series.powers[i])});
  w.write_file(directory / "fig3_profiles.csv");
}

void export_fig4(const Fig4Result& result,
                 const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  w.set_header({"rate", "bml", "big_only", "bml_linear"});
  for (std::size_t i = 0; i < result.rates.size(); ++i)
    w.add_row(std::vector<double>{result.rates[i], result.bml[i],
                                  result.big_only[i], result.linear[i]});
  w.write_file(directory / "fig4_curves.csv");
}

void export_fig5(const Fig5Result& result,
                 const std::filesystem::path& directory) {
  ensure_directory(directory);
  CsvWriter w;
  w.set_header({"day", "lower_bound_j", "bml_j", "per_day_bound_j",
                "global_bound_j", "bml_overhead_pct"});
  for (std::size_t d = 0; d < result.lower_bound.size(); ++d) {
    w.add_row(std::vector<double>{
        static_cast<double>(d), result.lower_bound[d], result.bml[d],
        result.per_day_bound[d], result.global_bound[d],
        result.bml_overhead_pct[d]});
  }
  w.write_file(directory / "fig5_per_day.csv");
}

}  // namespace bml
