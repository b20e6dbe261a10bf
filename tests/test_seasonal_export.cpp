// Tests for the seasonal predictor and the experiment CSV exporters.
#include <gtest/gtest.h>

#include "experiments/export.hpp"
#include "predict/predictor.hpp"
#include "trace/synthetic.hpp"
#include "util/csv.hpp"

namespace bml {
namespace {

TEST(SeasonalPredictor, FallsBackToTrailingMaxEarly) {
  SeasonalPredictor p(86'400.0, /*headroom=*/1.0);
  const LoadTrace trace = constant_trace(50.0, 2.0 * 86'400.0);
  // Within the first day there is no seasonal history.
  EXPECT_NEAR(p.predict(trace, 1000, 378.0), 50.0, 1e-9);
}

TEST(SeasonalPredictor, UsesSameWindowYesterday) {
  DiurnalOptions options;
  options.peak = 1000.0;
  options.noise = 0.0;
  const LoadTrace trace = diurnal_trace(options, 2);
  SeasonalPredictor p(86'400.0, /*headroom=*/1.0);
  // Day 2 at 18:00: yesterday's same window peaked at ~1000.
  const TimePoint now = kSecondsPerDay + 18 * 3600;
  EXPECT_NEAR(p.predict(trace, now, 378.0), 1000.0, 15.0);
  // Day 2 at 06:00 (trough): prediction follows the trough, not the peak.
  const TimePoint trough = kSecondsPerDay + 6 * 3600;
  EXPECT_LT(p.predict(trace, trough, 378.0), 350.0);
}

TEST(SeasonalPredictor, GrowthScalingTracksRisingDays) {
  // Day 2 is exactly twice day 1: the growth factor must scale the
  // forecast up.
  std::vector<double> rates;
  for (int d = 1; d <= 2; ++d)
    for (TimePoint s = 0; s < kSecondsPerDay; ++s)
      rates.push_back(100.0 * d);
  const LoadTrace trace(std::move(rates));
  SeasonalPredictor p(86'400.0, 1.0);
  const ReqRate predicted =
      p.predict(trace, kSecondsPerDay + 7200, 378.0);
  EXPECT_NEAR(predicted, 200.0, 1.0);  // 100 seasonal x2 growth
}

TEST(SeasonalPredictor, CoversDiurnalLoadWithHeadroom) {
  DiurnalOptions options;
  options.noise = 0.05;
  options.seed = 21;
  const LoadTrace trace = diurnal_trace(options, 3);
  SeasonalPredictor p;  // 10 % headroom
  std::size_t covered = 0, total = 0;
  for (TimePoint t = kSecondsPerDay; t + 378 < 3 * kSecondsPerDay;
       t += 977) {
    const ReqRate predicted = p.predict(trace, t, 378.0);
    const ReqRate actual = trace.max_over(t, t + 378);
    ++total;
    if (predicted >= actual) ++covered;
  }
  // Headroom + seasonality covers the vast majority of windows.
  EXPECT_GT(static_cast<double>(covered) / static_cast<double>(total), 0.95);
}

TEST(SeasonalPredictor, Validation) {
  EXPECT_THROW(SeasonalPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(SeasonalPredictor(86'400.0, 0.0), std::invalid_argument);
  SeasonalPredictor p;
  const LoadTrace trace = constant_trace(1.0, 10.0);
  EXPECT_THROW((void)p.predict(trace, 0, 0.0), std::invalid_argument);
  EXPECT_EQ(p.name(), "seasonal");
}

TEST(SeasonalPredictor, RejectsHorizonLongerThanPeriod) {
  // The window one period ago, [now - period, now - period + horizon),
  // reaches samples at or after `now` once horizon > period: a
  // history-only predictor would read the future.
  SeasonalPredictor p(300.0, 1.0);
  const LoadTrace trace = constant_trace(10.0, 2000.0);
  EXPECT_THROW((void)p.predict(trace, 1000, 378.0), std::invalid_argument);
  EXPECT_THROW((void)p.predict(trace, 10, 301.0), std::invalid_argument);
  EXPECT_THROW((void)p.cursor(trace, 378.0), std::invalid_argument);
  // A horizon of exactly one period reads [now - period, now): history.
  EXPECT_NEAR(p.predict(trace, 1000, 300.0), 10.0, 1e-9);
  EXPECT_NE(p.cursor(trace, 300.0), nullptr);
}

TEST(Export, WritesEveryFigureCsv) {
  const auto dir =
      std::filesystem::temp_directory_path() / "bml_export_test";
  std::filesystem::remove_all(dir);

  export_fig2(run_fig2(), dir);
  export_fig3(run_fig3(), dir);
  export_fig4(run_fig4(50.0), dir);
  ASSERT_TRUE(std::filesystem::exists(dir / "fig2_thresholds.csv"));
  ASSERT_TRUE(std::filesystem::exists(dir / "fig3_profiles.csv"));
  ASSERT_TRUE(std::filesystem::exists(dir / "fig4_curves.csv"));

  const CsvTable fig2 = read_csv_file(dir / "fig2_thresholds.csv", true);
  EXPECT_EQ(fig2.rows.size(), 3u);  // A, B, C
  const CsvTable fig4 = read_csv_file(dir / "fig4_curves.csv", true);
  EXPECT_EQ(fig4.header.size(), 4u);
  EXPECT_GT(fig4.rows.size(), 20u);
  // Every row respects bml <= big_only for rates >= 1.
  const std::size_t rate_col = fig4.column("rate");
  const std::size_t bml_col = fig4.column("bml");
  const std::size_t big_col = fig4.column("big_only");
  for (const auto& row : fig4.rows) {
    if (parse_double(row[rate_col]) < 1.0) continue;
    EXPECT_LE(parse_double(row[bml_col]),
              parse_double(row[big_col]) + 1e-6);
  }
  std::filesystem::remove_all(dir);
}

TEST(Export, Fig1AndFig5QuickRoundTrip) {
  const auto dir =
      std::filesystem::temp_directory_path() / "bml_export_test2";
  std::filesystem::remove_all(dir);

  export_fig1(run_fig1(), dir);
  WorldCupOptions options;
  options.days = 1;
  options.peak = 2000.0;
  export_fig5(run_fig5(worldcup_like_trace(options)), dir);

  const CsvTable fig1 = read_csv_file(dir / "fig1_profiles.csv", true);
  EXPECT_EQ(fig1.header.size(), 5u);  // rate + 4 architectures
  const CsvTable fig5 = read_csv_file(dir / "fig5_per_day.csv", true);
  ASSERT_EQ(fig5.rows.size(), 1u);
  const double lb = parse_double(fig5.rows[0][fig5.column("lower_bound_j")]);
  const double bml = parse_double(fig5.rows[0][fig5.column("bml_j")]);
  EXPECT_LE(lb, bml);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bml
