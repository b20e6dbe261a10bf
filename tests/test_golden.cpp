// The fixed point, checked in: the sweep CSV of every shipped spec in
// examples/specs/ is pinned under tests/golden/<spec>.csv, and the
// deterministic `metrics:` block of the same sweep with obs.metrics on
// under tests/golden/<spec>.metrics (tools/pin_golden.sh rewrites both).
// Each spec runs through run_sweep twice: at 1 worker thread with metrics
// off, and at 4 with metrics on. Both runs must reproduce the pinned CSV
// exactly (observing a run changes no result byte), and the second the
// pinned metrics: its spans, consults, decisions, merge advances,
// span-end causes and span-length histograms are work counts that no
// host's speed can move. A CSV mismatch names the first differing cell,
// a metrics mismatch the first differing line.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"

namespace bml {
namespace {

const std::filesystem::path kSpecs = BML_SPECS_DIR;
const std::filesystem::path kGolden = BML_GOLDEN_DIR;

/// Stems of every examples/specs/*.scn, sorted.
std::vector<std::string> shipped_specs() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kSpecs))
    if (entry.path().extension() == ".scn")
      names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());
  return names;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Splits `text` on each `sep` outside double quotes.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts(1);
  bool quoted = false;
  for (const char c : text) {
    if (c == '"') quoted = !quoted;
    if (c == sep && !quoted) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

/// "line L, column C (<header>): pinned 'x', got 'y'" for the first cell
/// that differs, reading the RFC 4180 quoting the CSV writer emits.
std::string first_difference(const std::string& pinned,
                             const std::string& actual) {
  const std::vector<std::string> want = split(pinned, '\n');
  const std::vector<std::string> got = split(actual, '\n');
  const std::vector<std::string> header = split(want.front(), ',');
  for (std::size_t l = 0; l < std::max(want.size(), got.size()); ++l) {
    const std::string w = l < want.size() ? want[l] : "<missing line>";
    const std::string g = l < got.size() ? got[l] : "<missing line>";
    if (w == g) continue;
    const std::vector<std::string> wc = split(w, ',');
    const std::vector<std::string> gc = split(g, ',');
    for (std::size_t c = 0; c < std::max(wc.size(), gc.size()); ++c) {
      const std::string a = c < wc.size() ? wc[c] : "<missing cell>";
      const std::string b = c < gc.size() ? gc[c] : "<missing cell>";
      if (a == b) continue;
      return "line " + std::to_string(l + 1) + ", column " +
             std::to_string(c + 1) + " (" +
             (c < header.size() ? header[c] : "?") + "): pinned '" + a +
             "', got '" + b + "'";
    }
  }
  return "no cell differs";
}

/// "line L: pinned 'x', got 'y'" for the first line that differs.
std::string first_line_difference(const std::string& pinned,
                                  const std::string& actual) {
  const std::vector<std::string> want = split(pinned, '\n');
  const std::vector<std::string> got = split(actual, '\n');
  for (std::size_t l = 0; l < std::max(want.size(), got.size()); ++l) {
    const std::string w = l < want.size() ? want[l] : "<missing line>";
    const std::string g = l < got.size() ? got[l] : "<missing line>";
    if (w != g)
      return "line " + std::to_string(l + 1) + ": pinned '" + w + "', got '" +
             g + "'";
  }
  return "no line differs";
}

class GoldenCsv : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenCsv, MatchesPinAtOneAndFourThreads) {
  const std::string& name = GetParam();
  const std::string pinned = read_file(kGolden / (name + ".csv"));
  const std::string pinned_metrics = read_file(kGolden / (name + ".metrics"));
  ASSERT_FALSE(pinned.empty())
      << "no pinned CSV for " << name << "; run tools/pin_golden.sh";
  ASSERT_FALSE(pinned_metrics.empty())
      << "no pinned metrics for " << name << "; run tools/pin_golden.sh";
  ScenarioSpec spec = load_scenario(kSpecs / (name + ".scn"));
  for (const unsigned threads : {1u, 4u}) {
    spec.obs_metrics = threads > 1;
    const SweepReport report =
        run_sweep(spec, SweepOptions{.threads = threads});
    const std::string actual = report.to_csv();
    EXPECT_TRUE(actual == pinned)
        << name << " at " << threads
        << " threads: " << first_difference(pinned, actual);
    if (!spec.obs_metrics) continue;
    const std::string metrics = report.metrics.to_text();
    EXPECT_TRUE(metrics == pinned_metrics)
        << name << " metrics at " << threads
        << " threads: " << first_line_difference(pinned_metrics, metrics);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedSpecs, GoldenCsv, ::testing::ValuesIn(shipped_specs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace bml
