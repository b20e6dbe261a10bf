#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/run_length.hpp"

namespace bml {

static_assert(LoadTrace::kMaxSeconds + 1 == kRunNeverEnds,
              "every run end of a trace is below the never-ends mark");

void check_trace_seconds(const std::string& what, double seconds) {
  if (std::floor(seconds) <= static_cast<double>(LoadTrace::kMaxSeconds))
    return;
  std::ostringstream os;
  os << what << " is " << seconds << " s, past the " << LoadTrace::kMaxSeconds
     << " s a LoadTrace holds";
  throw std::invalid_argument(os.str());
}

LoadTrace::LoadTrace(std::vector<double> rates) {
  if (rates.size() > kMaxSeconds)
    throw std::invalid_argument(
        "LoadTrace: trace too long for packed 32-bit run ends");
  // One branch-free pass validates, folds -0.0 into +0.0 (so every sample
  // of a run carries the run's bits) and counts the changes, so the
  // run-end index is sized exactly: it never holds a growth-doubled
  // buffer next to the samples.
  bool valid = true;
  std::size_t changes = 0;
  double prev = rates.empty() ? 0.0 : rates.front() + 0.0;
  for (double& r : rates) {
    const double x = r + 0.0;  // -0.0 + 0.0 is +0.0; other values keep bits
    valid &= x >= 0.0 && x <= std::numeric_limits<double>::max();  // no NaN
    changes += x != prev;
    prev = x;
    r = x;
  }
  if (!valid)
    throw std::invalid_argument("LoadTrace: rates must be finite and >= 0");
  series_ = TimeSeries(std::move(rates), 1.0);
  series_.build_max_index();
  const std::size_t n = series_.size();
  if (n == 0) return;
  run_ends_.reserve(changes + 1);
  // The count is exact, so the scan stops at the last change.
  for (std::size_t i = 1; run_ends_.size() < changes; ++i)
    if (series_[i] != series_[i - 1])
      run_ends_.push_back(static_cast<std::uint32_t>(i));
  // Tail rule, packed: beyond the end the trace serves the implicit 0,
  // which only counts as a change when the tail value is non-zero.
  run_ends_.push_back(series_[n - 1] == 0.0 ? kRunNeverEnds
                                            : static_cast<std::uint32_t>(n));
}

ReqRate LoadTrace::at(TimePoint t) const {
  if (t < 0) throw std::invalid_argument("LoadTrace: negative time");
  const auto idx = static_cast<std::size_t>(t);
  if (idx >= series_.size()) return 0.0;
  return series_[idx];
}

ReqRate LoadTrace::max_over(TimePoint begin, TimePoint end) const {
  if (begin < 0) begin = 0;
  if (end <= begin) return 0.0;
  return series_.max_over(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end));
}

TimePoint LoadTrace::next_change(TimePoint t) const {
  if (t < 0) throw std::invalid_argument("LoadTrace: negative time");
  const auto idx = static_cast<std::size_t>(t);
  if (idx >= series_.size()) {
    // Beyond the end the trace serves 0 forever: no further change.
    return std::numeric_limits<TimePoint>::max();
  }
  return run_end(run_ends_, run_index(run_ends_, idx));
}

ReqRate LoadTrace::peak() const {
  // The range-max index answers the whole trace exactly (the plain scan
  // below 4 blocks); 0 for an empty trace.
  return series_.max_over(0, series_.size());
}

ReqRate LoadTrace::mean() const {
  return series_.empty() ? 0.0 : series_.mean();
}

std::size_t LoadTrace::days() const {
  const auto day = static_cast<std::size_t>(kSecondsPerDay);
  return (series_.size() + day - 1) / day;
}

ReqRate LoadTrace::day_peak(std::size_t d) const {
  if (d >= days()) throw std::out_of_range("LoadTrace: day out of range");
  const auto day = static_cast<std::size_t>(kSecondsPerDay);
  return series_.max_over(d * day, (d + 1) * day);
}

std::string LoadTrace::to_csv() const {
  std::ostringstream os;
  os << "rate\n";
  os.precision(10);
  for (std::size_t i = 0; i < series_.size(); ++i) os << series_[i] << '\n';
  return os.str();
}

LoadTrace LoadTrace::from_csv(const std::string& text) {
  const CsvTable table = parse_csv(text, /*has_header=*/true);
  const std::size_t col = table.column("rate");
  std::vector<double> rates;
  rates.reserve(table.rows.size());
  for (const auto& row : table.rows) rates.push_back(parse_double(row[col]));
  return LoadTrace(std::move(rates));
}

void LoadTrace::save(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("LoadTrace: cannot open " + path.string());
  out << to_csv();
}

LoadTrace LoadTrace::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("LoadTrace: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_csv(buffer.str());
}

}  // namespace bml
