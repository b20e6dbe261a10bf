#include "util/time_series.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bml {

TimeSeries::TimeSeries(std::vector<double> values, Seconds step)
    : values_(std::move(values)), step_(step) {
  if (step_ <= 0.0)
    throw std::invalid_argument("TimeSeries: step must be positive");
}

double TimeSeries::at(std::size_t i) const {
  if (i >= values_.size())
    throw std::out_of_range("TimeSeries: index out of range");
  return values_[i];
}

double TimeSeries::max_over(std::size_t begin, std::size_t end) const {
  begin = std::min(begin, values_.size());
  end = std::min(end, values_.size());
  if (begin >= end) return 0.0;
  if (!max_table_.empty()) {
    const std::size_t b0 = begin / kMaxBlock;
    const std::size_t b1 = (end - 1) / kMaxBlock;
    if (b1 > b0 + 1) {
      // Partial head block, whole middle blocks via the sparse table,
      // partial tail block — combined left-to-right with ties keeping
      // the left value, so the result matches the plain scan exactly.
      double m = *std::max_element(
          values_.begin() + static_cast<std::ptrdiff_t>(begin),
          values_.begin() + static_cast<std::ptrdiff_t>((b0 + 1) * kMaxBlock));
      const double mid = blocks_max(b0 + 1, b1);
      if (m < mid) m = mid;
      const double tail = *std::max_element(
          values_.begin() + static_cast<std::ptrdiff_t>(b1 * kMaxBlock),
          values_.begin() + static_cast<std::ptrdiff_t>(end));
      if (m < tail) m = tail;
      return m;
    }
  }
  return *std::max_element(values_.begin() + static_cast<std::ptrdiff_t>(begin),
                           values_.begin() + static_cast<std::ptrdiff_t>(end));
}

void TimeSeries::build_max_index() {
  max_table_.clear();
  const std::size_t n = values_.size();
  if (n < 4 * kMaxBlock) return;  // the plain scan is already cheap
  const std::size_t blocks = (n + kMaxBlock - 1) / kMaxBlock;
  std::vector<double> level(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kMaxBlock;
    const std::size_t hi = std::min(lo + kMaxBlock, n);
    level[b] = *std::max_element(
        values_.begin() + static_cast<std::ptrdiff_t>(lo),
        values_.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  max_table_.push_back(std::move(level));
  for (std::size_t span = 2; span <= blocks; span *= 2) {
    const std::vector<double>& prev = max_table_.back();
    std::vector<double> next(blocks - span + 1);
    for (std::size_t i = 0; i + span <= blocks; ++i) {
      const double left = prev[i];
      const double right = prev[i + span / 2];
      next[i] = left < right ? right : left;
    }
    max_table_.push_back(std::move(next));
  }
}

double TimeSeries::blocks_max(std::size_t lo, std::size_t hi) const {
  const std::size_t len = hi - lo;
  std::size_t j = 0;
  while ((std::size_t{2} << j) <= len) ++j;  // j = floor(log2(len))
  const double left = max_table_[j][lo];
  const double right = max_table_[j][hi - (std::size_t{1} << j)];
  return left < right ? right : left;
}

double TimeSeries::integral() const {
  return integral_over(0, values_.size());
}

double TimeSeries::integral_over(std::size_t begin, std::size_t end) const {
  begin = std::min(begin, values_.size());
  end = std::min(end, values_.size());
  if (begin >= end) return 0.0;
  const double sum = std::accumulate(
      values_.begin() + static_cast<std::ptrdiff_t>(begin),
      values_.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
  return sum * step_;
}

double TimeSeries::max() const {
  if (values_.empty()) throw std::logic_error("TimeSeries::max: empty");
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::min() const {
  if (values_.empty()) throw std::logic_error("TimeSeries::min: empty");
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::mean() const {
  if (values_.empty()) throw std::logic_error("TimeSeries::mean: empty");
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

}  // namespace bml
