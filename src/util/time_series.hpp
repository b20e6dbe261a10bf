// Fixed-rate time series container.
//
// Both load traces (req/s sampled at 1 Hz) and recorded power draws
// (W sampled at 1 Hz by the simulator) are fixed-rate series starting at
// t = 0. TimeSeries stores the samples contiguously and provides the
// aggregations the experiments need (per-day slices, integrals).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace bml {

/// Fixed-rate (default 1 Hz) series of doubles indexed by integer seconds.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values, Seconds step = 1.0);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] Seconds step() const { return step_; }
  [[nodiscard]] Seconds duration() const {
    return step_ * static_cast<double>(values_.size());
  }

  [[nodiscard]] double operator[](std::size_t i) const { return values_[i]; }
  [[nodiscard]] double at(std::size_t i) const;
  [[nodiscard]] std::span<const double> values() const { return values_; }

  void push_back(double v) {
    values_.push_back(v);
    if (!max_table_.empty()) max_table_.clear();
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  /// Maximum over index range [begin, end) clamped to the series length;
  /// returns 0 for an empty range. This is the paper's sliding look-ahead
  /// "max over window" predictor primitive. O(window) without an index;
  /// O(kMaxBlock) after build_max_index().
  [[nodiscard]] double max_over(std::size_t begin, std::size_t end) const;

  /// Builds the block + sparse-table range-max index that makes max_over
  /// O(kMaxBlock) instead of O(window). Results are identical to the
  /// un-indexed scan (ties keep the leftmost value, like max_element).
  /// Call once after the series is fully populated; push_back discards
  /// the index. Not thread-safe against concurrent max_over calls.
  void build_max_index();

  /// Samples per range-max index block: large enough that the index is
  /// ~1.6% of the series, small enough that partial-block scans stay in
  /// one or two cache lines.
  static constexpr std::size_t kMaxBlock = 64;

  /// The index's per-block maxima — block b covers samples
  /// [b * kMaxBlock, (b + 1) * kMaxBlock), the last one partial — so a
  /// scan can skip blocks whose maximum rules them out. Empty without an
  /// index (series shorter than 4 blocks, or none built).
  [[nodiscard]] std::span<const double> block_maxima() const {
    if (max_table_.empty()) return {};
    return max_table_.front();
  }

  /// Sum of samples times step — the integral. For a power series this is
  /// the energy in Joules.
  [[nodiscard]] double integral() const;

  /// Integral over index range [begin, end) clamped to the series length.
  [[nodiscard]] double integral_over(std::size_t begin, std::size_t end) const;

  [[nodiscard]] double max() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double mean() const;

 private:
  /// Leftmost maximum of the non-empty block range [lo, hi) via the
  /// sparse table (two overlapping power-of-two spans).
  [[nodiscard]] double blocks_max(std::size_t lo, std::size_t hi) const;

  std::vector<double> values_;
  Seconds step_ = 1.0;
  // max_table_[j][i] = leftmost max over blocks [i, i + 2^j); level 0 is
  // the per-block maxima. Empty until build_max_index().
  std::vector<std::vector<double>> max_table_;
};

}  // namespace bml
