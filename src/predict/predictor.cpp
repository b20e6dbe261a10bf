#include "predict/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace bml {

namespace {

/// Whole seconds of a window, period or horizon. A value no TimePoint
/// holds (non-finite, or beyond 2^53 s) is a named error, not an
/// overflowing cast.
TimePoint whole_seconds(Seconds s, const char* what) {
  if (!(std::abs(s) <= 0x1p53))
    throw std::invalid_argument(std::string(what) +
                                " must be finite and at most 2^53 s");
  return static_cast<TimePoint>(s);
}

/// The rate at second t, 0 outside the trace: LoadTrace::at without the
/// call, for the per-second and per-sample loops below.
double rate_at(std::span<const double> rates, TimePoint t) {
  return t >= 0 && t < static_cast<TimePoint>(rates.size())
             ? rates[static_cast<std::size_t>(t)]
             : 0.0;
}

/// Maximum of the trace over the window [t + begin, t + end), equal to
/// LoadTrace::max_over on that window: samples outside the trace count as
/// 0, which no rate is below. A query one second after the previous one
/// slides the window by the van Herk/Gil-Werman scheme: the time line is
/// cut into blocks as wide as the window, so a window is a suffix of one
/// block plus a prefix of the next. Entering a block fills its suffix
/// maxima in one backward pass (the only array, as wide as the window);
/// the prefix max of the next block is folded as the window's end
/// advances. Each step is branch-free max, so a pass over n seconds costs
/// O(n) whatever the noise. Any other query — a jump ahead, a repeat or a
/// restart — is one indexed max_over and leaves the sliding state alone,
/// so sparse queries cost no more than the index lookup; so is every
/// query of a window wider than the trace, which would not repay a block
/// array that size.
class SlidingMax {
 public:
  SlidingMax(const LoadTrace& trace, TimePoint begin, TimePoint end)
      : trace_(trace),
        begin_(begin),
        width_(std::max<TimePoint>(end - begin, 0)),
        slides_(width_ > 0 &&
                width_ <= static_cast<TimePoint>(trace.size())),
        suffix_(slides_ ? static_cast<std::size_t>(width_) : 0) {}

  [[nodiscard]] double value(TimePoint t) {
    const bool step = t == last_ + 1;
    last_ = t;
    const TimePoint start = t + begin_;
    const TimePoint end = start + width_;
    if (!step || !slides_) return trace_.max_over(start, end);
    if (start < block_ || start >= block_ + width_ || folded_ > end)
      enter_block(start);
    for (; folded_ < end; ++folded_)
      prefix_ = std::max(prefix_, sample(folded_));
    return std::max(suffix_[static_cast<std::size_t>(start - block_)],
                    prefix_);
  }

 private:
  [[nodiscard]] double sample(TimePoint i) const {
    return rate_at(trace_.series().values(), i);
  }

  /// Makes the block holding `start` current: its suffix maxima, and an
  /// empty prefix of the block after it.
  void enter_block(TimePoint start) {
    TimePoint offset = start % width_;
    if (offset < 0) offset += width_;
    block_ = start - offset;
    double max = 0.0;
    for (TimePoint i = width_ - 1; i >= 0; --i) {
      max = std::max(max, sample(block_ + i));
      suffix_[static_cast<std::size_t>(i)] = max;
    }
    prefix_ = 0.0;
    folded_ = block_ + width_;
  }

  const LoadTrace& trace_;
  TimePoint begin_;
  TimePoint width_;
  bool slides_;
  std::vector<double> suffix_;  // max over [block_ + i, block_ + width_)
  TimePoint block_ = 0;         // first second of the current block
  double prefix_ = 0.0;         // max over [block_ + width_, folded_)
  // Past every window until a block is entered.
  TimePoint folded_ = std::numeric_limits<TimePoint>::max();
  TimePoint last_ = -2;  // no query yet: the first one is not a step
};

/// PredictionCursor over a class whose evaluate(t) is visible here, so
/// first_outside() steps second by second with no virtual call per
/// second. `settled_from` is the first time from which evaluate() no
/// longer changes: every sample the prediction reads lies past the trace
/// end.
template <typename Derived>
class SteppingCursor : public PredictionCursor {
 public:
  explicit SteppingCursor(TimePoint settled_from)
      : settled_from_(settled_from) {}

  [[nodiscard]] ReqRate value(TimePoint t) final {
    return self().evaluate(t);
  }

  [[nodiscard]] PredictionBounds bounds(TimePoint t) final {
    const ReqRate v = self().evaluate(t);
    return {v, v};
  }

  [[nodiscard]] TimePoint first_outside(TimePoint t, ReqRate lo,
                                        ReqRate hi) final {
    const TimePoint from = t;
    while (t < settled_from_) {
      const ReqRate v = self().evaluate(++t);
      if (v < lo || !(v < hi)) {
        work_.walk_seconds += static_cast<std::uint64_t>(t - from);
        return t;
      }
    }
    work_.walk_seconds += static_cast<std::uint64_t>(t - from);
    return std::numeric_limits<TimePoint>::max();
  }

 private:
  [[nodiscard]] Derived& self() { return static_cast<Derived&>(*this); }

  TimePoint settled_from_;
};

/// Cursor over one sliding window max [t + begin, t + end) with
/// begin <= 0 <= end: the oracle and moving-max predictors. value() slides
/// the window; first_outside() needs no window max at all, because a max
/// leaves [lo, hi) exactly when a sample >= hi enters or the last sample
/// >= lo leaves. It reads each entering sample at most once and crosses
/// whole blocks of the trace's range-max index when their max allows.
class WindowMaxCursor final : public PredictionCursor {
 public:
  WindowMaxCursor(const LoadTrace& trace, TimePoint begin, TimePoint end)
      : trace_(trace), begin_(begin), end_(end), window_(trace, begin, end) {}

  [[nodiscard]] ReqRate value(TimePoint t) override {
    return window_.value(t);
  }

  [[nodiscard]] PredictionBounds bounds(TimePoint t) override {
    const ReqRate v = window_.value(t);
    return {v, v};
  }

  [[nodiscard]] TimePoint first_outside(TimePoint t, ReqRate lo,
                                        ReqRate hi) override {
    // The samples read one at a time below (crossed blocks not counted).
    TimePoint stepped = 0;
    const auto walked = [&](TimePoint at) {
      work_.walk_seconds += static_cast<std::uint64_t>(stepped);
      return at;
    };
    const TimeSeries& series = trace_.series();
    const auto n = static_cast<TimePoint>(series.size());
    const std::span<const double> x = series.values();
    const std::span<const double> blocks = series.block_maxima();
    constexpr auto kBlock = static_cast<TimePoint>(TimeSeries::kMaxBlock);
    const TimePoint width = end_ - begin_;
    // Sample `next` enters the window at next - end + 1; the window holds
    // sample i until i - begin + 1, the time returned when i is the
    // anchor: the latest sample >= lo. With lo <= 0 every sample, the
    // implicit zeros included, qualifies and the window never drops below
    // lo; otherwise value(t) >= lo > 0 puts one in the window at t.
    TimePoint next = t + end_;
    TimePoint anchor = std::min(next, n) - 1;
    if (lo > 0.0)
      while (anchor >= 0 && x[static_cast<std::size_t>(anchor)] < lo) {
        const auto b = static_cast<std::size_t>(anchor / kBlock);
        const bool block_last = (anchor + 1) % kBlock == 0;
        anchor -= block_last && b < blocks.size() && blocks[b] < lo ? kBlock
                                                                    : 1;
      }
    while (next < n) {
      // An index block whose max is below hi and that the anchor outlives
      // is crossed at once (a noisy trace mostly, a constant run always):
      // only its last sample >= lo, if any, matters.
      const auto b = static_cast<std::size_t>(next / kBlock);
      const TimePoint block_end = std::min((next / kBlock + 1) * kBlock, n);
      if (next % kBlock == 0 && b < blocks.size() && blocks[b] < hi &&
          anchor > block_end - 1 - width) {
        if (blocks[b] >= lo) {
          anchor = block_end - 1;
          while (x[static_cast<std::size_t>(anchor)] < lo) --anchor;
        }
        next = block_end;
        continue;
      }
      for (; next < block_end; ++next) {
        ++stepped;
        const double v = x[static_cast<std::size_t>(next)];
        if (!(v < hi)) return walked(next - end_ + 1);
        anchor = v >= lo ? next : anchor;
        if (anchor <= next - width) return walked(anchor - begin_ + 1);
      }
    }
    // Only the implicit zeros enter from here on.
    if (lo <= 0.0) return walked(std::numeric_limits<TimePoint>::max());
    return walked(anchor - begin_ + 1);
  }

 private:
  const LoadTrace& trace_;
  TimePoint begin_;
  TimePoint end_;
  SlidingMax window_;
};

/// Cursor of the last-value predictor: predict(t) reads at(t - 1), which
/// is 0 from t = size + 1 on.
class LastValueCursor final : public SteppingCursor<LastValueCursor> {
 public:
  explicit LastValueCursor(const LoadTrace& trace)
      : SteppingCursor(static_cast<TimePoint>(trace.size()) + 1),
        rates_(trace.series().values()) {}

  [[nodiscard]] ReqRate evaluate(TimePoint t) const {
    return rate_at(rates_, t - 1);
  }

 private:
  std::span<const double> rates_;
};

/// Trailing window of the seasonal predictor's day-over-day growth ratio.
constexpr TimePoint kGrowthWindow = 3600;

/// Whole seconds of the seasonal horizon; rejects a horizon whose window
/// one period ago would reach samples at or after `now`.
TimePoint seasonal_horizon(TimePoint period, Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: horizon must be > 0");
  const TimePoint h = whole_seconds(horizon, "SeasonalPredictor: horizon");
  if (h > period)
    throw std::invalid_argument(
        "SeasonalPredictor: horizon must not exceed the period (the window "
        "one period ago would read samples at or after now)");
  return h;
}

/// The seasonal window's max scaled by the headroom and the recent
/// day-over-day growth (ratio of the trailing hour to the same hour one
/// period ago), clamped to [0.5, 3] to keep one outlier from exploding
/// the forecast.
ReqRate seasonal_forecast(double headroom, ReqRate seasonal, ReqRate recent,
                          ReqRate recent_yesterday) {
  double growth = 1.0;
  if (recent_yesterday > 0.0 && recent > 0.0)
    growth = std::clamp(recent / recent_yesterday, 0.5, 3.0);
  return headroom * growth * seasonal;
}

/// The seasonal predictor's warm-up window and the three windows of its
/// forecast, each slid on its own. From size + period on, the window one
/// period ago lies past the trace end and the forecast is 0.
class SeasonalCursor final : public SteppingCursor<SeasonalCursor> {
 public:
  SeasonalCursor(const LoadTrace& trace, TimePoint period, TimePoint h,
                 double headroom)
      : SteppingCursor(static_cast<TimePoint>(trace.size()) + period),
        period_(period),
        headroom_(headroom),
        warm_up_(trace, -h, 0),
        seasonal_(trace, -period, -period + h),
        recent_(trace, -kGrowthWindow, 0),
        recent_yesterday_(trace, -period - kGrowthWindow, -period) {}

  [[nodiscard]] ReqRate evaluate(TimePoint t) {
    if (t < period_) return headroom_ * warm_up_.value(t);
    return seasonal_forecast(headroom_, seasonal_.value(t), recent_.value(t),
                             recent_yesterday_.value(t));
  }

 private:
  TimePoint period_;
  double headroom_;
  SlidingMax warm_up_;
  SlidingMax seasonal_;
  SlidingMax recent_;
  SlidingMax recent_yesterday_;
};

TimePoint oracle_horizon(Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("OracleMaxPredictor: horizon must be > 0");
  return whole_seconds(horizon, "OracleMaxPredictor: horizon");
}

/// Least-squares sums of rates against x = t - begin over a window of the
/// trace. LinearTrendPredictor::predict() and its cursor build them with
/// the same add() and read them with the same extrapolate(), so the two
/// cannot drift apart.
struct TrendSums {
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;

  /// Adds the samples of [from, to) at x = t - begin, in time order.
  void add(const LoadTrace& trace, TimePoint begin, TimePoint from,
           TimePoint to) {
    const std::span<const double> rates = trace.series().values();
    for (TimePoint t = from; t < to; ++t) {
      const double x = static_cast<double>(t - begin);
      const double y = rate_at(rates, t);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
  }

  /// The fit over n samples at x = 0 .. n - 1, extrapolated to the end of
  /// the horizon.
  [[nodiscard]] double extrapolate(double n, Seconds horizon) const {
    const double denom = n * sxx - sx * sx;
    const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
    const double intercept = (sy - slope * sx) / n;
    const double x_end = n - 1.0 + horizon;
    return intercept + slope * x_end;
  }
};

/// The linear-trend prediction at `now` from the sums over its window, the
/// last `n` seconds: the extrapolation, where a rising trend predicts
/// higher and a falling one never predicts below the most recent
/// observation.
ReqRate trend_prediction(const LoadTrace& trace, TimePoint now, TimePoint n,
                         const TrendSums& sums, Seconds horizon) {
  if (now <= 1) return now == 1 ? trace.at(0) : 0.0;
  return std::max({0.0, sums.extrapolate(static_cast<double>(n), horizon),
                   trace.at(now - 1)});
}

/// The first time past the trace end from which the linear-trend
/// prediction is 0 for good: the first t > size whose window holds at
/// least three zeros per trace sample (n >= 4 m below), or size + window,
/// where it holds zeros alone. Past the end every sample that enters the
/// window is 0, so n, the window's width, grows and m, the trace samples
/// still in it, shrinks: once reached, the condition holds.
///
/// Why the prediction is 0 there. Let the window hold n samples at
/// x = 0 .. n - 1, the first m of them from the trace, with sum Y. Y = 0
/// makes every sum exactly 0, and so the prediction. Otherwise n >= 4,
/// and in real arithmetic Z = sum x y <= (m - 1) Y, so
/// n Z - X Y <= n Y (2m - 1 - n) / 2 <= -n^2 Y / 4 for X = n (n - 1) / 2,
/// the slope (over D = n^2 (n^2 - 1) / 12) is at most -3 Y / n^2, and
/// ext = Y / n + slope ((n - 1) / 2 + h) < 0 for a horizon h >= 0.
/// predict() computes it with rounding (u = 2^-53, first order in u, as
/// in LinearTrendCursor's enclosure, whose n <= 2^43 gives n u <=
/// 2^-10). Its sums of the nonnegative terms y, x y, x and x^2 are within
/// a relative n u of the exact ones, and its denominator within 14 n u,
/// so the computed slope lies in [-10 Y / n^2, -2.9 Y / n^2]. The
/// intercept (sy - slope sx) / n then lies within 11 u Y of
/// (Y + |slope| X) / n, and slope x_end within 21 u Y (n - 1 + h) / n^2
/// of its exact product, so before its last rounding the extrapolation
/// is at most (Y / n^2) (1.45 - 0.45 n + 11 u n^2 + 21 u n)
/// + (Y h / n^2) (21 u - 2.9) < 0 for 4 <= n <= 2^43. Rounding keeps it
/// <= 0, and the last observed value is 0 past the end, so predict()
/// returns max(0, ext, 0) = 0.
TimePoint trend_zero_from(TimePoint size, TimePoint window, Seconds horizon) {
  if (!(horizon >= 0.0)) return size + window;
  if (4 * size <= window) return std::max(size + 1, 4 * size);
  return size + (3 * window + 3) / 4;
}

/// Cursor of the linear-trend predictor. It holds predict()'s sums for one
/// time p and moves them a second at a time, so first_outside() costs O(1)
/// per second:
/// - while the window grows (p <= window, begin = 0), by adding sample
///   p - 1 as predict()'s loop does: the sums, and every value read from
///   them, are predict()'s bit for bit;
/// - once it slides, by dropping the oldest sample and adding the newest,
///   Y' = (Y - y_out) + y_in and Z' = (Z + n y_in) - Y' for Y = sum y and
///   Z = sum x y. sx and sxx depend on n alone and keep predict()'s
///   values. Rounding parts Y and Z from predict()'s by a bounded amount,
///   so an enclosure of the prediction answers bounds(), and
///   first_outside() steps on only where the enclosure lies wholly inside
///   [lo, hi), returns where it lies wholly outside, and refits otherwise.
/// A query at a later time slides there when the enclosure still covers
/// it. A refit computes the sums afresh with predict()'s loop: after
/// `window` slides, at a time the sums cannot reach by appends or slides,
/// where the enclosure cannot decide, and wherever value() reads slid
/// sums, so value() always answers from predict()'s sums.
class LinearTrendCursor final : public PredictionCursor {
 public:
  LinearTrendCursor(const LoadTrace& trace, TimePoint window, Seconds horizon)
      : trace_(trace),
        rates_(trace.series().values()),
        window_(window),
        horizon_(horizon),
        enclosure_(kEnclosureK * 0x1p-53 *
                   (1.0 + std::abs(static_cast<double>(window) - 1.0 +
                                   horizon) /
                              static_cast<double>(window))),
        settled_from_(trend_zero_from(static_cast<TimePoint>(trace.size()),
                                      window, horizon)) {}

  [[nodiscard]] ReqRate value(TimePoint t) override {
    // A one-point interval is the value itself.
    if (t != latest_time_ || latest_.lo != latest_.hi) {
      if (t > p_ && t <= window_)
        move_to(t);  // appends: the sums slide only past window_
      else if (t != p_ || !exact_)
        refit(t);
      latest_time_ = t;
      const ReqRate v = prediction();
      latest_ = {v, v};
    }
    return latest_.lo;
  }

  [[nodiscard]] PredictionBounds bounds(TimePoint t) override {
    if (t != latest_time_) {
      move_to(t);
      latest_time_ = t;
      if (!exact_) {
        if (const std::optional<PredictionBounds> b = enclose()) {
          latest_ = *b;
          return latest_;
        }
        refit(t);
      }
      const ReqRate v = prediction();
      latest_ = {v, v};
    }
    return latest_;
  }

  [[nodiscard]] TimePoint first_outside(TimePoint t, ReqRate lo,
                                        ReqRate hi) override {
    while (t < settled_from_) {
      move_to(++t);
      if (!exact_) {
        if (const std::optional<PredictionBounds> b = enclose()) {
          if (b->hi < lo || !(b->lo < hi)) {
            latest_time_ = t;
            latest_ = *b;
            return t;
          }
          if (b->lo >= lo && b->hi < hi) continue;
        }
        refit(t);
      }
      const ReqRate v = prediction();
      if (v < lo || !(v < hi)) {
        latest_time_ = t;
        latest_ = {v, v};
        return t;
      }
    }
    return std::numeric_limits<TimePoint>::max();
  }

 private:
  // The enclosure's half-width is r = K u Yb (1 + |x_end| / n): a bound on
  // |ext - e| for the extrapolation ext read from slid sums and the e
  // predict() computes at the same second, with u = 2^-53 and Yb the
  // largest window sum since the last exact sums. Samples are >= 0, so
  // every |sum y| <= Yb and |sum x y| <= n Yb. First order in u throughout
  // (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.: one
  // relative error <= u per operation, §2.2; gamma_k ~ k u, §3.1). The
  // dropped (1 + O(n u)) factors, Yb's own rounding among them, stay
  // below 1.05 while n <= 2^43; a sliding window that wide is never
  // reached (that takes 2^43 steps, or a fit of 2^43 samples).
  // - Shared terms. n, sx = X, sxx, denom = D and x_end depend on n and
  //   the horizon alone, and both sides compute them with the same loop
  //   and tail: the same doubles. Their rounding (denom stops being an
  //   exact integer near n = 1.3e4, sxx near 3e5) enters only through
  //   X <= n^2 / 2 and D >= n^4 / 16 (D = n^2 (n^2 - 1) / 12 exactly, and
  //   the computed one is within a relative 14 n u of it).
  // - predict()'s sums, by recursive summation (§4.2) and one rounding
  //   per product x y (§3.1): |sy - Y| <= gamma_{n-1} Y <= n u Yb and
  //   |sxy - Z| <= gamma_n Z <= n^2 u Yb for the exact sums Y and Z.
  // - The slid sums start from a refit, with predict()'s bounds. A slide
  //   adds at most u |Y - y_out| + u |Y'| <= 2 u Yb to Y's error, and to
  //   Z's the error of Y' plus u (n y_in + |Z + n y_in| + |Z'|)
  //   <= 4 n u Yb. After k <= n slides, |dY| <= n u Yb + 2 k u Yb
  //   <= 3 n u Yb and |dZ| <= n^2 u Yb + sum_{i <= k} (n u Yb + 2 i u Yb
  //   + 4 n u Yb) <= 7.5 n^2 u Yb (n >= 2). So the slid sums and
  //   predict()'s differ by at most 4 n u Yb in Y and 8.5 n^2 u Yb in Z.
  // - The fit, as a real function of (Y, Z) over the shared terms, is
  //   linear: ext = Y / n + (n Z - X Y) (x_end - X / n) / D. The sums'
  //   difference moves it by at most 4 u Yb + 16 (8.5 + 2) n^3 u Yb
  //   (|x_end| + n / 2) / n^4 = 88 u Yb + 168 u Yb |x_end| / n.
  // - extrapolate()'s own nine roundings, on each side, with
  //   |n Z - X Y| <= 1.5 n^2 Yb and |slope| <= 24 Yb / n^2, add at most
  //   (87 + 120 |x_end| / n) u Yb / n <= (44 + 60 |x_end| / n) u Yb.
  // In all |ext - e| <= 176 u Yb + 288 u Yb |x_end| / n, so K = 288
  // would do; K = 2048 leaves 7x slack, which costs only refits.
  static constexpr double kEnclosureK = 2048.0;

  /// Brings the sums to time t: exact appends while the window grows,
  /// slides to a later time within the enclosure's reach, a refit
  /// otherwise.
  void move_to(TimePoint t) {
    if (t == p_) return;
    if (t > p_ && t <= window_) {
      work_.walk_seconds += static_cast<std::uint64_t>(t - p_);
      sums_.add(trace_, 0, p_, t);
      p_ = t;
    } else if (t > p_ && p_ >= window_ && t - p_ <= window_ - slides_) {
      work_.walk_seconds += static_cast<std::uint64_t>(t - p_);
      while (p_ < t) slide();
    } else {
      refit(t);
    }
  }

  void slide() {
    if (exact_) y_bound_ = sums_.sy;
    const double out = rate_at(rates_, p_ - window_);
    const double in = rate_at(rates_, p_);
    sums_.sy = (sums_.sy - out) + in;
    sums_.sxy = (sums_.sxy + static_cast<double>(window_) * in) - sums_.sy;
    y_bound_ = std::max(y_bound_, sums_.sy);
    ++slides_;
    ++p_;
    exact_ = false;
  }

  /// predict()'s sums at t, from its own loop.
  void refit(TimePoint t) {
    ++work_.refits;
    const TimePoint begin = std::max<TimePoint>(0, t - window_);
    sums_ = TrendSums{};
    sums_.add(trace_, begin, begin, t);
    p_ = t;
    slides_ = 0;
    exact_ = true;
  }

  /// An interval holding predict()'s value at p_, from slid sums;
  /// nullopt where the enclosure is not finite.
  [[nodiscard]] std::optional<PredictionBounds> enclose() const {
    const double ext =
        sums_.extrapolate(static_cast<double>(window_), horizon_);
    const double r = enclosure_ * y_bound_;
    if (!std::isfinite(ext + r)) return std::nullopt;
    // max(0, ext, last) is monotone in ext, so these bound predict().
    const ReqRate last = rate_at(rates_, p_ - 1);
    return PredictionBounds{std::max({0.0, ext - r, last}),
                            std::max({0.0, ext + r, last})};
  }

  /// predict()'s value at p_; the sums must be exact.
  [[nodiscard]] ReqRate prediction() const {
    return trend_prediction(trace_, p_, std::min(p_, window_), sums_,
                            horizon_);
  }

  const LoadTrace& trace_;
  std::span<const double> rates_;
  TimePoint window_;
  Seconds horizon_;
  double enclosure_;  // r / Yb
  TimePoint settled_from_;
  TrendSums sums_;       // over the window of p_
  TimePoint p_ = 0;
  bool exact_ = true;    // sums_ are predict()'s at p_, bit for bit
  TimePoint slides_ = 0;  // since the sums were last exact
  double y_bound_ = 0.0;  // Yb: the largest sum y since then
  TimePoint latest_time_ = -1;
  PredictionBounds latest_;  // holds the value at latest_time_
};

}  // namespace

void OracleMaxPredictor::rebuild_cache(const LoadTrace& trace,
                                       Seconds horizon) {
  const std::size_t n = trace.size();
  SlidingMax window(trace, 0, oracle_horizon(horizon));
  window_max_.resize(n);
  for (std::size_t t = 0; t < n; ++t)
    window_max_[t] = window.value(static_cast<TimePoint>(t));
  cached_trace_ = &trace;
  cached_size_ = n;
  cached_horizon_ = horizon;
}

ReqRate OracleMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds horizon) {
  (void)oracle_horizon(horizon);
  if (now < 0) throw std::invalid_argument("OracleMaxPredictor: now < 0");
  if (cached_trace_ != &trace || cached_size_ != trace.size() ||
      cached_horizon_ != horizon)
    rebuild_cache(trace, horizon);
  const auto t = static_cast<std::size_t>(now);
  if (t >= window_max_.size()) return 0.0;
  return window_max_[t];
}

std::unique_ptr<PredictionCursor> OracleMaxPredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  return std::make_unique<WindowMaxCursor>(trace, 0, oracle_horizon(horizon));
}

ReqRate LastValuePredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  if (now <= 0) return 0.0;
  return trace.at(now - 1);
}

std::unique_ptr<PredictionCursor> LastValuePredictor::cursor(
    const LoadTrace& trace, Seconds /*horizon*/) const {
  return std::make_unique<LastValueCursor>(trace);
}

MovingMaxPredictor::MovingMaxPredictor(Seconds window) {
  if (window <= 0.0)
    throw std::invalid_argument("MovingMaxPredictor: window must be > 0");
  window_ = whole_seconds(window, "MovingMaxPredictor: window");
}

ReqRate MovingMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  return trace.max_over(now - window_, now);
}

std::unique_ptr<PredictionCursor> MovingMaxPredictor::cursor(
    const LoadTrace& trace, Seconds /*horizon*/) const {
  return std::make_unique<WindowMaxCursor>(trace, -window_, 0);
}

EwmaPredictor::EwmaPredictor(double alpha, double headroom)
    : alpha_(alpha), headroom_(headroom) {
  if (alpha_ <= 0.0 || alpha_ > 1.0)
    throw std::invalid_argument("EwmaPredictor: alpha must be in (0,1]");
  if (headroom_ <= 0.0)
    throw std::invalid_argument("EwmaPredictor: headroom must be > 0");
}

ReqRate EwmaPredictor::predict(const LoadTrace& trace, TimePoint now,
                               Seconds /*horizon*/) {
  // Catch up on any history samples not yet folded into the state. The
  // predictor is usually called once per second, making this a single step.
  if (now <= 0) return 0.0;
  const TimePoint start = primed_ ? last_now_ + 1 : std::max<TimePoint>(1, now);
  for (TimePoint t = start; t <= now; ++t) {
    const double sample = trace.at(t - 1);
    if (!primed_) {
      state_ = sample;
      primed_ = true;
    } else {
      state_ = alpha_ * sample + (1.0 - alpha_) * state_;
    }
  }
  last_now_ = now;
  return headroom_ * state_;
}

LinearTrendPredictor::LinearTrendPredictor(Seconds window) {
  if (window < 2.0)
    throw std::invalid_argument(
        "LinearTrendPredictor: window must cover >= 2 samples");
  window_ = whole_seconds(window, "LinearTrendPredictor: window");
}

ReqRate LinearTrendPredictor::predict(const LoadTrace& trace, TimePoint now,
                                      Seconds horizon) {
  // Least squares of rate against time over [begin, now).
  const TimePoint begin = std::max<TimePoint>(0, now - window_);
  TrendSums sums;
  sums.add(trace, begin, begin, now);
  return trend_prediction(trace, now, now - begin, sums, horizon);
}

std::unique_ptr<PredictionCursor> LinearTrendPredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  return std::make_unique<LinearTrendCursor>(trace, window_, horizon);
}

SeasonalPredictor::SeasonalPredictor(Seconds period, double headroom)
    : headroom_(headroom) {
  if (period <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: period must be > 0");
  period_ = whole_seconds(period, "SeasonalPredictor: period");
  if (headroom_ <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: headroom must be > 0");
}

ReqRate SeasonalPredictor::predict(const LoadTrace& trace, TimePoint now,
                                   Seconds horizon) {
  const TimePoint h = seasonal_horizon(period_, horizon);
  if (now < period_) {
    // Not a full period of history yet: trailing max is the safest guess.
    return headroom_ * trace.max_over(now - h, now);
  }
  // Same window one period ago, scaled by the recent growth.
  return seasonal_forecast(
      headroom_, trace.max_over(now - period_, now - period_ + h),
      trace.max_over(now - kGrowthWindow, now),
      trace.max_over(now - period_ - kGrowthWindow, now - period_));
}

std::unique_ptr<PredictionCursor> SeasonalPredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  return std::make_unique<SeasonalCursor>(
      trace, period_, seasonal_horizon(period_, horizon), headroom_);
}

ErrorInjectingPredictor::ErrorInjectingPredictor(
    std::unique_ptr<Predictor> inner, double sigma, double bias,
    std::uint64_t seed)
    : inner_(std::move(inner)), sigma_(sigma), bias_(bias), rng_(seed) {
  if (!inner_)
    throw std::invalid_argument("ErrorInjectingPredictor: null inner");
  if (sigma_ < 0.0)
    throw std::invalid_argument("ErrorInjectingPredictor: sigma must be >= 0");
}

ReqRate ErrorInjectingPredictor::predict(const LoadTrace& trace, TimePoint now,
                                         Seconds horizon) {
  const ReqRate base = inner_->predict(trace, now, horizon);
  const double factor = 1.0 + bias_ + (sigma_ > 0.0 ? rng_.normal(0.0, sigma_)
                                                    : 0.0);
  return std::max(0.0, base * factor);
}

std::string ErrorInjectingPredictor::name() const {
  return inner_->name() + "+error";
}

}  // namespace bml
