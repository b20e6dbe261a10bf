#include "predict/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

namespace bml {

namespace {

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
    return i >= 0 && i < static_cast<TimePoint>(trace_.size())
               ? trace_.series()[static_cast<std::size_t>(i)]
               : 0.0;
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

  [[nodiscard]] TimePoint first_outside(TimePoint t, ReqRate lo,
                                        ReqRate hi) final {
    while (t < settled_from_) {
      const ReqRate v = self().evaluate(++t);
      if (v < lo || !(v < hi)) return t;
    }
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

  [[nodiscard]] TimePoint first_outside(TimePoint t, ReqRate lo,
                                        ReqRate hi) override {
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
        const double v = x[static_cast<std::size_t>(next)];
        if (!(v < hi)) return next - end_ + 1;
        anchor = v >= lo ? next : anchor;
        if (anchor <= next - width) return anchor - begin_ + 1;
      }
    }
    // Only the implicit zeros enter from here on.
    if (lo <= 0.0) return std::numeric_limits<TimePoint>::max();
    return anchor - begin_ + 1;
  }

 private:
  const LoadTrace& trace_;
  TimePoint begin_;
  TimePoint end_;
  SlidingMax window_;
};

/// Cursor of a predictor whose predict() is cheap or has no streaming
/// form: evaluate() calls predict() on a copy of the predictor, once per
/// second — the latest reading is kept, because the scheduler reads the
/// second first_outside() stopped at again.
template <typename P>
class CallingCursor final : public SteppingCursor<CallingCursor<P>> {
 public:
  CallingCursor(const P& predictor, const LoadTrace& trace, Seconds horizon,
                TimePoint settled_from)
      : SteppingCursor<CallingCursor<P>>(settled_from),
        predictor_(predictor),
        trace_(trace),
        horizon_(horizon) {}

  [[nodiscard]] ReqRate evaluate(TimePoint t) {
    if (t != latest_time_) {
      latest_time_ = t;
      latest_ = predictor_.predict(trace_, t, horizon_);
    }
    return latest_;
  }

 private:
  P predictor_;
  const LoadTrace& trace_;
  Seconds horizon_;
  TimePoint latest_time_ = -1;
  ReqRate latest_ = 0.0;
};

/// Trailing window of the seasonal predictor's day-over-day growth ratio.
constexpr TimePoint kGrowthWindow = 3600;

/// Whole seconds of the seasonal period and horizon; rejects a horizon
/// whose window one period ago would reach samples at or after `now`.
std::pair<TimePoint, TimePoint> seasonal_windows(Seconds period,
                                                 Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: horizon must be > 0");
  const auto p = static_cast<TimePoint>(period);
  const auto h = static_cast<TimePoint>(horizon);
  if (h > p)
    throw std::invalid_argument(
        "SeasonalPredictor: horizon must not exceed the period (the window "
        "one period ago would read samples at or after now)");
  return {p, h};
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

void check_oracle_horizon(Seconds horizon) {
  if (horizon <= 0.0)
    throw std::invalid_argument("OracleMaxPredictor: horizon must be > 0");
}

}  // namespace

void OracleMaxPredictor::rebuild_cache(const LoadTrace& trace,
                                       Seconds horizon) {
  const std::size_t n = trace.size();
  SlidingMax window(trace, 0, static_cast<TimePoint>(horizon));
  window_max_.resize(n);
  for (std::size_t t = 0; t < n; ++t)
    window_max_[t] = window.value(static_cast<TimePoint>(t));
  cached_trace_ = &trace;
  cached_size_ = n;
  cached_horizon_ = horizon;
}

ReqRate OracleMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds horizon) {
  check_oracle_horizon(horizon);
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
  check_oracle_horizon(horizon);
  return std::make_unique<WindowMaxCursor>(trace, 0,
                                            static_cast<TimePoint>(horizon));
}

ReqRate LastValuePredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  if (now <= 0) return 0.0;
  return trace.at(now - 1);
}

std::unique_ptr<PredictionCursor> LastValuePredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  // predict(t) reads at(t - 1), which is 0 from t = size + 1 on.
  return std::make_unique<CallingCursor<LastValuePredictor>>(
      *this, trace, horizon, static_cast<TimePoint>(trace.size()) + 1);
}

MovingMaxPredictor::MovingMaxPredictor(Seconds window) : window_(window) {
  if (window_ <= 0.0)
    throw std::invalid_argument("MovingMaxPredictor: window must be > 0");
}

ReqRate MovingMaxPredictor::predict(const LoadTrace& trace, TimePoint now,
                                    Seconds /*horizon*/) {
  const TimePoint begin = now - static_cast<TimePoint>(window_);
  return trace.max_over(begin, now);
}

std::unique_ptr<PredictionCursor> MovingMaxPredictor::cursor(
    const LoadTrace& trace, Seconds /*horizon*/) const {
  return std::make_unique<WindowMaxCursor>(
      trace, -static_cast<TimePoint>(window_), 0);
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

LinearTrendPredictor::LinearTrendPredictor(Seconds window) : window_(window) {
  if (window_ < 2.0)
    throw std::invalid_argument(
        "LinearTrendPredictor: window must cover >= 2 samples");
}

ReqRate LinearTrendPredictor::predict(const LoadTrace& trace, TimePoint now,
                                      Seconds horizon) {
  if (now <= 1) return now == 1 ? trace.at(0) : 0.0;
  const TimePoint begin =
      std::max<TimePoint>(0, now - static_cast<TimePoint>(window_));
  const auto n = static_cast<double>(now - begin);
  if (n < 2.0) return trace.at(now - 1);

  // Least squares of rate against time over [begin, now).
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (TimePoint t = begin; t < now; ++t) {
    const double x = static_cast<double>(t - begin);
    const double y = trace.at(t);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / n;
  // Extrapolate to the end of the horizon; a rising trend predicts higher,
  // a falling one never predicts below the most recent observation.
  const double x_end = n - 1.0 + horizon;
  const double extrapolated = intercept + slope * x_end;
  return std::max({0.0, extrapolated, trace.at(now - 1)});
}

std::unique_ptr<PredictionCursor> LinearTrendPredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  // Past size + window the trailing window holds only the implicit zeros.
  return std::make_unique<CallingCursor<LinearTrendPredictor>>(
      *this, trace, horizon,
      static_cast<TimePoint>(trace.size()) + static_cast<TimePoint>(window_));
}

SeasonalPredictor::SeasonalPredictor(Seconds period, double headroom)
    : period_(period), headroom_(headroom) {
  if (period_ <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: period must be > 0");
  if (headroom_ <= 0.0)
    throw std::invalid_argument("SeasonalPredictor: headroom must be > 0");
}

ReqRate SeasonalPredictor::predict(const LoadTrace& trace, TimePoint now,
                                   Seconds horizon) {
  const auto [period, h] = seasonal_windows(period_, horizon);
  if (now < period) {
    // Not a full period of history yet: trailing max is the safest guess.
    return headroom_ * trace.max_over(now - h, now);
  }
  // Same window one period ago, scaled by the recent growth.
  return seasonal_forecast(
      headroom_, trace.max_over(now - period, now - period + h),
      trace.max_over(now - kGrowthWindow, now),
      trace.max_over(now - period - kGrowthWindow, now - period));
}

std::unique_ptr<PredictionCursor> SeasonalPredictor::cursor(
    const LoadTrace& trace, Seconds horizon) const {
  const auto [period, h] = seasonal_windows(period_, horizon);
  return std::make_unique<SeasonalCursor>(trace, period, h, headroom_);
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
