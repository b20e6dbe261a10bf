// Load predictors.
//
// The scheduler asks, at time t, for the load it must be able to serve over
// the next `horizon` seconds. The paper "emulate[s] a load prediction
// mechanism by considering a sliding look-ahead window... the maximum load
// value over a window of 378 seconds, equivalent to 2 times the longest On
// duration" — that is OracleMaxPredictor. Reactive predictors (history
// only) and an error-injection wrapper implement the paper's future-work
// study of prediction errors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bml {

/// An interval [lo, hi] that holds a prediction.
struct PredictionBounds {
  ReqRate lo = 0.0;
  ReqRate hi = 0.0;
};

/// Deterministic work counters of a prediction cursor, for the metrics
/// work ledger: `refits` counts linear-trend window refits (O(window)
/// each), `walk_seconds` the seconds a cursor stepped one at a time (its
/// first_outside() walks, and linear-trend's slides and appends to a
/// later query).
struct PredictionWork {
  std::uint64_t refits = 0;
  std::uint64_t walk_seconds = 0;

  PredictionWork& operator+=(const PredictionWork& other) {
    refits += other.refits;
    walk_seconds += other.walk_seconds;
    return *this;
  }
};

/// Forward cursor over one pure predictor's output on one trace and
/// horizon: value(t) == predict(trace, t, horizon), bit for bit, for every
/// t >= 0 in any order. It is built for the scheduler's decision walks,
/// which query non-decreasing times: stepping a second costs the
/// sliding-window and linear-trend predictors O(1) amortised with no
/// per-second arrays, and any other query one range-max lookup per window
/// (linear-trend: one least-squares fit, or slides to a later time that
/// its rounding enclosure still covers). The cursor reads the trace it
/// was built on, which must outlive it.
class PredictionCursor {
 public:
  virtual ~PredictionCursor() = default;

  [[nodiscard]] virtual ReqRate value(TimePoint t) = 0;

  /// An interval that holds value(t), for a caller that needs only which
  /// side of a cut value(t) falls on. Exact cursors answer the point
  /// [value(t), value(t)]; linear-trend may answer the rounding enclosure
  /// of its slid sums where value(t) would refit. A caller whose cut
  /// falls inside the interval reads value(t).
  [[nodiscard]] virtual PredictionBounds bounds(TimePoint t) = 0;

  /// Given value(t) in [lo, hi): the first time after `t` whose value
  /// falls outside [lo, hi), or max() when none does. This is the
  /// scheduler's walk to the next decision change, with the threshold
  /// bucket mapped back to predictions; the cursor may answer it without
  /// computing every value in between.
  [[nodiscard]] virtual TimePoint first_outside(TimePoint t, ReqRate lo,
                                                ReqRate hi) = 0;

  /// The work this cursor has done so far.
  [[nodiscard]] const PredictionWork& work() const { return work_; }

 protected:
  PredictionWork work_;
};

/// Interface: predicted *maximum* load over [now, now + horizon).
class Predictor {
 public:
  virtual ~Predictor() = default;

  /// Predicts the maximum rate over the look-ahead window. Implementations
  /// document whether they peek at the future (oracle) or only at history
  /// (trace samples strictly before `now`).
  [[nodiscard]] virtual ReqRate predict(const LoadTrace& trace, TimePoint now,
                                        Seconds horizon) = 0;

  /// A cursor equal to predict() on `trace` at `horizon`, or nullptr when
  /// predict() keeps per-call state (EWMA, error injection): such a
  /// predictor must see every call its scheduler makes, so nothing may
  /// probe it ahead of time. Validates `horizon` as predict() does.
  [[nodiscard]] virtual std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const {
    (void)trace;
    (void)horizon;
    return nullptr;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The paper's emulated predictor: true maximum over the look-ahead window
/// (reads the future — an oracle). predict() reads a per-second array of
/// window maxima built on first use (O(n) once, O(1) per query) for
/// callers that ask at arbitrary times, such as the cost-aware scheduler
/// and error injection. The cursor slides the window instead and builds
/// no array.
class OracleMaxPredictor final : public Predictor {
 public:
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  [[nodiscard]] std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "oracle-max"; }

 private:
  void rebuild_cache(const LoadTrace& trace, Seconds horizon);

  const void* cached_trace_ = nullptr;
  std::size_t cached_size_ = 0;
  Seconds cached_horizon_ = 0.0;
  std::vector<double> window_max_;  // max over [t, t + horizon) per t
};

/// Last observed value (history only).
class LastValuePredictor final : public Predictor {
 public:
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// One trace read per second.
  [[nodiscard]] std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "last-value"; }
};

/// Maximum over the trailing `window` seconds of history; a safe reactive
/// stand-in for the oracle when the load is cyclic.
class MovingMaxPredictor final : public Predictor {
 public:
  explicit MovingMaxPredictor(Seconds window);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// Slides the trailing window: O(1) amortised per second.
  [[nodiscard]] std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "moving-max"; }

 private:
  TimePoint window_;
};

/// Exponentially weighted moving average of history with a safety factor:
/// prediction = headroom * EWMA. alpha in (0, 1]; larger = more reactive.
/// predict() folds the history up to `now` into its state, so it has no
/// cursor.
class EwmaPredictor final : public Predictor {
 public:
  EwmaPredictor(double alpha, double headroom = 1.2);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  [[nodiscard]] std::string name() const override { return "ewma"; }

 private:
  double alpha_;
  double headroom_;
  bool primed_ = false;
  double state_ = 0.0;
  TimePoint last_now_ = -1;
};

/// Least-squares linear trend over the trailing `window` seconds,
/// extrapolated to the end of the horizon; never below the last value.
class LinearTrendPredictor final : public Predictor {
 public:
  explicit LinearTrendPredictor(Seconds window);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// Keeps predict()'s least-squares sums and moves them a second at a
  /// time: exact appends while the window grows, O(1) slides once it is
  /// full, whose rounding-error enclosure answers bounds() and most
  /// first_outside() steps, and an O(window) refit where the enclosure
  /// cannot decide, wherever value() is read after slides, and after
  /// `window` slides. Past the trace end its walks stop once the window
  /// holds 3 zeros per sample, from where the prediction is 0.
  [[nodiscard]] std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "linear-trend"; }

 private:
  TimePoint window_;
};

/// Seasonal (diurnal) predictor: the maximum observed over the same
/// window one period ago (default period: 24 h), scaled by a headroom
/// factor and the day-over-day growth of recent load. History only —
/// a practical stand-in for the oracle on strongly diurnal workloads like
/// the World Cup trace. Falls back to the trailing window max while less
/// than one full period of history exists. A horizon longer than the
/// period would reach samples at or after `now`, so predict() and cursor()
/// reject it.
class SeasonalPredictor final : public Predictor {
 public:
  explicit SeasonalPredictor(Seconds period = 86'400.0,
                             double headroom = 1.1);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  /// Slides the warm-up window and the three windows of the forecast
  /// (same window one period ago, trailing hour, same hour one period
  /// ago): O(1) amortised per second.
  [[nodiscard]] std::unique_ptr<PredictionCursor> cursor(
      const LoadTrace& trace, Seconds horizon) const override;
  [[nodiscard]] std::string name() const override { return "seasonal"; }

 private:
  TimePoint period_;
  double headroom_;
};

/// Wraps a predictor and perturbs its output with multiplicative Gaussian
/// error (sigma = relative error stddev) plus optional constant bias.
/// Results are clamped at 0. Deterministic given the seed. This is the
/// instrument for the paper's "impact of load prediction errors" question.
/// Every predict() draws from the generator, so it has no cursor.
class ErrorInjectingPredictor final : public Predictor {
 public:
  ErrorInjectingPredictor(std::unique_ptr<Predictor> inner, double sigma,
                          double bias, std::uint64_t seed);
  [[nodiscard]] ReqRate predict(const LoadTrace& trace, TimePoint now,
                                Seconds horizon) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::unique_ptr<Predictor> inner_;
  double sigma_;
  double bias_;
  Rng rng_;
};

}  // namespace bml
