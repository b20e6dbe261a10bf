#include "scenario/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sched/baselines.hpp"
#include "sched/bml_scheduler.hpp"
#include "sched/cost_aware.hpp"
#include "trace/synthetic.hpp"
#include "trace/transforms.hpp"
#include "trace/wc98.hpp"
#include "util/csv.hpp"

namespace bml {

namespace {

/// Typed access to a component's parameter map with consumed-key tracking:
/// finish() rejects parameters the factory never looked at, so a typo like
/// `trace.peek` fails loudly instead of silently running the defaults.
class ParamReader {
 public:
  ParamReader(std::string context,
              const std::map<std::string, std::string>& params)
      : context_(std::move(context)), params_(params) {}

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.push_back(key);
    return it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.push_back(key);
    try {
      return parse_double(it->second);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(context_ + ": bad value for '" + key +
                               "': " + e.what());
    }
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.push_back(key);
    try {
      return parse_int(it->second);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(context_ + ": bad value for '" + key +
                               "': " + e.what());
    }
  }

  /// Counts and seeds: a negative value is an error, never a size_t wrap.
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback) {
    const std::int64_t v =
        get_int(key, static_cast<std::int64_t>(fallback));
    if (v < 0)
      throw std::runtime_error(context_ + ": bad value for '" + key +
                               "': must be >= 0");
    return static_cast<std::uint64_t>(v);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.push_back(key);
    if (it->second == "true") return true;
    if (it->second == "false") return false;
    throw std::runtime_error(context_ + ": bad value for '" + key +
                             "': expected true or false");
  }

  /// `;`-separated list of doubles, e.g. match_hours = 14.5;17.5;21.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key, std::vector<double> fallback) {
    const auto it = params_.find(key);
    if (it == params_.end()) return fallback;
    consumed_.push_back(key);
    std::vector<double> out;
    std::istringstream in(it->second);
    std::string item;
    while (std::getline(in, item, ';')) {
      try {
        out.push_back(parse_double(item));
      } catch (const std::runtime_error& e) {
        throw std::runtime_error(context_ + ": bad value for '" + key +
                                 "': " + e.what());
      }
    }
    return out;
  }

  /// Throws when a provided parameter was never consumed.
  void finish() const {
    for (const auto& [key, value] : params_) {
      if (std::find(consumed_.begin(), consumed_.end(), key) ==
          consumed_.end())
        throw std::runtime_error(context_ + ": unknown parameter '" + key +
                                 "'");
    }
  }

 private:
  std::string context_;
  const std::map<std::string, std::string>& params_;
  std::vector<std::string> consumed_;
};

[[noreturn]] void unknown_component(const std::string& kind,
                                    const std::string& name,
                                    const std::vector<ComponentInfo>& known) {
  std::string message = "unknown " + kind + " '" + name + "'; expected one of";
  for (std::size_t i = 0; i < known.size(); ++i)
    message += (i == 0 ? " " : ", ") + known[i].name;
  throw std::runtime_error(message);
}

}  // namespace

std::vector<ComponentInfo> catalog_components() {
  return {
      {"real", "the five Table I machines (Paravance...Raspberry)"},
      {"illustrative", "the A/B/C/D architectures of Fig. 1"},
      {"file", "catalog CSV: file=<path>"},
  };
}

std::vector<ComponentInfo> trace_components() {
  return {
      {"constant", "rate, duration"},
      {"step", "segments=rate:duration;rate:duration;..."},
      {"diurnal", "days, peak, trough_fraction, peak_hour, noise, seed"},
      {"flash_crowd",
       "base, burst_peak, duration, burst_start, ramp, hold"},
      {"worldcup_like", "days, peak, ... (every WorldCupOptions knob)"},
      {"file", "recorded trace: file=<path> (CSV or WC98), origin"},
  };
}

std::vector<ComponentInfo> predictor_components() {
  return {
      {"oracle-max", "true max over the look-ahead window (the paper's)"},
      {"last-value", "last observed rate"},
      {"moving-max", "max over trailing window; window"},
      {"ewma", "exponential average; alpha, headroom"},
      {"linear-trend", "least-squares trend; window"},
      {"seasonal", "same window one period ago; period, headroom"},
  };
}

std::vector<ComponentInfo> scheduler_components() {
  return {
      {"bml", "the paper's pro-active BML scheduler; window"},
      {"cost-aware", "weighs switch cost vs savings; window, payback_window"},
      {"reactive", "ideal combination for the current load; headroom"},
      {"hysteresis", "BML + scale-down damping; hold, window"},
      {"static-max", "UpperBound Global: constant Big fleet"},
      {"per-day", "UpperBound PerDay: Big fleet resized at midnight"},
  };
}

Catalog make_catalog(const std::string& name,
                     const std::map<std::string, std::string>& params) {
  ParamReader reader("catalog " + name, params);
  Catalog catalog;
  if (name == "real") {
    catalog = real_catalog();
  } else if (name == "illustrative") {
    catalog = illustrative_catalog();
  } else if (name == "file") {
    const std::string path = reader.get_string("file", "");
    if (path.empty())
      throw std::runtime_error("catalog file: missing 'file' parameter");
    catalog = load_catalog(path);
  } else {
    unknown_component("catalog", name, catalog_components());
  }
  reader.finish();
  return catalog;
}

LoadTrace make_trace(const std::string& name,
                     const std::map<std::string, std::string>& params,
                     std::uint64_t seed) {
  ParamReader reader("trace " + name, params);
  LoadTrace trace;
  if (name == "constant") {
    const double rate = reader.get_double("rate", 100.0);
    const double duration = reader.get_double("duration", 3600.0);
    trace = constant_trace(rate, duration);
  } else if (name == "step") {
    const std::string text = reader.get_string("segments", "");
    if (text.empty())
      throw std::runtime_error("trace step: missing 'segments' parameter");
    std::vector<StepSegment> segments;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ';')) {
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos)
        throw std::runtime_error(
            "trace step: segments must be rate:duration;... , got '" + item +
            "'");
      segments.push_back({parse_double(item.substr(0, colon)),
                          parse_double(item.substr(colon + 1))});
    }
    trace = step_trace(segments);
  } else if (name == "diurnal") {
    DiurnalOptions options;
    const auto days = static_cast<std::size_t>(reader.get_uint("days", 1));
    options.peak = reader.get_double("peak", options.peak);
    options.trough_fraction =
        reader.get_double("trough_fraction", options.trough_fraction);
    options.peak_hour = reader.get_double("peak_hour", options.peak_hour);
    options.noise = reader.get_double("noise", options.noise);
    options.seed = reader.get_uint("seed", seed);
    trace = diurnal_trace(options, days);
  } else if (name == "flash_crowd") {
    FlashCrowdOptions options;
    options.base = reader.get_double("base", options.base);
    options.burst_peak = reader.get_double("burst_peak", options.burst_peak);
    options.duration = reader.get_double("duration", options.duration);
    options.burst_start =
        reader.get_double("burst_start", options.burst_start);
    options.ramp = reader.get_double("ramp", options.ramp);
    options.hold = reader.get_double("hold", options.hold);
    trace = flash_crowd_trace(options);
  } else if (name == "worldcup_like") {
    WorldCupOptions o;
    o.days = static_cast<std::size_t>(reader.get_uint("days", o.days));
    o.peak = reader.get_double("peak", o.peak);
    o.base_fraction = reader.get_double("base_fraction", o.base_fraction);
    o.tournament_start_day = static_cast<std::size_t>(
        reader.get_uint("tournament_start_day", o.tournament_start_day));
    o.tournament_end_day = static_cast<std::size_t>(
        reader.get_uint("tournament_end_day", o.tournament_end_day));
    o.diurnal_trough = reader.get_double("diurnal_trough", o.diurnal_trough);
    o.match_hours = reader.get_double_list("match_hours", o.match_hours);
    o.match_boost = reader.get_double("match_boost", o.match_boost);
    o.match_duration = reader.get_double("match_duration", o.match_duration);
    o.news_burst_prob_per_day =
        reader.get_double("news_burst_prob_per_day", o.news_burst_prob_per_day);
    o.news_burst_min_amplitude = reader.get_double("news_burst_min_amplitude",
                                                   o.news_burst_min_amplitude);
    o.news_burst_max_amplitude = reader.get_double("news_burst_max_amplitude",
                                                   o.news_burst_max_amplitude);
    o.news_burst_min_duration = reader.get_double("news_burst_min_duration",
                                                  o.news_burst_min_duration);
    o.news_burst_max_duration = reader.get_double("news_burst_max_duration",
                                                  o.news_burst_max_duration);
    o.news_burst_ramp = reader.get_double("news_burst_ramp", o.news_burst_ramp);
    o.micro_bursts_per_day =
        reader.get_double("micro_bursts_per_day", o.micro_bursts_per_day);
    o.micro_burst_min_amplitude = reader.get_double(
        "micro_burst_min_amplitude", o.micro_burst_min_amplitude);
    o.micro_burst_max_amplitude = reader.get_double(
        "micro_burst_max_amplitude", o.micro_burst_max_amplitude);
    o.micro_burst_min_duration = reader.get_double("micro_burst_min_duration",
                                                   o.micro_burst_min_duration);
    o.micro_burst_max_duration = reader.get_double("micro_burst_max_duration",
                                                   o.micro_burst_max_duration);
    o.noise = reader.get_double("noise", o.noise);
    o.poisson_arrivals = reader.get_bool("poisson_arrivals", o.poisson_arrivals);
    o.seed = reader.get_uint("seed", seed);
    trace = worldcup_like_trace(o);
  } else if (name == "file") {
    const std::string path = reader.get_string("file", "");
    if (path.empty())
      throw std::runtime_error("trace file: missing 'file' parameter");
    const auto origin = static_cast<TimePoint>(reader.get_int("origin", 0));
    trace = load_any(path, origin);
  } else {
    unknown_component("trace", name, trace_components());
  }
  // Composable post-generator transforms, applied seasonality-first so
  // spikes ride on top of the shaped envelope rather than being scaled
  // by it. Sub-keys are only consumed when their channel is enabled, so
  // a stray `seasonal.peak_hour` without an amplitude fails loudly in
  // finish() instead of being silently dropped.
  const double seasonal_diurnal = reader.get_double("seasonal.diurnal", 0.0);
  const double seasonal_weekly = reader.get_double("seasonal.weekly", 0.0);
  if (seasonal_diurnal > 0.0 || seasonal_weekly > 0.0) {
    const double peak_hour = reader.get_double("seasonal.peak_hour", 18.0);
    trace = compose_seasonality(trace, seasonal_diurnal, seasonal_weekly,
                                peak_hour);
  }
  const double spike_interarrival =
      reader.get_double("spikes.interarrival", 0.0);
  if (spike_interarrival > 0.0) {
    const double magnitude = reader.get_double("spikes.magnitude", 100.0);
    const double alpha = reader.get_double("spikes.alpha", 1.5);
    const auto duration =
        static_cast<std::size_t>(reader.get_uint("spikes.duration", 60));
    const std::uint64_t spike_seed = reader.get_uint("spikes.seed", seed);
    trace = add_spikes(trace, spike_interarrival, magnitude, alpha, duration,
                       spike_seed);
  }
  reader.finish();
  // An empty trace would replay no second and report everything served.
  if (trace.empty())
    throw std::runtime_error("trace " + name + ": the trace is empty");
  return trace;
}

std::shared_ptr<Predictor> make_predictor(
    const std::string& name, const std::map<std::string, std::string>& params,
    std::uint64_t seed) {
  ParamReader reader("predictor " + name, params);
  std::unique_ptr<Predictor> predictor;
  if (name == "oracle-max") {
    predictor = std::make_unique<OracleMaxPredictor>();
  } else if (name == "last-value") {
    predictor = std::make_unique<LastValuePredictor>();
  } else if (name == "moving-max") {
    predictor =
        std::make_unique<MovingMaxPredictor>(reader.get_double("window", 378.0));
  } else if (name == "ewma") {
    predictor = std::make_unique<EwmaPredictor>(
        reader.get_double("alpha", 0.3), reader.get_double("headroom", 1.2));
  } else if (name == "linear-trend") {
    predictor = std::make_unique<LinearTrendPredictor>(
        reader.get_double("window", 600.0));
  } else if (name == "seasonal") {
    predictor = std::make_unique<SeasonalPredictor>(
        reader.get_double("period", 86'400.0),
        reader.get_double("headroom", 1.1));
  } else {
    unknown_component("predictor", name, predictor_components());
  }
  const double sigma = reader.get_double("error_sigma", 0.0);
  const double bias = reader.get_double("error_bias", 0.0);
  const std::uint64_t error_seed = reader.get_uint("error_seed", seed);
  reader.finish();
  if (sigma != 0.0 || bias != 0.0)
    return std::make_shared<ErrorInjectingPredictor>(std::move(predictor),
                                                     sigma, bias, error_seed);
  return predictor;
}

namespace {

/// Index of the design's Big machine in its candidate list (the fleet unit
/// of the upper-bound baselines).
std::size_t big_index(const BmlDesign& design) {
  const std::string& name = design.big().name();
  const Catalog& candidates = design.candidates();
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (candidates[i].name() == name) return i;
  throw std::logic_error("registry: design has no Big candidate");
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, const std::map<std::string, std::string>& params,
    std::shared_ptr<const BmlDesign> design,
    std::shared_ptr<Predictor> predictor, QosClass qos) {
  ParamReader reader("scheduler " + name, params);
  std::unique_ptr<Scheduler> scheduler;
  if (name == "bml") {
    scheduler = std::make_unique<BmlScheduler>(
        design, std::move(predictor), reader.get_double("window", 0.0), qos);
  } else if (name == "cost-aware") {
    scheduler = std::make_unique<CostAwareScheduler>(
        design, std::move(predictor), ApplicationModel{}, MigrationModel{},
        reader.get_double("window", 0.0),
        reader.get_double("payback_window", 0.0));
  } else if (name == "reactive") {
    scheduler = std::make_unique<ReactiveScheduler>(
        design, reader.get_double("headroom", 1.0));
  } else if (name == "hysteresis") {
    auto inner = std::make_shared<BmlScheduler>(
        design, std::move(predictor), reader.get_double("window", 0.0), qos);
    scheduler = std::make_unique<HysteresisScheduler>(
        std::move(inner), design, reader.get_double("hold", 300.0));
  } else if (name == "static-max") {
    scheduler =
        std::make_unique<StaticMaxScheduler>(design->big(), big_index(*design));
  } else if (name == "per-day") {
    scheduler =
        std::make_unique<PerDayScheduler>(design->big(), big_index(*design));
  } else {
    unknown_component("scheduler", name, scheduler_components());
  }
  reader.finish();
  return scheduler;
}

bool scheduler_reads_predictor(const std::string& name) {
  return name != "reactive" && name != "static-max" && name != "per-day";
}

}  // namespace bml
