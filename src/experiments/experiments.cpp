#include "experiments/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/crossing.hpp"
#include "profiling/profiler.hpp"
#include "sched/lower_bound.hpp"
#include "scenario/sweep.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace bml {

// ---------------------------------------------------------------- Table I

double ProfiledArch::worst_relative_error() const {
  const double perf =
      std::abs(measured.max_perf() - truth.max_perf()) / truth.max_perf();
  const double idle =
      std::abs(measured.idle_power() - truth.idle_power()) /
      truth.idle_power();
  const double peak =
      std::abs(measured.max_power() - truth.max_power()) / truth.max_power();
  return std::max({perf, idle, peak});
}

Table1Result run_table1(std::uint64_t seed) {
  Table1Result result;
  const Catalog truth = real_catalog();
  Profiler profiler;
  std::uint64_t machine_seed = seed;
  for (const ArchitectureProfile& arch : truth) {
    SimulatedMachine machine(MachineSpec(arch), machine_seed++);
    result.rows.push_back(ProfiledArch{profiler.profile(machine), arch});
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 1

Fig1Result run_fig1() {
  Fig1Result result;
  result.input = illustrative_catalog();
  FilterResult filtered = filter_candidates(result.input);
  result.kept = std::move(filtered.candidates);
  result.removed = std::move(filtered.removed);
  for (const ArchitectureProfile& arch : result.input) {
    std::vector<Watts> series;
    for (ReqRate r = 0.0; r <= result.max_rate; r += result.rate_step)
      series.push_back(homogeneous_cost(arch, r));
    result.homogeneous_series.push_back(std::move(series));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 2

Fig2Result run_fig2() {
  Fig2Result result{BmlDesign::build(illustrative_catalog()), {}, {}, {}};
  const BmlDesign& design = result.design;
  for (std::size_t i = 0; i < design.candidates().size(); ++i) {
    result.names.push_back(design.candidates()[i].name());
    result.step3.push_back(design.step3_thresholds()[i]);
    result.step4.push_back(design.thresholds()[i]);
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 3

Fig3Result run_fig3(int points) {
  if (points < 2) throw std::invalid_argument("run_fig3: points must be >= 2");
  Fig3Result result;
  for (const ArchitectureProfile& arch : real_catalog()) {
    Fig3Series series;
    series.name = arch.name();
    for (int i = 0; i < points; ++i) {
      const ReqRate r =
          arch.max_perf() * static_cast<double>(i) / (points - 1);
      series.rates.push_back(r);
      series.powers.push_back(arch.power_at(r));
    }
    result.series.push_back(std::move(series));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 4

Fig4Result run_fig4(ReqRate rate_step) {
  if (rate_step <= 0.0)
    throw std::invalid_argument("run_fig4: rate_step must be > 0");
  Fig4Result result{BmlDesign::build(real_catalog()), {}, {}, {}, {}};
  const BmlDesign& design = result.design;
  const ArchitectureProfile& big = design.big();
  const BmlLinearReference linear = design.linear_reference();
  for (ReqRate r = 0.0; r <= big.max_perf(); r += rate_step) {
    result.rates.push_back(r);
    result.bml.push_back(design.ideal_power(r));
    result.big_only.push_back(big.power_at(r));
    result.linear.push_back(linear.power(r));
  }
  return result;
}

// ----------------------------------------------------------------- Fig. 5

double Fig5Result::mean_overhead_pct() const {
  return bml_overhead_pct.empty() ? 0.0 : mean_of(bml_overhead_pct);
}

double Fig5Result::min_overhead_pct() const {
  return bml_overhead_pct.empty()
             ? 0.0
             : *std::min_element(bml_overhead_pct.begin(),
                                 bml_overhead_pct.end());
}

double Fig5Result::max_overhead_pct() const {
  return bml_overhead_pct.empty()
             ? 0.0
             : *std::max_element(bml_overhead_pct.begin(),
                                 bml_overhead_pct.end());
}

Fig5Result run_fig5(const LoadTrace& trace) {
  BmlDesignOptions design_options;
  design_options.max_rate = std::max(trace.peak(), 1.0);
  auto design = std::make_shared<BmlDesign>(
      BmlDesign::build(real_catalog(), design_options));

  Fig5Result result;

  // The figure's three simulated scenarios, expressed as data and executed
  // by the scenario engine: Big-Medium-Little (the pro-active scheduler,
  // paper's window), UpperBound PerDay (homogeneous Big fleet resized at
  // midnight), and UpperBound Global (constant fleet for the global peak).
  ScenarioSpec spec;
  spec.name = "fig5";
  spec.trace = "worldcup_like";
  spec.sweeps.push_back(
      SweepAxis{"scheduler", {"bml", "per-day", "static-max"}});
  SweepOptions sweep_options;
  // The lower bound reads the caller's trace too; the three scenarios
  // replay it instead of generating their own.
  sweep_options.shared_trace = &trace;

  // The analytic lower bound (ideal combination every second, no On/Off
  // cost) is independent of the sweep; run them fork-join in parallel.
  SweepReport report;
  parallel_invoke({
      [&] {
        result.lower_bound =
            theoretical_lower_bound_per_day(*design, trace);
      },
      [&] { report = run_sweep(spec, sweep_options); },
  });

  result.bml_sim = std::move(report.rows[0].sim);
  result.per_day_sim = std::move(report.rows[1].sim);
  result.global_sim = std::move(report.rows[2].sim);
  result.bml = result.bml_sim.per_day_total();
  result.per_day_bound = result.per_day_sim.per_day_total();
  result.global_bound = result.global_sim.per_day_total();

  const std::size_t days =
      std::min({result.lower_bound.size(), result.bml.size(),
                result.per_day_bound.size(), result.global_bound.size()});
  for (std::size_t d = 0; d < days; ++d)
    result.bml_overhead_pct.push_back(
        percent_over(result.bml[d], result.lower_bound[d]));
  return result;
}

}  // namespace bml
