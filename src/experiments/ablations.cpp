#include "experiments/ablations.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "power/proportionality.hpp"
#include "power/rapl.hpp"

namespace bml {

std::vector<ProportionalityRow> run_proportionality_metrics() {
  std::vector<ProportionalityRow> rows;
  auto add = [&rows](const std::string& name, Watts idle, Watts peak,
                     const PowerCurve& curve) {
    ProportionalityRow row;
    row.name = name;
    row.ipr = ideal_to_peak_ratio(idle, peak);
    row.ldr = linear_deviation_ratio(curve);
    row.score = proportionality_score(curve);
    rows.push_back(row);
  };

  for (const ArchitectureProfile& arch : real_catalog()) {
    add(arch.name(), arch.idle_power(), arch.max_power(),
        [&arch](double u) { return arch.power_at(u * arch.max_perf()); });
  }

  const BmlDesign design = BmlDesign::build(real_catalog());
  const ReqRate big_perf = design.big().max_perf();
  add("BML combination", design.ideal_power(0.0), design.ideal_power(big_perf),
      [&design, big_perf](double u) {
        return design.ideal_power(u * big_perf);
      });
  const BmlLinearReference linear = design.linear_reference();
  add("BML linear (ref)", linear.power(0.0), linear.power(big_perf),
      [&linear, big_perf](double u) { return linear.power(u * big_perf); });
  return rows;
}

std::vector<RaplRow> run_rapl_comparison(ReqRate fleet_rate, int points) {
  if (points < 2)
    throw std::invalid_argument("run_rapl_comparison: points must be >= 2");
  const BmlDesign design =
      BmlDesign::build(real_catalog(), {.max_rate = fleet_rate});
  const ArchitectureProfile& big = design.big();
  const int fleet = std::max(
      1, static_cast<int>(std::ceil(fleet_rate / big.max_perf())));

  std::vector<RaplRow> rows;
  for (int i = 0; i < points; ++i) {
    RaplRow row;
    row.rate = fleet_rate * static_cast<double>(i) / (points - 1);
    row.bml = design.ideal_power(row.rate);
    row.rapl_big = rapl_homogeneous_power(big, fleet, row.rate);
    rows.push_back(row);
  }
  return rows;
}

}  // namespace bml
