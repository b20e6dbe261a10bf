// DispatchPlan must reproduce dispatch() bit-for-bit: the simulator fast
// path, the solvers and the combination table all rely on the compiled
// plan being a drop-in replacement for the reference implementation.
#include "core/dispatch_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/bml_design.hpp"
#include "core/combination.hpp"

namespace bml {
namespace {

TEST(DispatchPlan, PowerMatchesDispatchBitForBit) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);
  const BmlDesign design = BmlDesign::build(catalog);

  for (double rate = 0.0; rate <= 5000.0; rate += 7.3) {
    Combination combo = design.ideal_combination(rate);
    combo.resize(catalog.size());
    for (double load = 0.0; load <= rate + 50.0; load += 101.7) {
      const Watts reference = dispatch(catalog, combo, load).power;
      EXPECT_EQ(plan.power_at(combo.counts(), load), reference)
          << "rate=" << rate << " load=" << load;
    }
  }
}

TEST(DispatchPlan, DispatchIntoMatchesDispatch) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);

  Combination combo;
  combo.resize(catalog.size());
  combo.set_count(0, 2);
  combo.set_count(catalog.size() - 1, 5);

  DispatchResult scratch;
  for (double load : {0.0, 10.0, 500.0, 2700.0, 1e6}) {
    const DispatchResult reference = dispatch(catalog, combo, load);
    plan.dispatch_into(combo.counts(), load, scratch);
    EXPECT_EQ(scratch.power, reference.power);
    EXPECT_EQ(scratch.served, reference.served);
    EXPECT_EQ(scratch.feasible, reference.feasible);
    EXPECT_EQ(scratch.load_per_arch, reference.load_per_arch);
  }
}

TEST(DispatchPlan, HandlesNarrowCountSpans) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);

  // A combination narrower than the catalog means zero machines of the
  // trailing architectures — dispatch() accepts that, so must the plan.
  const Combination narrow{std::vector<int>{1, 1}};
  EXPECT_EQ(plan.power_at(narrow.counts(), 100.0),
            dispatch(catalog, narrow, 100.0).power);
}

TEST(DispatchPlan, MatchesPiecewiseProfiles) {
  // A piecewise profile with a pronounced knee: the plan must fall back to
  // the cloned model for the partially loaded machine.
  const ArchitectureProfile bent(
      "bent",
      std::vector<PowerSample>{{0.0, 10.0}, {50.0, 90.0}, {100.0, 100.0}},
      TransitionCost{5.0, 50.0}, TransitionCost{2.0, 10.0});
  const ArchitectureProfile linear("lin", 200.0, 20.0, 120.0,
                                   TransitionCost{5.0, 50.0},
                                   TransitionCost{2.0, 10.0});
  const Catalog catalog{linear, bent};
  const DispatchPlan plan(catalog);
  const Combination combo{std::vector<int>{2, 3}};

  for (double load = 0.0; load <= 800.0; load += 13.7)
    EXPECT_EQ(plan.power_at(combo.counts(), load),
              dispatch(catalog, combo, load).power)
        << "load=" << load;
}

TEST(FleetPowerCurve, MatchesPowerAtWithinReassociation) {
  // The compiled fleet curve may refactor each affine piece's sum, so the
  // contract is 1e-12 relative (far inside the simulator's 1e-9), across
  // fleets, loads, and exact machine boundaries.
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);
  const BmlDesign design = BmlDesign::build(catalog);

  FleetPowerCurve curve;
  for (double rate : {0.0, 9.0, 140.0, 800.0, 2500.0, 4800.0}) {
    Combination combo = design.ideal_combination(rate);
    combo.resize(catalog.size());
    plan.compile_fleet(combo.counts(), curve);
    const auto expect_matches = [&](double load) {
      const Watts reference = plan.power_at(combo.counts(), load);
      const double tolerance = 1e-12 * std::max(1.0, std::abs(reference));
      EXPECT_NEAR(curve.power_at(load), reference, tolerance)
          << "rate=" << rate << " load=" << load;
    };
    for (double load = 0.0; load <= rate + 100.0; load += 3.7)
      expect_matches(load);
    // Exact machine boundaries of every architecture.
    for (std::size_t a = 0; a < catalog.size(); ++a)
      for (int j = 1; j <= combo.counts()[a]; ++j)
        expect_matches(j * catalog[a].max_perf());
    expect_matches(capacity(catalog, combo));
    expect_matches(capacity(catalog, combo) + 500.0);  // beyond capacity
  }
}

TEST(FleetPowerCurve, MatchesPowerAtWithPiecewiseProfiles) {
  // Non-linear (piecewise-model) architectures end the affine table; the
  // general loop must take over and agree with the plan.
  const ArchitectureProfile bent(
      "bent",
      std::vector<PowerSample>{{0.0, 10.0}, {50.0, 90.0}, {100.0, 100.0}},
      TransitionCost{5.0, 50.0}, TransitionCost{2.0, 10.0});
  const ArchitectureProfile linear("lin", 200.0, 20.0, 120.0,
                                   TransitionCost{5.0, 50.0},
                                   TransitionCost{2.0, 10.0});
  const Catalog catalog{linear, bent};
  const DispatchPlan plan(catalog);
  const Combination combo{std::vector<int>{2, 3}};
  FleetPowerCurve curve;
  plan.compile_fleet(combo.counts(), curve);
  for (double load = 0.0; load <= 800.0; load += 13.7) {
    const Watts reference = plan.power_at(combo.counts(), load);
    const double tolerance = 1e-12 * std::max(1.0, std::abs(reference));
    EXPECT_NEAR(curve.power_at(load), reference, tolerance) << load;
  }
}

/// The affine table's piece bounds, formed as compile_fleet forms them:
/// machines in dispatch order (slope ascending, catalog index breaking
/// ties), linear architectures up to the first piecewise one, at most 64.
std::vector<double> piece_bounds(const Catalog& catalog,
                                 const std::vector<int>& counts) {
  std::vector<std::size_t> order(catalog.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return catalog[a].slope() < catalog[b].slope();
  });
  std::vector<double> bounds;
  double prefix = 0.0;
  for (const std::size_t a : order) {
    if (counts[a] == 0) continue;
    if (dynamic_cast<const LinearPowerModel*>(&catalog[a].model()) == nullptr)
      break;
    const double perf = catalog[a].max_perf();
    for (int j = 0; j < counts[a] && bounds.size() < 64; ++j)
      bounds.push_back(prefix + (j + 1) * perf);
    prefix += counts[a] * perf;
  }
  return bounds;
}

/// Fleets whose curves the tests below probe: real-catalog designs of
/// several sizes, a fleet past the 64-piece cap, and a piecewise-model
/// architecture that ends the affine table.
struct ProbeFleet {
  Catalog catalog;
  std::vector<int> counts;
};
std::vector<ProbeFleet> probe_fleets() {
  std::vector<ProbeFleet> fleets;
  const Catalog real = real_catalog();
  const BmlDesign design = BmlDesign::build(real);
  for (double rate : {9.0, 140.0, 800.0, 2500.0, 4800.0}) {
    Combination combo = design.ideal_combination(rate);
    combo.resize(real.size());
    fleets.push_back({real, combo.counts()});
  }
  // Every architecture, 80 Raspberry Pis: 100+ machines, capped at 64.
  fleets.push_back({real, std::vector<int>{2, 3, 4, 9, 80}});
  const ArchitectureProfile bent(
      "bent",
      std::vector<PowerSample>{{0.0, 10.0}, {50.0, 90.0}, {100.0, 100.0}},
      TransitionCost{5.0, 50.0}, TransitionCost{2.0, 10.0});
  const ArchitectureProfile linear("lin", 200.0, 20.0, 120.0,
                                   TransitionCost{5.0, 50.0},
                                   TransitionCost{2.0, 10.0});
  fleets.push_back({Catalog{linear, bent}, std::vector<int>{2, 3}});
  return fleets;
}

/// Each piece bound, one ulp either side of it, and the loads between.
std::vector<double> probe_rates(const ProbeFleet& fleet) {
  std::vector<double> rates;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double b : piece_bounds(fleet.catalog, fleet.counts))
    rates.insert(rates.end(),
                 {std::nextafter(b, -inf), b, std::nextafter(b, inf)});
  const double cap = capacity(fleet.catalog, Combination{fleet.counts});
  for (double load = 0.0; load <= cap + 100.0; load += 3.7)
    rates.push_back(load);
  return rates;
}

TEST(FleetPowerCurve, AgreesWithPlanAtPieceBounds) {
  // At a bound the piece above it answers; its refactored sum and the
  // plan's loop agree within reassociation distance there too.
  for (const ProbeFleet& fleet : probe_fleets()) {
    const DispatchPlan plan(fleet.catalog);
    FleetPowerCurve curve;
    plan.compile_fleet(fleet.counts, curve);
    const std::vector<double> bounds =
        piece_bounds(fleet.catalog, fleet.counts);
    ASSERT_FALSE(bounds.empty());
    for (const double rate : probe_rates(fleet)) {
      const Watts reference = plan.power_at(fleet.counts, rate);
      EXPECT_NEAR(curve.power_at(rate), reference,
                  1e-12 * std::max(1.0, std::abs(reference)))
          << "fleet of " << bounds.size() << " pieces, rate=" << rate;
    }
  }
  EXPECT_EQ(piece_bounds(real_catalog(), {2, 3, 4, 9, 80}).size(), 64u);
}

/// What the loop search over the padded bounds answered for a rate
/// inside the table: the piece k = the number of bounds <= rate (counted
/// here one by one), evaluated as base_k + slope_k * rate.
Watts loop_search(const FleetPowerCurve& curve,
                  const std::vector<double>& bounds, ReqRate rate) {
  std::size_t k = 0;
  for (const double b : bounds) k += b <= rate ? 1 : 0;
  return curve.pieces()[k].base + curve.pieces()[k].slope * rate;
}

TEST(FleetPowerCurve, LookupAtEveryDepthMatchesTheLoopSearch) {
  // Real-catalog fleets of 1, 2, 3-4, 5-8, 9-16, 17-32 and 33-64 pieces
  // (each size class and both of its ends), one past the 64-piece cap,
  // and a piecewise-model architecture that ends the table early: the
  // per-depth lookup picks the loop search's piece, so it answers with
  // its bits, and only rate 0 and rates at or past the table's end take
  // the general loop, each counted once.
  const Catalog real = real_catalog();
  // The last two: 64 pieces (the cap) and 2 (the piecewise model).
  const unsigned expected_depth[] = {0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 1};
  std::vector<ProbeFleet> fleets;
  for (const int pieces : {1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64}) {
    // Dispatch order fills Raspberry Pis, then Paravance, then
    // Chromebooks: split the pieces across the three.
    const int paravance = pieces >= 2 ? 1 : 0;
    const int chromebook = pieces / 3;
    fleets.push_back(
        {real, {paravance, 0, 0, chromebook, pieces - paravance - chromebook}});
  }
  fleets.push_back({real, std::vector<int>{2, 3, 4, 9, 80}});
  fleets.push_back(probe_fleets().back());  // the piecewise model
  ASSERT_EQ(fleets.size(), std::size(expected_depth));
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    const ProbeFleet& fleet = fleets[f];
    const DispatchPlan plan(fleet.catalog);
    FleetPowerCurve curve;
    plan.compile_fleet(fleet.counts, curve);
    const std::vector<double> bounds =
        piece_bounds(fleet.catalog, fleet.counts);
    SCOPED_TRACE("fleet of " + std::to_string(bounds.size()) + " pieces");
    ASSERT_EQ(curve.pieces().size(), bounds.size());
    EXPECT_EQ(curve.depth(), expected_depth[f]);
    EXPECT_EQ(curve.table_end(), bounds.back());
    std::vector<double> rates{0.0, curve.table_end(),
                              std::nextafter(curve.table_end(), inf),
                              curve.table_end() + 100.0};
    const std::vector<double> probes = probe_rates(fleet);
    rates.insert(rates.end(), probes.begin(), probes.end());
    std::uint64_t expected_fallbacks = 0;
    std::uint64_t fallbacks = 0;
    for (const double rate : rates) {
      const bool in_table = rate > 0.0 && rate < curve.table_end();
      const Watts looked_up = curve.with_depth([&]<unsigned kDepth>() {
        return curve.lookup<kDepth>(rate, fallbacks);
      });
      EXPECT_EQ(std::bit_cast<std::uint64_t>(looked_up),
                std::bit_cast<std::uint64_t>(curve.power_at(rate)))
          << "rate=" << rate;
      if (in_table) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(looked_up),
                  std::bit_cast<std::uint64_t>(
                      loop_search(curve, bounds, rate)))
            << "rate=" << rate;
      } else {
        ++expected_fallbacks;
        const Watts reference = plan.power_at(fleet.counts, rate);
        EXPECT_NEAR(looked_up, reference,
                    1e-12 * std::max(1.0, std::abs(reference)))
            << "rate=" << rate;
      }
    }
    EXPECT_EQ(fallbacks, expected_fallbacks);
    EXPECT_GE(expected_fallbacks, 3u);
  }
}

TEST(FleetPowerCurve, ResultsDoNotDependOnQueryOrder) {
  // The curve keeps no lookup state: ascending, descending and shuffled
  // queries of the same rates give the same bits.
  std::mt19937_64 gen(25);
  for (const ProbeFleet& fleet : probe_fleets()) {
    const DispatchPlan plan(fleet.catalog);
    FleetPowerCurve curve;
    plan.compile_fleet(fleet.counts, curve);
    std::vector<double> rates = probe_rates(fleet);
    std::sort(rates.begin(), rates.end());
    std::vector<Watts> ascending;
    for (const double rate : rates) ascending.push_back(curve.power_at(rate));
    for (std::size_t i = rates.size(); i-- > 0;)
      EXPECT_EQ(curve.power_at(rates[i]), ascending[i]) << rates[i];
    std::vector<std::size_t> shuffled(rates.size());
    for (std::size_t i = 0; i < shuffled.size(); ++i) shuffled[i] = i;
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    for (const std::size_t i : shuffled)
      EXPECT_EQ(curve.power_at(rates[i]), ascending[i]) << rates[i];
  }
}

TEST(FleetPowerCurve, EmptyFleetIsAllZero) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);
  const std::vector<int> none(catalog.size(), 0);
  FleetPowerCurve curve;
  plan.compile_fleet(none, curve);
  EXPECT_EQ(curve.power_at(0.0), 0.0);
  EXPECT_EQ(curve.power_at(1234.5), 0.0);
}

TEST(DispatchPlan, CapacityMatches) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);
  const Combination combo{std::vector<int>{1, 2, 0, 3, 4}};
  EXPECT_EQ(plan.capacity_of(combo.counts()), capacity(catalog, combo));
}

TEST(CombinationTablePower, FractionalRatesEvaluateTheActualRate) {
  // power(rate) means "the grid combination serving exactly rate": the
  // cache only short-circuits on-grid queries, so off-grid rates (the
  // lower-bound and ablation paths query fractional trace loads) must
  // still match the reference dispatch at the queried rate.
  const BmlDesign design = BmlDesign::build(real_catalog());
  const CombinationTable* table = design.table();
  ASSERT_NE(table, nullptr);
  for (double rate : {0.5, 664.5, 1330.9, 2500.25, 4999.999}) {
    Combination combo = table->combination(rate);
    combo.resize(design.candidates().size());
    EXPECT_EQ(table->power(rate),
              dispatch(design.candidates(), combo, rate).power)
        << "rate=" << rate;
    EXPECT_LT(table->power(rate), table->power(std::ceil(rate)));
  }
  // On-grid queries hit the cache and agree with the reference too.
  EXPECT_EQ(table->power(665.0),
            dispatch(design.candidates(), table->combination(665.0), 665.0)
                .power);
}

TEST(DispatchPlan, RejectsBadInput) {
  const Catalog catalog = real_catalog();
  const DispatchPlan plan(catalog);
  const std::vector<int> too_wide(catalog.size() + 1, 1);
  const std::vector<int> ok(catalog.size(), 1);
  EXPECT_THROW((void)plan.power_at(too_wide, 1.0), std::invalid_argument);
  EXPECT_THROW((void)plan.power_at(ok, -1.0), std::invalid_argument);
  EXPECT_THROW(DispatchPlan{Catalog{}}, std::invalid_argument);
}

}  // namespace
}  // namespace bml
