// Tests for core/combination_table and the BML-linear reference.
#include "core/combination_table.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/candidate_filter.hpp"
#include "core/crossing.hpp"

namespace bml {
namespace {

struct TableFixture {
  Catalog candidates;
  GreedyThresholdSolver solver;

  TableFixture()
      : candidates([] {
          Catalog c = filter_candidates(real_catalog()).candidates;
          c.erase(c.begin() + 1);  // graphene
          return c;
        }()),
        solver(candidates, {529.0, 10.0, 1.0}) {}
};

TEST(CombinationTable, MatchesSolverOnGridPoints) {
  const TableFixture f;
  const CombinationTable table(f.solver, 300.0);
  for (double r : {0.0, 1.0, 9.0, 10.0, 100.0, 299.0, 300.0}) {
    EXPECT_EQ(table.combination(r), f.solver.solve(r)) << "rate " << r;
    EXPECT_NEAR(table.power(r), f.solver.power(r), 1e-9) << "rate " << r;
  }
}

TEST(CombinationTable, RoundsUpFractionalRates) {
  const TableFixture f;
  const CombinationTable table(f.solver, 20.0);
  // 9.5 rounds up to the 10 req/s entry (one chromebook), guaranteeing
  // capacity for the query rate.
  EXPECT_EQ(table.combination(9.5), f.solver.solve(10.0));
  EXPECT_GE(capacity(f.candidates, table.combination(9.5)), 9.5);
}

TEST(CombinationTable, RangeChecks) {
  const TableFixture f;
  const CombinationTable table(f.solver, 50.0);
  EXPECT_DOUBLE_EQ(table.max_rate(), 50.0);
  EXPECT_THROW((void)table.combination(50.5), std::out_of_range);
  EXPECT_THROW((void)table.combination(-1.0), std::invalid_argument);
}

TEST(CombinationTable, DistinctCombinationsBounded) {
  const TableFixture f;
  const CombinationTable table(f.solver, 200.0);
  std::set<std::vector<int>> seen;
  for (std::size_t i = 0; i < table.grid_size(); ++i)
    seen.insert(table.grid_entry(i).counts());
  const std::size_t distinct = seen.size();
  EXPECT_GT(distinct, 1u);
  EXPECT_LE(distinct, 202u);
  // Far fewer distinct combinations than grid points: combinations repeat
  // across rate intervals (the reconfiguration state space is small).
  EXPECT_LT(distinct, 50u);
}

TEST(BmlLinearReference, EndpointsAndMidpoint) {
  // Little's idle (3.1 W) to Big's peak (200.5 W @ 1331 req/s).
  const BmlLinearReference ref(3.1, 200.5, 1331.0);
  EXPECT_DOUBLE_EQ(ref.power(0.0), 3.1);
  EXPECT_DOUBLE_EQ(ref.power(1331.0), 200.5);
  EXPECT_NEAR(ref.power(1331.0 / 2.0), (3.1 + 200.5) / 2.0, 1e-9);
  // Clamped outside the range.
  EXPECT_DOUBLE_EQ(ref.power(-10.0), 3.1);
  EXPECT_DOUBLE_EQ(ref.power(5000.0), 200.5);
}

TEST(BmlLinearReference, Validation) {
  EXPECT_THROW(BmlLinearReference(1.0, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(BmlLinearReference(-1.0, 10.0, 5.0), std::invalid_argument);
  EXPECT_THROW(BmlLinearReference(20.0, 10.0, 5.0), std::invalid_argument);
}

}  // namespace
}  // namespace bml
