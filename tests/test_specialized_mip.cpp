// Tests for the Section 6.1 MIP formulation: layout, constraint counts, and
// — the key cross-validation of the whole exact stack — agreement between
// the LP-based MIP solver, the combinatorial branch-and-bound and brute
// force on small instances.
#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "exact/brute_force.hpp"
#include "exact/specialized_bnb.hpp"
#include "exp/scenario.hpp"
#include "lp/specialized_mip.hpp"
#include "test_helpers.hpp"

namespace mf::lp {
namespace {

using core::MappingRule;
using core::Problem;

TEST(SpecializedMip, LayoutAndCounts) {
  const Problem problem = test::tiny_chain_problem();  // n=3, m=3, p=2
  const SpecializedMip mip = build_specialized_mip(problem);
  const std::size_t n = 3, m = 3, p = 2;
  // Variables: a (n*m) + t (m*p) + x (n) + y (n*m) + K.
  EXPECT_EQ(mip.model.variable_count(), n * m + m * p + n + n * m + 1);
  // Constraints: (3) n + (4) m + (5) n*m + (6) n*m + (7) m + (8) 3*n*m.
  EXPECT_EQ(mip.model.constraint_count(), n + m + n * m + n * m + m + 3 * n * m);
  EXPECT_EQ(mip.layout.k_index, mip.model.variable_count() - 1);
  EXPECT_TRUE(mip.model.variable(mip.layout.a_begin).integer);
  EXPECT_FALSE(mip.model.variable(mip.layout.x_begin).integer);
}

TEST(SpecializedMip, SolvesTinyChainToBruteForceOptimum) {
  const Problem problem = test::tiny_chain_problem();
  const MipScheduleResult result = solve_specialized_mip(problem);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  ASSERT_TRUE(result.mapping.has_value());
  EXPECT_TRUE(result.mapping->complies_with(MappingRule::kSpecialized, problem.app,
                                            problem.machine_count()));

  const auto reference = exact::brute_force_optimal(problem, MappingRule::kSpecialized);
  EXPECT_NEAR(result.period, reference.period, 1e-6 * reference.period);
  // The MIP objective K must agree with the evaluated period of the
  // decoded mapping — this validates the big-M linearization.
  EXPECT_NEAR(result.mip_objective, result.period, 1e-4 * result.period);
}

TEST(SpecializedMip, InfeasibleWhenTypesExceedMachines) {
  const Problem problem = test::uniform_problem({0, 1, 2}, 2);
  EXPECT_EQ(solve_specialized_mip(problem).status, MipStatus::kInfeasible);
}

class MipAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(MipAgreementTest, LpMipAgreesWithCombinatorialBnB) {
  const auto& [tasks, seed] = GetParam();
  exp::Scenario scenario;
  scenario.tasks = tasks;
  scenario.machines = 3;
  scenario.types = 2;
  const Problem problem = exp::generate(scenario, seed);

  const MipScheduleResult lp_result = solve_specialized_mip(problem);
  const exact::BnBResult bnb = exact::solve_specialized_optimal(problem);

  ASSERT_EQ(lp_result.status, MipStatus::kOptimal);
  ASSERT_TRUE(bnb.proven_optimal);
  ASSERT_TRUE(bnb.mapping.has_value());
  EXPECT_NEAR(lp_result.period, bnb.period, 1e-6 * bnb.period)
      << "the two exact paths must agree on the optimal period";
  // K is the one number here that does not pass through core::period: the
  // MIP's own optimum, which the big-M linearization must not distort.
  EXPECT_NEAR(lp_result.mip_objective, bnb.period, 1e-9 * bnb.period)
      << "the MIP objective K must equal bnb's optimal period";
}

INSTANTIATE_TEST_SUITE_P(TinyInstances, MipAgreementTest,
                         ::testing::Combine(::testing::Values<std::size_t>(3, 4, 5),
                                            ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(SpecializedMip, BigMBoundIsValid) {
  // MAXx_i bounds must dominate the x_i of the optimal mapping, otherwise
  // constraint (6) would cut the optimum off.
  const Problem problem = test::tiny_chain_problem();
  const auto max_x = core::max_expected_products(problem);
  const MipScheduleResult result = solve_specialized_mip(problem);
  ASSERT_TRUE(result.mapping.has_value());
  const auto x = core::expected_products(problem, *result.mapping);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_LE(x[i], max_x[i] + 1e-9);
}

}  // namespace
}  // namespace mf::lp
