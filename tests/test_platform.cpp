// Tests for the platform model and the Problem pairing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/failure.hpp"
#include "core/platform.hpp"
#include "test_helpers.hpp"

namespace mf::core {
namespace {

TEST(Platform, BasicAccessors) {
  const Problem problem = test::tiny_chain_problem();
  EXPECT_EQ(problem.machine_count(), 3u);
  EXPECT_EQ(problem.task_count(), 3u);
  EXPECT_DOUBLE_EQ(problem.platform.time(0, 0), 100.0);
  EXPECT_DOUBLE_EQ(problem.platform.failure(1, 1), 0.01);
}

TEST(Platform, AttemptsPerSuccess) {
  const Problem problem = test::tiny_chain_problem();
  EXPECT_DOUBLE_EQ(problem.platform.attempts_per_success(0, 0), 1.0 / 0.99);
}

TEST(Platform, RejectsNonPositiveTimes) {
  EXPECT_THROW(test::make_platform({{0.0}}, {{0.1}}), std::invalid_argument);
  EXPECT_THROW(test::make_platform({{-5.0}}, {{0.1}}), std::invalid_argument);
}

TEST(Platform, RejectsFailureRateOutOfRange) {
  EXPECT_THROW(test::make_platform({{10.0}}, {{1.0}}), std::invalid_argument);
  EXPECT_THROW(test::make_platform({{10.0}}, {{-0.1}}), std::invalid_argument);
}

TEST(Platform, RejectsShapeMismatch) {
  support::Matrix w(2, 2, 10.0);
  support::Matrix f(1, 2, 0.1);
  EXPECT_THROW(Platform(w, f), std::invalid_argument);
}

TEST(Platform, FromTypeTablesReplicatesRows) {
  const Application app = Application::linear_chain({0, 1, 0});
  support::Matrix type_w(2, 2);
  type_w.at(0, 0) = 100;
  type_w.at(0, 1) = 200;
  type_w.at(1, 0) = 300;
  type_w.at(1, 1) = 400;
  support::Matrix type_f(2, 2, 0.01);
  const Platform platform = Platform::from_type_tables(app, type_w, type_f);
  EXPECT_DOUBLE_EQ(platform.time(0, 1), 200.0);
  EXPECT_DOUBLE_EQ(platform.time(2, 1), 200.0);  // same type as task 0
  EXPECT_DOUBLE_EQ(platform.time(1, 0), 300.0);
  EXPECT_TRUE(platform.has_type_uniform_times(app));
  EXPECT_TRUE(platform.has_type_uniform_failures(app));
}

TEST(Platform, TypeUniformityDetectsViolation) {
  const Application app = Application::linear_chain({0, 0});
  const Platform platform = test::make_platform({{100, 200}, {150, 200}}, {{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_FALSE(platform.has_type_uniform_times(app));
  EXPECT_TRUE(platform.has_type_uniform_failures(app));
}

TEST(Platform, ProblemRejectsSizeMismatch) {
  Application app = Application::linear_chain({0, 1});
  Platform platform = test::make_platform({{100.0}}, {{0.0}});  // one task only
  EXPECT_THROW(Problem(std::move(app), std::move(platform)), std::invalid_argument);
}

TEST(Failure, SurvivalInverse) {
  EXPECT_DOUBLE_EQ(survival_inverse(0.0), 1.0);
  EXPECT_DOUBLE_EQ(survival_inverse(0.5), 2.0);
  EXPECT_TRUE(std::isinf(survival_inverse(1.0)));
  EXPECT_THROW((void)survival_inverse(-0.1), std::invalid_argument);
}

TEST(Failure, RatioRepresentation) {
  const FailureRatio ratio{1, 200};
  EXPECT_DOUBLE_EQ(ratio.rate(), 0.005);
  const FailureRatio all_lost{5, 0};
  EXPECT_DOUBLE_EQ(all_lost.rate(), 1.0);
}

TEST(Failure, ChainSurvivalAccumulates) {
  double acc = 1.0;
  acc = chain_survival(acc, 0.1);
  acc = chain_survival(acc, 0.2);
  EXPECT_NEAR(acc, 0.9 * 0.8, 1e-12);
  EXPECT_THROW((void)chain_survival(1.0, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace mf::core
