// Tests for the application model: chains, in-trees, validation and the
// backward traversal order every heuristic relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/application.hpp"

namespace mf::core {
namespace {

TEST(Application, LinearChainBasics) {
  const Application app = Application::linear_chain({0, 1, 0, 2});
  EXPECT_EQ(app.task_count(), 4u);
  EXPECT_EQ(app.type_count(), 3u);
  EXPECT_TRUE(app.is_linear_chain());
  EXPECT_EQ(app.successor(0), 1u);
  EXPECT_EQ(app.successor(3), kNoTask);
  ASSERT_EQ(app.sinks().size(), 1u);
  EXPECT_EQ(app.sinks()[0], 3u);
  ASSERT_EQ(app.sources().size(), 1u);
  EXPECT_EQ(app.sources()[0], 0u);
}

TEST(Application, SingleTaskChain) {
  const Application app = Application::linear_chain({0});
  EXPECT_TRUE(app.is_linear_chain());
  EXPECT_EQ(app.sinks(), app.sources());
  EXPECT_EQ(app.backward_order().size(), 1u);
}

TEST(Application, BackwardOrderOnChainIsReverse) {
  const Application app = Application::linear_chain({0, 0, 0, 0, 0});
  const std::vector<TaskIndex> expected{4, 3, 2, 1, 0};
  EXPECT_EQ(app.backward_order(), expected);
}

TEST(Application, TypeBucketsAreComplete) {
  const Application app = Application::linear_chain({0, 1, 0, 1, 2});
  EXPECT_EQ(app.tasks_of_type(0), (std::vector<TaskIndex>{0, 2}));
  EXPECT_EQ(app.tasks_of_type(1), (std::vector<TaskIndex>{1, 3}));
  EXPECT_EQ(app.tasks_of_type(2), (std::vector<TaskIndex>{4}));
  EXPECT_THROW((void)app.tasks_of_type(3), std::invalid_argument);
}

TEST(Application, DenseTypesEnforced) {
  // Type 1 missing: types must be dense 0..p-1.
  EXPECT_THROW(Application::linear_chain({0, 2}), std::invalid_argument);
}

TEST(Application, EmptyRejected) {
  EXPECT_THROW(Application::linear_chain({}), std::invalid_argument);
}

TEST(Application, InTreeWithJoin) {
  // The paper's Figure 1 shape: 1 -> 2 -> 4 <- 3, 4 -> 5 (0-based below).
  //   T0 -> T1 -> T3;  T2 -> T3;  T3 -> T4
  const Application app =
      Application::from_successors({0, 1, 0, 1, 2}, {1, 3, 3, 4, kNoTask});
  EXPECT_FALSE(app.is_linear_chain());
  EXPECT_EQ(app.predecessors(3), (std::vector<TaskIndex>{1, 2}));
  EXPECT_EQ(app.sources(), (std::vector<TaskIndex>{0, 2}));
  EXPECT_EQ(app.sinks(), (std::vector<TaskIndex>{4}));
}

TEST(Application, BackwardOrderRespectsDependencies) {
  const Application app =
      Application::from_successors({0, 1, 0, 1, 2}, {1, 3, 3, 4, kNoTask});
  const auto& order = app.backward_order();
  ASSERT_EQ(order.size(), 5u);
  std::vector<std::size_t> position(5);
  for (std::size_t k = 0; k < order.size(); ++k) position[order[k]] = k;
  for (TaskIndex i = 0; i < 5; ++i) {
    if (app.successor(i) != kNoTask) {
      EXPECT_LT(position[app.successor(i)], position[i])
          << "successor of T" << i << " must appear before it";
    }
  }
}

TEST(Application, ForestAllowed) {
  // Two independent chains.
  const Application app = Application::from_successors({0, 0, 1, 1}, {1, kNoTask, 3, kNoTask});
  EXPECT_EQ(app.sinks().size(), 2u);
  EXPECT_EQ(app.sources().size(), 2u);
  EXPECT_FALSE(app.is_linear_chain());
}

TEST(Application, CycleDetected) {
  EXPECT_THROW(Application::from_successors({0, 0}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(Application::from_successors({0, 0, 0}, {1, 2, 0}), std::invalid_argument);
}

TEST(Application, SelfLoopDetected) {
  EXPECT_THROW(Application::from_successors({0}, {0}), std::invalid_argument);
}

TEST(Application, SuccessorOutOfRangeDetected) {
  EXPECT_THROW(Application::from_successors({0, 0}, {5, kNoTask}), std::invalid_argument);
}

TEST(Application, SizeMismatchDetected) {
  EXPECT_THROW(Application::from_successors({0, 0}, {kNoTask}), std::invalid_argument);
}

TEST(Application, AccessorsValidateIndices) {
  const Application app = Application::linear_chain({0, 0});
  EXPECT_THROW((void)app.type_of(2), std::invalid_argument);
  EXPECT_THROW((void)app.successor(2), std::invalid_argument);
  EXPECT_THROW((void)app.predecessors(2), std::invalid_argument);
}

TEST(Application, DescribeMentionsShape) {
  const Application chain = Application::linear_chain({0, 1});
  EXPECT_NE(chain.describe().find("linear chain"), std::string::npos);
  const Application tree =
      Application::from_successors({0, 1, 0}, {2, 2, kNoTask});
  EXPECT_NE(tree.describe().find("in-tree"), std::string::npos);
}

/// Property sweep: random-ish chain lengths keep invariants.
class ChainLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainLengthTest, InvariantsHold) {
  const std::size_t n = GetParam();
  std::vector<TypeIndex> types(n, 0);
  for (std::size_t i = 0; i < n; ++i) types[i] = i % std::min<std::size_t>(n, 3);
  const Application app = Application::linear_chain(types);
  EXPECT_EQ(app.task_count(), n);
  EXPECT_TRUE(app.is_linear_chain());
  EXPECT_EQ(app.backward_order().size(), n);
  EXPECT_EQ(app.backward_order().front(), n - 1);
  EXPECT_EQ(app.backward_order().back(), 0u);
  std::size_t type_total = 0;
  for (TypeIndex t = 0; t < app.type_count(); ++t) type_total += app.tasks_of_type(t).size();
  EXPECT_EQ(type_total, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainLengthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 50, 150));

}  // namespace
}  // namespace mf::core
