// Tests for mapping rules: one-to-one subset-of specialized subset-of
// general, compliance checks, inverse views.
#include <gtest/gtest.h>

#include "core/mapping.hpp"
#include "test_helpers.hpp"

namespace mf::core {
namespace {

Application three_task_app() { return Application::linear_chain({0, 1, 0}); }

TEST(Mapping, CompletenessChecks) {
  Mapping empty;
  EXPECT_FALSE(empty.is_complete(3));
  Mapping partial{{0, kUnassigned, 1}};
  EXPECT_FALSE(partial.is_complete(3));
  Mapping out_of_range{{0, 5, 1}};
  EXPECT_FALSE(out_of_range.is_complete(3));
  Mapping good{{0, 1, 2}};
  EXPECT_TRUE(good.is_complete(3));
}

TEST(Mapping, OneToOneCompliance) {
  const Application app = three_task_app();
  EXPECT_TRUE((Mapping{{0, 1, 2}}.complies_with(MappingRule::kOneToOne, app, 3)));
  // Two tasks on machine 0: not one-to-one.
  EXPECT_FALSE((Mapping{{0, 1, 0}}.complies_with(MappingRule::kOneToOne, app, 3)));
}

TEST(Mapping, SpecializedCompliance) {
  const Application app = three_task_app();  // types 0,1,0
  // Tasks 0 and 2 share type 0, so sharing machine 0 is specialized.
  EXPECT_TRUE((Mapping{{0, 1, 0}}.complies_with(MappingRule::kSpecialized, app, 3)));
  // Machine 0 would serve types 0 and 1: not specialized.
  EXPECT_FALSE((Mapping{{0, 0, 1}}.complies_with(MappingRule::kSpecialized, app, 3)));
}

TEST(Mapping, GeneralAcceptsAnything) {
  const Application app = three_task_app();
  EXPECT_TRUE((Mapping{{0, 0, 0}}.complies_with(MappingRule::kGeneral, app, 3)));
  EXPECT_TRUE((Mapping{{2, 2, 2}}.complies_with(MappingRule::kGeneral, app, 3)));
}

TEST(Mapping, RuleHierarchy) {
  const Application app = three_task_app();
  // Every one-to-one mapping is specialized and general.
  const Mapping oto{{2, 1, 0}};
  EXPECT_TRUE(oto.complies_with(MappingRule::kOneToOne, app, 3));
  EXPECT_TRUE(oto.complies_with(MappingRule::kSpecialized, app, 3));
  EXPECT_TRUE(oto.complies_with(MappingRule::kGeneral, app, 3));
  // Every specialized mapping is general.
  const Mapping spec{{0, 1, 0}};
  EXPECT_TRUE(spec.complies_with(MappingRule::kSpecialized, app, 3));
  EXPECT_TRUE(spec.complies_with(MappingRule::kGeneral, app, 3));
}

TEST(Mapping, IncompleteFailsAllRules) {
  const Application app = three_task_app();
  const Mapping bad{{0, 9, 1}};
  EXPECT_FALSE(bad.complies_with(MappingRule::kGeneral, app, 3));
  EXPECT_FALSE(bad.complies_with(MappingRule::kSpecialized, app, 3));
  EXPECT_FALSE(bad.complies_with(MappingRule::kOneToOne, app, 3));
}

TEST(Mapping, TasksPerMachineInvertsAssignment) {
  const Mapping mapping{{0, 2, 0}};
  const auto buckets = mapping.tasks_per_machine(3);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::vector<TaskIndex>{0, 2}));
  EXPECT_TRUE(buckets[1].empty());
  EXPECT_EQ(buckets[2], (std::vector<TaskIndex>{1}));
}

TEST(Mapping, TasksPerMachineRejectsIncomplete) {
  const Mapping mapping{{0, 7}};
  EXPECT_THROW(mapping.tasks_per_machine(3), std::invalid_argument);
}

TEST(Mapping, SizeMismatchRejected) {
  const Application app = three_task_app();
  const Mapping mapping{{0, 1}};
  EXPECT_THROW((void)mapping.complies_with(MappingRule::kGeneral, app, 3), std::invalid_argument);
}

TEST(Mapping, MachineOfValidates) {
  const Mapping mapping{{0, 1}};
  EXPECT_EQ(mapping.machine_of(1), 1u);
  EXPECT_THROW((void)mapping.machine_of(2), std::invalid_argument);
}

TEST(Mapping, DescribeIsHumanReadable) {
  const Application app = three_task_app();
  const Mapping mapping{{0, 1, 0}};
  const std::string text = mapping.describe(app);
  EXPECT_NE(text.find("T1(type 0)->M1"), std::string::npos);
  EXPECT_NE(text.find("T2(type 1)->M2"), std::string::npos);
}

TEST(Mapping, ToStringNamesRules) {
  EXPECT_EQ(to_string(MappingRule::kOneToOne), "one-to-one");
  EXPECT_EQ(to_string(MappingRule::kSpecialized), "specialized");
  EXPECT_EQ(to_string(MappingRule::kGeneral), "general");
}

TEST(Mapping, EqualityComparison) {
  EXPECT_EQ(Mapping({0, 1}), Mapping({0, 1}));
  EXPECT_NE(Mapping({0, 1}), Mapping({1, 0}));
}

}  // namespace
}  // namespace mf::core
