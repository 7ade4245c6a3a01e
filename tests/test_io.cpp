// Tests for the text serialization of problems and mappings: round trips,
// format validation and file helpers.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/evaluation.hpp"
#include "core/io.hpp"
#include "exp/scenario.hpp"
#include "test_helpers.hpp"

namespace mf::core {
namespace {

TEST(ProblemIo, RoundTripTinyChain) {
  const Problem original = test::tiny_chain_problem();
  const Problem loaded = problem_from_text(to_text(original));
  ASSERT_EQ(loaded.task_count(), original.task_count());
  ASSERT_EQ(loaded.machine_count(), original.machine_count());
  EXPECT_EQ(loaded.type_count(), original.type_count());
  for (TaskIndex i = 0; i < original.task_count(); ++i) {
    EXPECT_EQ(loaded.app.type_of(i), original.app.type_of(i));
    EXPECT_EQ(loaded.app.successor(i), original.app.successor(i));
    for (MachineIndex u = 0; u < original.machine_count(); ++u) {
      EXPECT_DOUBLE_EQ(loaded.platform.time(i, u), original.platform.time(i, u));
      EXPECT_DOUBLE_EQ(loaded.platform.failure(i, u), original.platform.failure(i, u));
    }
  }
}

TEST(ProblemIo, RoundTripPreservesPeriods) {
  exp::Scenario scenario;
  scenario.tasks = 15;
  scenario.machines = 6;
  scenario.types = 3;
  const Problem original = exp::generate(scenario, 9);
  const Problem loaded = problem_from_text(to_text(original));
  const Mapping mapping{std::vector<MachineIndex>(15, 0)};
  EXPECT_DOUBLE_EQ(period(original, mapping), period(loaded, mapping));
}

TEST(ProblemIo, RoundTripInTree) {
  exp::Scenario scenario;
  scenario.tasks = 12;
  scenario.machines = 4;
  scenario.types = 2;
  const Problem original = exp::generate_in_tree(scenario, 0.5, 4);
  const Problem loaded = problem_from_text(to_text(original));
  EXPECT_EQ(loaded.app.sinks(), original.app.sinks());
  EXPECT_EQ(loaded.app.sources(), original.app.sources());
}

TEST(ProblemIo, CommentsAndBlankLinesIgnored) {
  const Problem original = test::tiny_chain_problem();
  std::string text = to_text(original);
  text.insert(0, "# leading comment\n\n");
  const Problem loaded = problem_from_text(text);
  EXPECT_EQ(loaded.task_count(), original.task_count());
}

TEST(ProblemIo, RejectsBadHeader) {
  EXPECT_THROW(problem_from_text("not-a-header\n"), std::invalid_argument);
  EXPECT_THROW(problem_from_text(""), std::invalid_argument);
}

TEST(ProblemIo, RejectsDimensionMismatch) {
  const Problem original = test::tiny_chain_problem();
  std::string text = to_text(original);
  // Corrupt the declared type count.
  const auto pos = text.find("p 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "p 7");
  EXPECT_THROW(problem_from_text(text), std::invalid_argument);
  // A machine count far beyond what the rows hold is refused before the
  // matrices are sized from it.
  std::string huge = to_text(original);
  huge.replace(huge.find("m 3"), 3, "m 100000000000000");
  EXPECT_THROW(problem_from_text(huge), std::invalid_argument);
}

TEST(ProblemIo, RejectsTruncatedMatrix) {
  const Problem original = test::tiny_chain_problem();
  std::string text = to_text(original);
  text.resize(text.rfind("f "));  // drop the last failure row
  EXPECT_THROW(problem_from_text(text), std::invalid_argument);
}

TEST(ProblemIo, RejectsGarbageNumbers) {
  const Problem original = test::tiny_chain_problem();
  std::string text = to_text(original);
  const auto pos = text.find("100");
  text.replace(pos, 3, "1x0");
  EXPECT_THROW(problem_from_text(text), std::invalid_argument);
}

TEST(ProblemIo, GoldenFormatIsStable) {
  // The v1 format is a compatibility contract: if this test breaks, bump
  // the version header instead of changing the layout silently.
  Application app = Application::linear_chain({0, 1});
  support::Matrix w(2, 2);
  w.at(0, 0) = 100;
  w.at(0, 1) = 200;
  w.at(1, 0) = 300;
  w.at(1, 1) = 400;
  support::Matrix f(2, 2, 0.5);
  const Problem problem{std::move(app), Platform{std::move(w), std::move(f)}};
  EXPECT_EQ(to_text(problem),
            "microfactory-problem v1\n"
            "n 2 m 2 p 2\n"
            "types 0 1\n"
            "successors 1 -\n"
            "w 100 200\n"
            "w 300 400\n"
            "f 0.5 0.5\n"
            "f 0.5 0.5\n");
}

TEST(MappingIo, GoldenFormatIsStable) {
  EXPECT_EQ(to_text(Mapping{{2, 0, 1}}), "microfactory-mapping v1\na 2 0 1\n");
}

TEST(ProblemIo, RoundTripIsIdempotent) {
  const Problem original = test::tiny_chain_problem();
  const std::string once = to_text(original);
  const std::string twice = to_text(problem_from_text(once));
  EXPECT_EQ(once, twice);
}

TEST(MappingIo, RoundTrip) {
  const Mapping original{{0, 2, 1, 2}};
  const Mapping loaded = mapping_from_text(to_text(original));
  EXPECT_EQ(loaded, original);
}

TEST(MappingIo, RejectsBadInput) {
  EXPECT_THROW(mapping_from_text("wrong\n"), std::invalid_argument);
  EXPECT_THROW(mapping_from_text("microfactory-mapping v1\nb 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(mapping_from_text("microfactory-mapping v1\na 1 -2\n"),
               std::invalid_argument);
}

TEST(FileIo, SaveAndLoad) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string problem_path = (dir / "mf_problem.txt").string();
  const std::string mapping_path = (dir / "mf_mapping.txt").string();

  const Problem original = test::tiny_chain_problem();
  save_problem(original, problem_path);
  const Problem loaded = load_problem(problem_path);
  EXPECT_EQ(loaded.task_count(), original.task_count());

  const Mapping mapping{{0, 1, 0}};
  save_mapping(mapping, mapping_path);
  EXPECT_EQ(load_mapping(mapping_path), mapping);

  std::filesystem::remove(problem_path);
  std::filesystem::remove(mapping_path);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(load_problem("/nonexistent/path/problem.txt"), std::invalid_argument);
}

}  // namespace
}  // namespace mf::core
