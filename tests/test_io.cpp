// Tests for the text serialization of problems and mappings: round trips,
// format validation, file helpers, and the codec's two contracts: the writer
// prints what printf's "%zu" and "%.17g" print, and the reader gives every
// input the outcome the pre-rewrite istringstream/stod reader gave it
// (tests/golden_problem_text.inc).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <random>
#include <string_view>
#include <tuple>
#include <utility>

#include "core/digest.hpp"
#include "core/evaluation.hpp"
#include "core/io.hpp"
#include "exp/scenario.hpp"
#include "test_helpers.hpp"

namespace mf::core {
namespace {

using namespace std::literals;

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

/// The v1 problem writer spelled with printf: "%zu" for every index and
/// "%.17g" for every double, the form the stream writer printed.
std::string printf_text(const Problem& problem) {
  const std::size_t n = problem.task_count();
  const std::size_t m = problem.machine_count();
  std::string out;
  char buffer[64];
  const auto field = [&](const char* format, auto value) {
    std::snprintf(buffer, sizeof buffer, format, value);
    out += ' ';
    out += buffer;
  };
  std::snprintf(buffer, sizeof buffer, "microfactory-problem v1\nn %zu m %zu p %zu\ntypes", n,
                m, problem.type_count());
  out += buffer;
  for (TaskIndex i = 0; i < n; ++i) field("%zu", problem.app.type_of(i));
  out += "\nsuccessors";
  for (TaskIndex i = 0; i < n; ++i) {
    if (problem.app.successor(i) == kNoTask) {
      out += " -";
    } else {
      field("%zu", problem.app.successor(i));
    }
  }
  out += '\n';
  for (const char tag : {'w', 'f'}) {
    for (TaskIndex i = 0; i < n; ++i) {
      out += tag;
      for (MachineIndex u = 0; u < m; ++u) {
        field("%.17g", tag == 'w' ? problem.platform.time(i, u) : problem.platform.failure(i, u));
      }
      out += '\n';
    }
  }
  return out;
}

/// A chain whose w and f are drawn from raw bit patterns: every positive
/// finite w, subnormals included, and every f in [0, 1), with -0.0 and the
/// extremes planted in the first cells.
Problem raw_bits_problem(std::uint64_t seed) {
  constexpr std::size_t kTasks = 12;
  constexpr std::size_t kMachines = 7;
  std::mt19937_64 rng(seed);
  support::Matrix w(kTasks, kMachines);
  support::Matrix f(kTasks, kMachines);
  const std::uint64_t below_one = std::bit_cast<std::uint64_t>(1.0);
  for (std::size_t i = 0; i < kTasks; ++i) {
    for (std::size_t u = 0; u < kMachines; ++u) {
      double time = std::bit_cast<double>(rng() >> 1);
      if (!std::isfinite(time) || time == 0) time = 1.0;
      w.at(i, u) = time;
      f.at(i, u) = std::bit_cast<double>(rng() % below_one);
    }
  }
  const std::array<double, 7> times = {0x1p-1074,
                                       std::numeric_limits<double>::min(),
                                       std::numeric_limits<double>::max(),
                                       std::nextafter(std::numeric_limits<double>::max(), 0.0),
                                       1e16,
                                       1e17,
                                       123456789012345678.0};
  const std::array<double, 7> failures = {0.0, -0.0, 0x1p-1074, 0x1p-1022,
                                          std::nextafter(1.0, 0.0), 0.1, 1.0 / 3.0};
  for (std::size_t u = 0; u < kMachines; ++u) {
    w.at(0, u) = times[u];
    f.at(0, u) = failures[u];
  }
  std::vector<TypeIndex> types(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) types[i] = i % 3;
  return Problem{Application::linear_chain(std::move(types)), Platform{std::move(w), std::move(f)}};
}

/// The writer's edges, in w and (below 1) in f: each power of ten from 1e-4
/// to 1e16 and its neighbours up to 3 ulps away, the same around 2^-13 and
/// 2^53, 2^52 - 0.5 (the largest double with a fraction) and 2^53 - 1, exact
/// ties at 17 digits (n/2^k with 18 significant digits, the last a 5) in
/// every decade from 1e-4 to 1e15, and a 64-value f row drawn from
/// [0.005, 0.02].
Problem writer_edges_problem() {
  constexpr std::size_t kMachines = 64;
  std::vector<double> values;
  const auto around = [&](double centre) {
    values.push_back(centre);
    double below = centre;
    double above = centre;
    for (int step = 0; step < 3; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, std::numeric_limits<double>::infinity());
      values.push_back(below);
      values.push_back(above);
    }
  };
  for (int exponent = -4; exponent <= 16; ++exponent) {
    around(std::strtod(("1e" + std::to_string(exponent)).c_str(), nullptr));
  }
  around(0x1p-13);
  around(0x1p53);
  values.push_back(0x1p52 - 0.5);
  values.push_back(0x1p53 - 1);
  static constexpr std::array<std::pair<std::uint64_t, int>, 22> kTies = {{
      {991, 21},
      {9733, 20},
      {7143, 19},
      {131073, 18},  // 0.500003814697265625
      {246507, 18},
      {239817, 17},
      {1971125, 16},
      {15752115, 15},
      {142298763, 14},
      {346675563, 13},
      {2044942799, 12},
      {4383435113, 11},
      {67005422243, 10},
      {468497322591, 9},
      {836364754023, 8},
      {1373936968107, 7},
      {18116122779009, 6},
      {143965336988659, 5},
      {1569018472320069, 4},
      {4251770270138675, 3},
      {4777149845695985, 2},
      {4938271560493827, 2},  // 1234567890123456.75
  }};
  for (const auto& [numerator, shift] : kTies) {
    values.push_back(std::ldexp(static_cast<double>(numerator), -shift));
  }

  // One row more than the edges fill, so the last f row holds only draws.
  const std::size_t tasks = (values.size() + kMachines - 1) / kMachines + 1;
  support::Matrix w(tasks, kMachines, 1.0);
  support::Matrix f(tasks, kMachines);
  std::mt19937_64 rng(2718);
  std::uniform_real_distribution<double> rate(0.005, 0.02);
  for (std::size_t i = 0; i < tasks; ++i) {
    for (std::size_t u = 0; u < kMachines; ++u) f.at(i, u) = rate(rng);
  }
  std::size_t next_f = 0;
  for (std::size_t k = 0; k < values.size(); ++k) {
    w.at(k / kMachines, k % kMachines) = values[k];
    if (values[k] < 1) {
      f.at(next_f / kMachines, next_f % kMachines) = values[k];
      ++next_f;
    }
  }
  std::vector<TypeIndex> types(tasks);
  for (std::size_t i = 0; i < tasks; ++i) types[i] = i % 2;
  return Problem{Application::linear_chain(std::move(types)), Platform{std::move(w), std::move(f)}};
}

TEST(ProblemIo, WriterMatchesPrintfReference) {
  std::vector<Problem> problems;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& [tasks, machines, types, integer] :
         {std::tuple{1, 1, 1, true}, std::tuple{3, 2, 2, true}, std::tuple{10, 5, 3, false},
          std::tuple{50, 10, 2, true}, std::tuple{20, 6, 3, false}}) {
      exp::Scenario scenario;
      scenario.tasks = tasks;
      scenario.machines = machines;
      scenario.types = types;
      scenario.integer_times = integer;
      problems.push_back(exp::generate(scenario, seed));
      if (tasks > 1) problems.push_back(exp::generate_in_tree(scenario, 0.1 * seed, seed));
    }
    problems.push_back(raw_bits_problem(seed));
  }
  // Figure 9's shape: m = n = 100, f per task.
  exp::Scenario fig09;
  fig09.tasks = 100;
  fig09.machines = 100;
  fig09.types = 20;
  fig09.failure_attachment = exp::FailureAttachment::kTaskOnly;
  problems.push_back(exp::generate(fig09, 1));
  problems.push_back(writer_edges_problem());
  for (const Problem& problem : problems) ASSERT_EQ(to_text(problem), printf_text(problem));
  const Mapping mapping{{0, 7, std::numeric_limits<MachineIndex>::max(), 1234567890123456789}};
  EXPECT_EQ(to_text(mapping),
            "microfactory-mapping v1\na 0 7 18446744073709551615 1234567890123456789\n");
}

enum TextKind { kProblemText, kMappingText };

/// What the parser for `kind` makes of `text`: "ok" and the problem's
/// digest or the mapping's indexes, the exact parse error, or a refusal by
/// a model constructor (whose MF_REQUIRE message names a source path).
std::string outcome_of(TextKind kind, std::string_view text) {
  const std::string owned(text);
  try {
    if (kind == kProblemText) return "ok " + to_string(digest(problem_from_text(owned)));
    const Mapping mapping = mapping_from_text(owned);
    std::string out = "ok";
    for (const MachineIndex u : mapping.assignment()) out += ' ' + std::to_string(u);
    return out;
  } catch (const std::invalid_argument& error) {
    const std::string_view what = error.what();
    if (what.starts_with("MF_REQUIRE(")) return "refused by a constructor";
    return std::string(what);
  }
}

struct GoldenText {
  TextKind kind;
  std::string_view input;
  std::string_view outcome;
};

/// Small texts the mutation pass starts from: a chain, an in-tree with
/// non-integer w and f, a text with comments, blank lines, tabs and CRLF
/// line ends, and two mappings.
constexpr std::array<std::pair<TextKind, std::string_view>, 5> kMutationSeeds = {{
    {kProblemText,
     "microfactory-problem v1\nn 3 m 2 p 2\ntypes 0 1 0\nsuccessors 1 2 -\n"
     "w 100 200\nw 150 120\nw 100 200\nf 0.01 0.02\nf 0.02 0.01\nf 0.01 0.02\n"},
    {kProblemText,
     "microfactory-problem v1\nn 5 m 3 p 2\ntypes 0 1 0 1 1\nsuccessors 2 2 4 4 -\n"
     "w 123.456 780.25 0.125\nw 1e-05 2.5e+300 99.999999999999986\nw 321.5 100 0.001\n"
     "w 7 8.5 9.25\nw 1.0000000000000002 3.3333333333333335 6\n"
     "f 0.012345678901234568 0 0.019999999999999999\nf 0.0050000000000000001 0.5 0.75\n"
     "f 0 1e-300 0.015\nf 0.02 0.01 0.0080000000000000002\nf 0.99999999999999989 0.1 0.2\n"},
    {kProblemText,
     "# calibration export\r\n\r\nmicrofactory-problem v1\r\nn\t2 m 2\tp 1 # dims\r\n"
     "types 0 0\r\n\t# one sink\r\nsuccessors 1\t-\r\nw 100.5 200\r\n\r\n"
     "w\t150 120.25\r\nf 0.01 0.02 # rates\r\nf 0.02\t0.01\r\n"},
    {kMappingText, "microfactory-mapping v1\na 2 0 1 3\n"},
    {kMappingText, "# mapping\r\nmicrofactory-mapping v1\r\n\ta 0\t1 # done\r\n"},
}};

bool is_c_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// One edit of the kinds the reader branches on: bit flips, cuts,
/// truncations, inserted separator and number bytes, duplicated lines,
/// comment lines, NUL bytes, and tokens swapped for forms the fast number
/// paths pass on to the stod path.
void mutate_text(std::string& text, std::mt19937_64& rng) {
  static constexpr std::array<std::string_view, 10> kBytes = {"\t", "\v", "\f", "\r", "#",
                                                              "+",  "-",  "e",  ".",  "x"};
  static constexpr std::array<std::string_view, 16> kTokens = {
      "+1",  "0x1p7", "1e-310",    "1e400", "nan",  "18446744073709551616", "1\v2",
      "\0"sv, "-0",    "1e2",       "3.0",   "0x10", "1234567890123456",     ".5",
      "1.",  "9e-302"};
  const std::size_t at = text.empty() ? 0 : rng() % text.size();
  switch (rng() % 8) {
    case 0:  // flip one bit
      if (!text.empty()) text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
      break;
    case 1:  // cut a short run
      text.erase(at, 1 + rng() % 6);
      break;
    case 2:  // truncate
      text.resize(at);
      break;
    case 3:  // insert a separator or number byte
      text.insert(at, kBytes[rng() % kBytes.size()]);
      break;
    case 4: {  // duplicate the line holding `at`
      if (text.empty()) break;
      const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
      const std::size_t end = std::min(text.find('\n', at), text.size() - 1) + 1;
      text.insert(end, text.substr(begin, end - begin));
      break;
    }
    case 5: {  // insert a comment line at the start of the line holding `at`
      const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
      text.insert(begin, rng() % 2 == 0 ? "# c\n" : "\t# c\r\n");
      break;
    }
    case 6: {  // swap one token
      std::vector<std::pair<std::size_t, std::size_t>> tokens;  // (start, length)
      for (std::size_t i = 0; i < text.size();) {
        std::size_t end = i;
        while (end < text.size() && !is_c_space(text[end])) ++end;
        if (end > i) tokens.emplace_back(i, end - i);
        i = end + 1;
      }
      if (tokens.empty()) break;
      const auto [start, length] = tokens[rng() % tokens.size()];
      text.replace(start, length, kTokens[rng() % kTokens.size()]);
      break;
    }
    default:  // insert a NUL byte
      text.insert(at, 1, '\0');
      break;
  }
}

TEST(ProblemTextGolden, SameOutcomesAsPreRewriteCapture) {
  // Captured from the istringstream/stod reader: per input, the problem's
  // digest or the mapping's indexes, or the exact error.
  static const std::vector<GoldenText> rows{
#include "golden_problem_text.inc"
  };
  ASSERT_EQ(rows.size(), 207u);
  for (const GoldenText& row : rows) {
    EXPECT_EQ(outcome_of(row.kind, row.input), row.outcome) << "input:\n" << row.input;
  }

  // Fixed-seed mutations of the small seeds, folded into one digest with
  // the accepted and refused counts, also captured from that reader.
  constexpr std::size_t kMutations = 12000;
  std::mt19937_64 rng(22);
  DigestBuilder outcomes;
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const auto& [kind, seed] = kMutationSeeds[rng() % kMutationSeeds.size()];
    std::string input(seed);
    const std::size_t steps = 1 + rng() % 3;
    for (std::size_t step = 0; step < steps; ++step) mutate_text(input, rng);
    const std::string outcome = outcome_of(kind, input);
    outcomes.add_bytes(outcome);
    ++(outcome.starts_with("ok") ? accepted : refused);
  }
  EXPECT_EQ(accepted, 2097u);
  EXPECT_EQ(refused, 9903u);
  EXPECT_EQ(to_string(outcomes.finish()), "620f212ab9500b17a4e9d8df5a404c6f");
}

}  // namespace
}  // namespace mf::core
