// Deterministic mutation fuzz of the five parsers that read text from
// outside the process: shard files, disk-cache entries (also the daemon's
// solve responses), the daemon's request and stats bodies, and problem
// texts. Each starts from valid records and applies fixed-seed mutations:
// bit flips, deletions, truncations, duplicated lines, and number tokens
// swapped for -1 or for values of at least 2^60 (large enough that a
// parser sizing a buffer from them fails at once instead of allocating).
//
// Every mutated input must be accepted or refused through the parser's
// documented channel (std::invalid_argument for the shard and problem
// parsers, nullopt for the others); any other exception fails the test. For
// an accepted input x, y = write(parse(x)) must be a fixpoint:
// write(parse(y)) == y.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <exception>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/io.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep_io.hpp"
#include "serve/protocol.hpp"
#include "solve/disk_cache.hpp"
#include "test_helpers.hpp"

namespace mf {
namespace {

constexpr std::size_t kMutationsPerParser = 4000;

/// write(parse(text)), or nullopt when the parser refuses `text` through its
/// documented channel. Anything else a parser or writer throws propagates.
using RoundTrip = std::optional<std::string> (*)(const std::string&);

std::optional<std::string> shard_round_trip(const std::string& text) {
  std::optional<exp::SweepResult> parsed;
  try {
    parsed = exp::sweep_shard_from_text(text);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return exp::to_text(*parsed);
}

std::optional<std::string> entry_round_trip(const std::string& text) {
  const auto parsed = solve::entry_from_text(text);
  if (!parsed.has_value()) return std::nullopt;
  return solve::entry_to_text(parsed->first, parsed->second);
}

std::optional<std::string> request_round_trip(const std::string& text) {
  const std::optional<serve::WireRequest> parsed = serve::request_from_text(text);
  if (!parsed.has_value()) return std::nullopt;
  return serve::request_to_text(*parsed);
}

std::optional<std::string> stats_round_trip(const std::string& text) {
  const std::optional<serve::DaemonStatsSnapshot> parsed = serve::stats_from_text(text);
  if (!parsed.has_value()) return std::nullopt;
  return serve::stats_to_text(*parsed);
}

std::optional<std::string> problem_round_trip(const std::string& text) {
  std::optional<core::Problem> parsed;
  try {
    parsed = core::problem_from_text(text);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return core::to_text(*parsed);
}

std::string golden(const std::string& name) {
  std::ifstream in(std::string(MF_GOLDEN_RECORDS_DIR) + "/" + name, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Replaces one whitespace-delimited token that starts with a digit.
void replace_number(std::string& text, std::mt19937_64& rng) {
  static constexpr std::array<const char*, 7> kReplacements = {
      "-1",
      "1152921504606846976",     // 2^60
      "4611686018427387904",     // 2^62
      "9223372036854775808",     // 2^63
      "18446744073709551615",    // 2^64 - 1
      "18446744073709551616",    // 2^64: overflows a u64
      "100000000000000000000"};  // 10^20: beyond size_t as a double
  std::vector<std::pair<std::size_t, std::size_t>> numbers;  // (start, length)
  for (std::size_t i = 0; i < text.size();) {
    const std::size_t end = std::min(text.find_first_of(" \n", i), text.size());
    if (end > i && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      numbers.emplace_back(i, end - i);
    }
    i = end + 1;
  }
  if (numbers.empty()) return;
  const auto [start, length] = numbers[rng() % numbers.size()];
  text.replace(start, length, kReplacements[rng() % kReplacements.size()]);
}

void mutate(std::string& text, std::mt19937_64& rng) {
  if (text.empty()) return;
  const std::size_t at = rng() % text.size();
  switch (rng() % 5) {
    case 0:  // flip one bit of one byte
      text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
      break;
    case 1:  // delete a short run
      text.erase(at, 1 + rng() % 8);
      break;
    case 2:  // truncate
      text.resize(at);
      break;
    case 3: {  // duplicate the line holding `at`
      const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
      const std::size_t end = std::min(text.find('\n', at), text.size() - 1) + 1;
      text.insert(end, text.substr(begin, end - begin));
      break;
    }
    default:
      replace_number(text, rng);
      break;
  }
}

void fuzz(const char* name, RoundTrip round_trip, const std::vector<std::string>& seeds,
          std::uint64_t rng_seed) {
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(round_trip(seed).has_value()) << name << " refuses its seed:\n" << seed;
  }
  std::mt19937_64 rng(rng_seed);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kMutationsPerParser; ++i) {
    std::string input = seeds[rng() % seeds.size()];
    const std::size_t steps = 1 + rng() % 2;
    for (std::size_t step = 0; step < steps; ++step) mutate(input, rng);
    try {
      const std::optional<std::string> once = round_trip(input);
      if (!once.has_value()) continue;
      ++accepted;
      const std::optional<std::string> twice = round_trip(*once);
      ASSERT_TRUE(twice.has_value()) << name << " mutation " << i
                                     << ": refuses what it wrote:\n" << *once;
      ASSERT_EQ(*twice, *once) << name << " mutation " << i << ": write(parse) is not a "
                               << "fixpoint; input:\n" << input;
    } catch (const std::exception& error) {
      FAIL() << name << " mutation " << i << " escaped as " << typeid(error).name() << ": "
             << error.what() << "\ninput:\n" << input;
    }
  }
  // Mutations that leave the record valid (a flipped digit, a duplicated
  // list entry) must occur, or the fixpoint check never ran.
  EXPECT_GT(accepted, 0u) << name;
}

TEST(ParserFuzz, ShardFiles) {
  fuzz("sweep_shard_from_text", shard_round_trip, {golden("shard.txt")}, 1);
}

TEST(ParserFuzz, CacheEntries) {
  fuzz("entry_from_text", entry_round_trip, {golden("cache_entry.mfc")}, 2);
}

TEST(ParserFuzz, RequestBodies) {
  fuzz("request_from_text", request_round_trip, {golden("request.txt")}, 3);
}

TEST(ParserFuzz, StatsBodies) {
  fuzz("stats_from_text", stats_round_trip, {golden("stats.txt")}, 4);
}

TEST(ParserFuzz, ProblemTexts) {
  // An in-tree with non-integer w and f, so the number parser meets 17-digit
  // decimals; and a hand-written text with the comment lines, blank lines,
  // tabs and CRLF line ends the line reader skips or splits on.
  exp::Scenario scenario;
  scenario.tasks = 20;
  scenario.machines = 6;
  scenario.types = 3;
  scenario.integer_times = false;
  const std::vector<std::string> seeds = {
      core::to_text(test::tiny_chain_problem()),
      core::to_text(test::uniform_problem({0, 1, 1, 0, 2}, 4, 120.5, 0.01)),
      core::to_text(exp::generate_in_tree(scenario, 0.5, 7)),
      "# calibration export\r\n"
      "\r\n"
      "microfactory-problem v1\r\n"
      "n\t3 m 2\tp 2   # dimensions\r\n"
      "types 0 1 0\r\n"
      "\t# the last task is the sink\r\n"
      "successors 1\t2 -\r\n"
      "w 100.5 200\r\n"
      "\r\n"
      "w\t150 120.25\r\n"
      "w 100.5 200 # same type as task 0\r\n"
      "f 0.01 0.02\r\n"
      "f 0.02\t0.01\r\n"
      "f 0.01 0.02\r\n"};
  fuzz("problem_from_text", problem_round_trip, seeds, 5);
}

}  // namespace
}  // namespace mf
