// Tests for sharded sweep execution: the deterministic (point, trial)
// partition, merge() reproducing the unsharded SweepResult bit for bit —
// including under the retry protocol driven by a flaky method — the shard
// file round-trip, the parser's rejection of malformed text, and merge
// validation. The DispatchTest cases walk a campaign whose shard processes
// the caller runs itself, through the shard files on disk: a failed or
// garbled shard is rerun, and only a complete, consistently numbered set
// of files merges.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep_io.hpp"
#include "solve/service.hpp"
#include "sweep_helpers.hpp"

namespace mf::exp {
namespace {

using test::expect_identical;
using test::flaky_spec;
using test::run_shards;
using test::small_spec;

TEST(Shard, OwnerPartitionsEveryPair) {
  for (const std::size_t count : {2u, 3u, 5u}) {
    std::size_t per_shard[5] = {};
    for (std::size_t p = 0; p < 8; ++p) {
      for (std::size_t t = 0; t < 60; ++t) {
        const std::size_t owner = ShardSpec::owner(p, t, count);
        ASSERT_LT(owner, count);
        ++per_shard[owner];
        for (std::size_t s = 0; s < count; ++s) {
          EXPECT_EQ((ShardSpec{s, count}.owns(p, t)), s == owner);
        }
      }
    }
    for (std::size_t s = 0; s < count; ++s) {
      EXPECT_GT(per_shard[s], 0u) << "shard " << s << " of " << count << " owns nothing";
    }
  }
}

TEST(Shard, ShardedRunsArePartialAndRecordOutcomes) {
  const SweepSpec spec = small_spec();
  SweepOptions options;
  options.shard = {0, 2};
  const SweepResult partial = run_sweep(spec, options);
  EXPECT_TRUE(partial.is_partial());
  std::size_t outcomes = 0;
  for (const PointResult& point : partial.points) {
    EXPECT_TRUE(point.period_by_method.empty()) << "partial results do not aggregate";
    outcomes += point.trial_outcomes.size();
  }
  EXPECT_GT(outcomes, 0u);
  const SweepResult complete = run_sweep(spec);
  EXPECT_FALSE(complete.is_partial());
  for (const PointResult& point : complete.points) {
    EXPECT_TRUE(point.trial_outcomes.empty()) << "complete results drop raw outcomes";
  }
}

TEST(Shard, MergedShardsEqualUnshardedRun) {
  const SweepSpec spec = small_spec();
  const SweepResult unsharded = run_sweep(spec);
  for (const std::size_t count : {2u, 3u}) {
    const SweepResult merged = merge(run_shards(spec, count));
    EXPECT_FALSE(merged.is_partial());
    expect_identical(unsharded, merged);
  }
}

TEST(Shard, MergeReplaysTheRetryProtocolExactly) {
  const SweepSpec spec = flaky_spec();
  const SweepResult unsharded = run_sweep(spec);
  // The flaky method must actually fail somewhere or the fixture is inert.
  bool extended = false;
  for (const PointResult& point : unsharded.points) {
    extended = extended || point.attempts > spec.trials;
  }
  EXPECT_TRUE(extended) << "fixture never exercised the retry protocol";
  expect_identical(unsharded, merge(run_shards(spec, 3)));
}

TEST(Shard, ShardedRunBatchesAcrossPoints) {
  // A shard evaluates every trial it owns in one round per point, and the
  // rounds of all three points fit in one wave: one solve_all, not one per
  // point.
  const SweepSpec spec = small_spec();
  solve::SolveService service;
  test::CountingExecutor counting(service);
  SweepOptions options;
  options.shard = {0, 2};
  options.executor = &counting;
  const SweepResult partial = run_sweep(spec, options);
  ASSERT_EQ(counting.calls.size(), 1u);
  std::size_t outcomes = 0;
  for (const PointResult& point : partial.points) outcomes += point.trial_outcomes.size();
  EXPECT_EQ(counting.calls.front().size(), outcomes * spec.methods.size());
  EXPECT_EQ(to_text(partial), to_text(run_shards(spec, 2)[0]));
}

TEST(Shard, PooledShardsMatchSerialShards) {
  const SweepSpec spec = small_spec();
  support::ThreadPool pool(4);
  std::vector<SweepResult> pooled;
  for (std::size_t index = 0; index < 2; ++index) {
    SweepOptions options;
    options.shard = {index, 2};
    pooled.push_back(run_sweep(spec, options, &pool));
  }
  expect_identical(run_sweep(spec), merge(std::move(pooled)));
}

TEST(Shard, ShardFilesRoundTripThroughText) {
  const SweepSpec spec = flaky_spec();
  std::vector<SweepResult> shards = run_shards(spec, 2);
  std::vector<SweepResult> reloaded;
  for (const SweepResult& shard : shards) {
    reloaded.push_back(sweep_shard_from_text(to_text(shard)));
    EXPECT_EQ(to_text(reloaded.back()), to_text(shard)) << "serialization is canonical";
  }
  expect_identical(merge(std::move(shards)), merge(std::move(reloaded)));
}

TEST(Shard, NonIidScenarioShardsRoundTripAndMergeBitIdentically) {
  // A non-iid regime exercises the v2 format's scenario-id and model lines:
  // model-parameter overrides must survive the text round-trip or a merged
  // campaign would silently validate against default parameters.
  SweepSpec spec = small_spec();
  spec.name = "tiny-downtime";
  spec.scenario_id = "downtime";
  spec.base.mean_uptime_ms = 30'000.0;
  spec.base.mean_repair_ms = 6'000.0;
  const SweepResult unsharded = run_sweep(spec);
  std::vector<SweepResult> shards = run_shards(spec, 2);
  std::vector<SweepResult> reloaded;
  for (const SweepResult& shard : shards) {
    reloaded.push_back(sweep_shard_from_text(to_text(shard)));
    EXPECT_EQ(reloaded.back().spec.scenario_id, "downtime");
    EXPECT_EQ(reloaded.back().spec.base.mean_uptime_ms, 30'000.0);
    EXPECT_EQ(reloaded.back().spec.base.mean_repair_ms, 6'000.0);
  }
  expect_identical(unsharded, merge(std::move(reloaded)));
}

TEST(Shard, MergeRejectsMixedScenarioIds) {
  const SweepSpec spec = small_spec();
  std::vector<SweepResult> shards = run_shards(spec, 2);
  SweepSpec other = spec;
  other.scenario_id = "correlated";
  SweepOptions options;
  options.shard = {1, 2};
  shards[1] = run_sweep(other, options);
  EXPECT_THROW((void)merge(std::move(shards)), std::invalid_argument);
}

TEST(Shard, MergeRejectsMixedModelParameters) {
  const SweepSpec spec = small_spec();
  std::vector<SweepResult> shards = run_shards(spec, 2);
  SweepSpec other = spec;
  other.base.shock_max = 0.2;  // same scenario id, different model knob
  SweepOptions options;
  options.shard = {1, 2};
  shards[1] = run_sweep(other, options);
  EXPECT_THROW((void)merge(std::move(shards)), std::invalid_argument);
}

TEST(Shard, SerializingACompleteResultIsAnError) {
  EXPECT_THROW((void)to_text(run_sweep(small_spec())), std::invalid_argument);
}

/// The message merge() throws, or "merged" when it accepts its input.
std::string merge_error(std::vector<SweepResult> shards) {
  try {
    (void)merge(std::move(shards));
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "merged";
}

TEST(Shard, MergeValidatesItsInputs) {
  const SweepSpec spec = small_spec();
  // Missing shard.
  std::vector<SweepResult> shards = run_shards(spec, 3);
  shards.pop_back();
  EXPECT_THROW((void)merge(std::move(shards)), std::invalid_argument);
  // Duplicate shard index.
  shards = run_shards(spec, 2);
  shards[1] = shards[0];
  EXPECT_THROW((void)merge(std::move(shards)), std::invalid_argument);
  // Mismatched specs.
  shards = run_shards(spec, 2);
  SweepSpec other = spec;
  other.base_seed ^= 1;
  SweepOptions options;
  options.shard = {1, 2};
  shards[1] = run_sweep(other, options);
  EXPECT_THROW((void)merge(std::move(shards)), std::invalid_argument);
  // Complete results are not merge input.
  EXPECT_THROW((void)merge({run_sweep(spec)}), std::invalid_argument);
  // Shard files that claim more trials per point than a trial seed can
  // number (2^20): refused up front, before any per-trial buffer is sized.
  for (const std::string max_trials : {"1048577", "18446744073709551615"}) {
    std::vector<SweepResult> claimed;
    for (const SweepResult& shard : run_shards(spec, 2)) {
      std::string text = to_text(shard);
      const std::size_t at = text.find("protocol 4 4 ");
      ASSERT_NE(at, std::string::npos);
      text.replace(at, 12, "protocol 4 " + max_trials);
      claimed.push_back(sweep_shard_from_text(text));
    }
    EXPECT_NE(merge_error(std::move(claimed)).find("max_trials"), std::string::npos)
        << max_trials;
  }
}

TEST(Shard, MalformedShardTextIsRejected) {
  const std::string good = to_text(run_shards(small_spec(), 2)[0]);
  ASSERT_NO_THROW((void)sweep_shard_from_text(good));
  const auto rejection = [](const std::string& text) -> std::string {
    try {
      (void)sweep_shard_from_text(text);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "accepted";
  };
  const auto line_end = [&](std::size_t from) { return good.find('\n', from) + 1; };

  EXPECT_NE(rejection("not-a-shard-file\n").find("header"), std::string::npos);

  const std::string wrong_header = "microfactory-sweep-shard v1\n" + good.substr(line_end(0));
  EXPECT_NE(rejection(wrong_header).find("header"), std::string::npos);

  // Cut right after the first point line: its trials (and the later
  // points) are missing.
  const std::size_t point = good.find("\npoint ");
  ASSERT_NE(point, std::string::npos);
  EXPECT_NE(rejection(good.substr(0, line_end(point + 1))).find("unexpected end of input"),
            std::string::npos);

  // The first period of the first successful trial becomes a word.
  const std::size_t trial = good.find(" ok 0x");
  ASSERT_NE(trial, std::string::npos);
  std::string bad_period = good;
  bad_period.replace(trial + 4, good.find(' ', trial + 4) - (trial + 4), "fast");
  EXPECT_NE(rejection(bad_period).find("bad number 'fast'"), std::string::npos);

  // A negative count is not read as 2^64 - 1.
  std::string negative = good;
  const std::size_t protocol = negative.find("\nprotocol 4 4 ");
  ASSERT_NE(protocol, std::string::npos);
  negative.replace(protocol + 1, 13, "protocol 3 -1 ");
  EXPECT_NE(rejection(negative).find("line 6: bad number '-1'"), std::string::npos)
      << rejection(negative);

  // Nothing may follow the end line.
  const std::string after_end = "line " +
                                std::to_string(std::count(good.begin(), good.end(), '\n') + 1) +
                                ": unexpected bytes after 'end'";
  EXPECT_NE(rejection(good + "garbage after end\n").find(after_end), std::string::npos)
      << rejection(good + "garbage after end\n");
}

TEST(Shard, RunSweepValidatesShardSpec) {
  SweepOptions options;
  options.shard = {2, 2};
  EXPECT_THROW((void)run_sweep(small_spec(), options), std::invalid_argument);
  options.shard = {0, 0};
  EXPECT_THROW((void)run_sweep(small_spec(), options), std::invalid_argument);
}

TEST(Shard, MergeIsIndependentOfInputOrder) {
  // `mfsched --merge s2.txt s0.txt s1.txt` may name the files in any order.
  const std::vector<SweepResult> shards = run_shards(small_spec(), 3);
  const SweepResult in_order = merge(shards);
  std::array<std::size_t, 3> order = {0, 1, 2};
  while (std::next_permutation(order.begin(), order.end())) {
    std::vector<SweepResult> permuted;
    for (const std::size_t index : order) permuted.push_back(shards[index]);
    expect_identical(in_order, merge(std::move(permuted)));
  }
}

TEST(Shard, MergeRejectsShardsOfDifferentSplits) {
  // Shard 0 of a 2-way split and shard 1 of a 3-way split own different
  // (point, trial) pairs, so together they are no campaign.
  const SweepSpec spec = small_spec();
  const std::string error = merge_error({run_shards(spec, 2)[0], run_shards(spec, 3)[1]});
  EXPECT_NE(error.find("shard counts disagree"), std::string::npos) << error;
}

TEST(Shard, MergeRejectsAShardMissingAnOwnedTrial) {
  std::vector<SweepResult> shards = run_shards(small_spec(), 2);
  auto& outcomes = shards[1].points[1].trial_outcomes;
  ASSERT_FALSE(outcomes.empty());
  outcomes.erase(outcomes.begin());
  const std::string error = merge_error(std::move(shards));
  EXPECT_NE(error.find("missing an owned trial outcome"), std::string::npos) << error;
}

namespace fs = std::filesystem;

/// A campaign the caller dispatches: every shard runs as its own process
/// (`mfsched --figure ... --shard i/N --out s<i>.txt` under a shell
/// `&`/`wait`, slurm or k8s) and saves one shard file; the caller reruns a
/// shard whose file is missing or unreadable, then merges the files
/// (`mfsched --merge`). The fixture stages those processes in-process and
/// gives each test a fresh scratch directory.
class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mf-dispatch-test-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string shard_path(std::size_t index) const {
    return (dir_ / ("s" + std::to_string(index) + ".txt")).string();
  }

  /// What one shard process does: runs slice `index` of `count` and saves
  /// its shard file at `shard_path(slot)` (by default its own slot).
  std::string run_shard_process(const SweepSpec& spec, std::size_t index, std::size_t count,
                                std::optional<std::size_t> slot = std::nullopt) {
    SweepOptions options;
    options.shard = {index, count};
    const std::string path = shard_path(slot.value_or(index));
    save_sweep_shard(run_sweep(spec, options), path);
    return path;
  }

  /// What `mfsched --merge <paths>` does with the files.
  static SweepResult merge_files(const std::vector<std::string>& paths) {
    std::vector<SweepResult> shards;
    for (const std::string& path : paths) shards.push_back(load_sweep_shard(path));
    return merge(std::move(shards));
  }

  [[nodiscard]] std::vector<std::string> files_in_dir() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void write_file(const std::string& path, const std::string& text) {
    std::ofstream(path) << text;
  }

  fs::path dir_;
};

TEST_F(DispatchTest, DispatchedCampaignMergesBitIdenticalToUnsharded) {
  const SweepSpec spec = small_spec();
  std::vector<std::string> paths;
  for (std::size_t index = 0; index < 3; ++index) {
    paths.push_back(run_shard_process(spec, index, 3));
  }
  // Each file holds exactly its shard's text, and the write-temp-then-
  // rename save leaves no temp file behind for a collector to trip on.
  EXPECT_EQ(files_in_dir(), (std::vector<std::string>{"s0.txt", "s1.txt", "s2.txt"}));
  const std::vector<SweepResult> shards = run_shards(spec, 3);
  for (std::size_t index = 0; index < 3; ++index) {
    EXPECT_EQ(read_file(paths[index]), to_text(shards[index])) << "shard " << index;
  }
  expect_identical(run_sweep(spec), merge_files(paths));
}

TEST_F(DispatchTest, FailedShardIsRetriedAndCampaignConverges) {
  const SweepSpec spec = flaky_spec();
  const std::string s0 = run_shard_process(spec, 0, 3);
  const std::string s2 = run_shard_process(spec, 2, 3);
  // Shard 1's first process was killed mid-save: only its temp file exists.
  const std::string s1 = shard_path(1);
  const std::string shard1_text = to_text(run_shards(spec, 3)[1]);
  write_file(s1 + ".tmp-1", shard1_text.substr(0, shard1_text.size() / 2));

  // Without shard 1 the caller has nothing to merge: its file cannot be
  // read, and the two files present are not a campaign.
  EXPECT_THROW((void)load_sweep_shard(s1), std::invalid_argument);
  const std::string error = merge_error({load_sweep_shard(s0), load_sweep_shard(s2)});
  EXPECT_NE(error.find("exactly one result per shard"), std::string::npos) << error;

  // The rerun converges: content-addressed seeds give it the bytes the
  // first attempt would have written, and a second rerun over the file
  // (a shard the caller gave up on too early) changes nothing.
  run_shard_process(spec, 1, 3);
  EXPECT_EQ(read_file(s1), shard1_text);
  run_shard_process(spec, 1, 3);
  EXPECT_EQ(read_file(s1), shard1_text);
  expect_identical(run_sweep(spec), merge_files({s0, s1, s2}));
}

TEST_F(DispatchTest, InvalidShardFileCountsAsFailedAttempt) {
  const SweepSpec spec = small_spec();
  const std::string s0 = shard_path(0);
  const std::string s1 = run_shard_process(spec, 1, 2);

  // A process that exits 0 is not enough: the file it leaves must parse.
  // Garbage and a file cut short in transit both fail, so the caller
  // reruns the shard instead of merging.
  write_file(s0, "not-a-shard-file\n");
  EXPECT_THROW((void)merge_files({s0, s1}), std::invalid_argument);
  const std::string text = to_text(run_shards(spec, 2)[0]);
  write_file(s0, text.substr(0, text.size() - text.size() / 3));
  EXPECT_THROW((void)merge_files({s0, s1}), std::invalid_argument);

  run_shard_process(spec, 0, 2);
  expect_identical(run_sweep(spec), merge_files({s0, s1}));
}

TEST_F(DispatchTest, MisnumberedShardFileIsRejected) {
  const SweepSpec spec = small_spec();
  // The caller launched `--shard 1/2` twice: both files are valid, but the
  // one in slot 0 claims shard 1, and the merge refuses the pair.
  const std::string s0 = run_shard_process(spec, 1, 2, /*slot=*/0);
  const std::string s1 = run_shard_process(spec, 1, 2);
  EXPECT_EQ(load_sweep_shard(s0).shard.index, 1u);
  EXPECT_THROW((void)merge_files({s0, s1}), std::invalid_argument);

  // Slot 0 holding shard 0 of a 3-way split is misnumbered too.
  run_shard_process(spec, 0, 3, /*slot=*/0);
  EXPECT_THROW((void)merge_files({s0, s1}), std::invalid_argument);

  run_shard_process(spec, 0, 2);
  expect_identical(run_sweep(spec), merge_files({s0, s1}));
}

TEST_F(DispatchTest, RejectsUnusableConfiguration) {
  const SweepSpec spec = small_spec();
  // A one-way split is an unsharded run: there is no shard file to write.
  EXPECT_THROW((void)run_shard_process(spec, 0, 1), std::invalid_argument);
  EXPECT_TRUE(files_in_dir().empty());

  // A shard directory that does not exist fails the save, naming the path.
  SweepOptions options;
  options.shard = {0, 2};
  const std::string unwritable = (dir_ / "missing" / "s0.txt").string();
  try {
    save_sweep_shard(run_sweep(spec, options), unwritable);
    ADD_FAILURE() << "saved into a missing directory";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(unwritable), std::string::npos) << error.what();
  }

  // Merging a file no shard wrote, or no files at all, is an error too.
  try {
    (void)load_sweep_shard(shard_path(0));
    ADD_FAILURE() << "loaded a shard file that was never written";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(shard_path(0)), std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)merge_files({}), std::invalid_argument);
}

}  // namespace
}  // namespace mf::exp
