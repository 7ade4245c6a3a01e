// Unit tests for the support substrate: RNG, statistics, matrix, thread
// pool, table/CSV rendering and CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/matrix.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace mf::support {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MF_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(MF_REQUIRE(true));
}

TEST(Check, CheckThrowsLogicError) {
  EXPECT_THROW(MF_CHECK(false), std::logic_error);
  EXPECT_NO_THROW(MF_CHECK(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform(100.0, 1000.0);
    EXPECT_GE(v, 100.0);
    EXPECT_LT(v, 1000.0);
  }
}

TEST(Rng, UniformU64CoversInclusiveRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.uniform_u64(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, UniformU64DegenerateRange) {
  Rng rng(10);
  EXPECT_EQ(rng.uniform_u64(5, 5), 5u);
}

TEST(Rng, UniformIntHandlesNegatives) {
  Rng rng(11);
  for (int i = 0; i < 1'000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(12);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(14);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(250.0));
  EXPECT_NEAR(stats.mean(), 250.0, 5.0);
  EXPECT_GT(stats.min(), 0.0 - 1e-12);
  // Exponential: stddev equals the mean.
  EXPECT_NEAR(stats.stddev(), 250.0, 10.0);
}

TEST(Rng, ExponentialDegenerateMean) {
  Rng rng(15);
  EXPECT_DOUBLE_EQ(rng.exponential(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.exponential(-5.0), 0.0);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng base(99);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += s0() == s1() ? 1 : 0;
  EXPECT_LT(equal, 3);
  // Splitting is deterministic.
  Rng again = Rng(99).split(0);
  Rng s0b = Rng(99).split(0);
  EXPECT_EQ(again(), s0b());
}

TEST(Rng, MixSeedIsStable) {
  EXPECT_EQ(mix_seed(1, 2), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
}

TEST(Stats, KnownValues) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8u);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.summary().ci95_half_width, 0.0);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10.0;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Stats, SummarizeSpan) {
  const std::vector<double> samples{1.0, 2.0, 3.0};
  const Summary s = summarize(samples);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_GT(s.ci95_half_width, 0.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> samples{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(samples, 0.5), 2.5);
}

TEST(Stats, QuantileValidation) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile({1.0}, 1.5), std::invalid_argument);
}

TEST(Matrix, BasicAccessAndBounds) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
  EXPECT_THROW((void)m.at(2, 0), std::invalid_argument);
  EXPECT_THROW((void)m.at(0, 3), std::invalid_argument);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  parallel_for(pool, visits.size(), [&](std::size_t i) { visits[i]++; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, SubmitFutureRethrows) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] { done++; });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, GaugesIdlePoolReadsZero) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
  pool.wait_idle();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ThreadPool, GaugesSeeBlockedWorkAndQueuedBacklog) {
  // One worker, gated: the first task occupies the worker (in_flight), the
  // rest can only wait in the queue (queue_depth) — deterministic, no
  // sleeps.
  ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  pool.post([&] {
    started.store(true);
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) pool.post([] {});
  EXPECT_EQ(pool.in_flight(), 1u);
  EXPECT_EQ(pool.queue_depth(), 3u);
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables) {
  // The reason tasks are UniqueFunction, not std::function: a task that
  // OWNS move-only state (a unique_ptr here, a std::promise in the solve
  // service) must be enqueueable directly, with no shared_ptr shim.
  ThreadPool pool(2);
  auto payload = std::make_unique<int>(41);
  std::atomic<int> observed{0};
  auto future = pool.submit([payload = std::move(payload), &observed] {
    observed.store(*payload + 1);
  });
  future.get();
  EXPECT_EQ(observed.load(), 42);
}

TEST(ThreadPool, PostDeliversThroughAMovedPromise) {
  ThreadPool pool(2);
  std::promise<int> promise;
  std::future<int> future = promise.get_future();
  pool.post([promise = std::move(promise)]() mutable { promise.set_value(7); });
  EXPECT_EQ(future.get(), 7);
}

TEST(UniqueFunctionTest, InvokesAndReportsEmptiness) {
  UniqueFunction empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  int calls = 0;
  UniqueFunction counted([&] { ++calls; });
  EXPECT_TRUE(static_cast<bool>(counted));
  counted();
  counted();
  EXPECT_EQ(calls, 2);
  UniqueFunction moved = std::move(counted);
  moved();
  EXPECT_EQ(calls, 3);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row(std::vector<std::string>{"alpha", "1"});
  table.add_row(std::vector<double>{2.5, 3.25}, 2);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RowWidthValidated) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  AsciiChart chart("n", "period");
  chart.add_series("H1", {1, 2, 3}, {10, 20, 30});
  chart.add_series("H2", {1, 2, 3}, {5, 6, 7});
  const std::string out = chart.render();
  EXPECT_NE(out.find("*=H1"), std::string::npos);
  EXPECT_NE(out.find("+=H2"), std::string::npos);
}

TEST(AsciiChart, MismatchedSeriesRejected) {
  AsciiChart chart("x", "y");
  EXPECT_THROW(chart.add_series("bad", {1, 2}, {1}), std::invalid_argument);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: a flag directly followed by a bare token consumes it as its
  // value, so boolean switches go last (or use --flag=true).
  const char* argv[] = {"prog", "--n", "12", "--ratio=0.5", "input.txt", "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.5);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

/// The message `get` throws, or "" when it does not throw.
template <typename Get>
std::string thrown_message(Get get) {
  try {
    (void)get();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Cli, MalformedAndPartialNumbersThrowNamingTheFlag) {
  const char* argv[] = {"prog",     "--word",   "abc",         "--partial", "12x",
                        "--ratio",  "0.5x",     "--huge",      "99999999999999999999",
                        "--empty=", "--nan",    "nan",         "--negative", "-3",
                        "--switch"};
  CliArgs args(15, argv);
  // A lenient parse reads these as 0, 12, 0.5 and 2^63-1, so a typo would
  // run with a default instead of failing.
  EXPECT_EQ(thrown_message([&] { return args.get_int("word", 1); }),
            "--word expects a whole number, got 'abc'");
  EXPECT_EQ(thrown_message([&] { return args.get_int("partial", 1); }),
            "--partial expects a whole number, got '12x'");
  EXPECT_EQ(thrown_message([&] { return args.get_int("huge", 1); }),
            "--huge expects a whole number, got '99999999999999999999'");
  EXPECT_EQ(thrown_message([&] { return args.get_int("empty", 1); }),
            "--empty expects a whole number, got ''");
  EXPECT_EQ(thrown_message([&] { return args.get_int("ratio", 1); }),
            "--ratio expects a whole number, got '0.5x'");
  EXPECT_EQ(thrown_message([&] { return args.get_double("ratio", 1.0); }),
            "--ratio expects a number, got '0.5x'");
  EXPECT_EQ(thrown_message([&] { return args.get_double("nan", 1.0); }),
            "--nan expects a number, got 'nan'");
  // A bare switch holds "true", which is no number either.
  EXPECT_EQ(thrown_message([&] { return args.get_int("switch", 1); }),
            "--switch expects a whole number, got 'true'");
  EXPECT_EQ(thrown_message([&] { return args.get_double("switch", 1.0); }),
            "--switch expects a number, got 'true'");
  // Well-formed values and absent flags still read normally; the sign is
  // the caller's to police.
  EXPECT_EQ(args.get_int("negative", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("negative", 0.0), -3.0);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.25), 0.25);
}

TEST(Cli, NamesListsEveryParsedFlagOnce) {
  const char* argv[] = {"prog", "--scale", "10", "--figure=fig06", "in.txt", "--scale", "2",
                        "--cache-stats"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.names(), (std::vector<std::string>{"cache-stats", "figure", "scale"}));
  EXPECT_EQ(args.get_int("scale", 0), 2);  // the last spelling wins
}

}  // namespace
}  // namespace mf::support
