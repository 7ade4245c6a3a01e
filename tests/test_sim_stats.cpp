// Tests for sim::stats — the trajectory-statistics validation harness.
// Unit tests pin the batch-means and z-statistic math on hand-checkable
// inputs; the agreement suite then runs the real gate matrix: every
// registered scenario family × topology validated against its analytic
// period reduction at pinned seeds.
#include <gtest/gtest.h>

#include <vector>

#include "exp/scenario_registry.hpp"
#include "sim/stats.hpp"

namespace mf::sim::stats {
namespace {

TEST(BatchMeans, ConstantSpacingHasZeroVariance) {
  // Outputs every 10 ms: every batch mean is exactly 10, variance 0.
  std::vector<double> times;
  for (int k = 1; k <= 110; ++k) times.push_back(10.0 * k);
  const BatchMeans result = batch_means_period(times, 10, 4);
  EXPECT_EQ(result.batch_count, 4u);
  EXPECT_EQ(result.batch_size, 25u);
  EXPECT_DOUBLE_EQ(result.mean, 10.0);
  EXPECT_DOUBLE_EQ(result.variance, 0.0);
  EXPECT_DOUBLE_EQ(result.std_error, 0.0);
}

TEST(BatchMeans, HandComputedTwoBatchCase) {
  // Warmup 1 output at t=0; two batches of two outputs.
  // Batch 1 spans t=0 -> t=8 over 2 outputs: mean 4. Batch 2 spans
  // t=8 -> t=20: mean 6. Grand mean 5, sample variance (1+1)/(2-1) = 2,
  // std error sqrt(2/2) = 1.
  const std::vector<double> times{0.0, 3.0, 8.0, 15.0, 20.0};
  const BatchMeans result = batch_means_period(times, 1, 2);
  EXPECT_EQ(result.batch_size, 2u);
  EXPECT_DOUBLE_EQ(result.mean, 5.0);
  EXPECT_DOUBLE_EQ(result.variance, 2.0);
  EXPECT_DOUBLE_EQ(result.std_error, 1.0);
  EXPECT_DOUBLE_EQ(result.ci95_half_width(), 1.96);
}

TEST(BatchMeans, DropsTrailingPartialBatch) {
  // 11 measured outputs into 3 batches: size 3, the last 2 are dropped —
  // the mean covers outputs 1..9 only.
  std::vector<double> times;
  for (int k = 0; k <= 11; ++k) times.push_back(static_cast<double>(k));
  const BatchMeans result = batch_means_period(times, 1, 3);
  EXPECT_EQ(result.batch_size, 3u);
  EXPECT_DOUBLE_EQ(result.mean, 1.0);
}

TEST(BatchMeans, RejectsDegenerateInputs) {
  const std::vector<double> times{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW((void)batch_means_period(times, 0, 2), std::invalid_argument);   // no anchor
  EXPECT_THROW((void)batch_means_period(times, 1, 1), std::invalid_argument);   // one batch
  EXPECT_THROW((void)batch_means_period(times, 3, 2), std::invalid_argument);   // too short
}

TEST(ZStatistics, OneSample) {
  BatchMeans sample;
  sample.mean = 105.0;
  sample.std_error = 2.5;
  EXPECT_DOUBLE_EQ(one_sample_z(sample, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(one_sample_z(sample, 110.0), -2.0);

  sample.std_error = 0.0;
  EXPECT_THROW((void)one_sample_z(sample, 100.0), std::invalid_argument);
}

// --- The agreement gate matrix ----------------------------------------------

/// The full matrix at the pinned CI seed: every failure regime on both
/// topologies. This is the statistical gate of docs/simulation.md —
/// the simulator's batch-means period must agree with the model's analytic
/// reduction within noise + the documented bias band.
TEST(SimStatsAgreement, EveryScenarioFamilyMatchesItsAnalyticReduction) {
  ValidationConfig config;  // pinned defaults: seed 1, 20 x 1000 outputs
  const std::vector<ValidationResult> results = validate_registered_scenarios(config);
  // 4 regimes x 2 topologies.
  ASSERT_EQ(results.size(), 8u);
  for (const ValidationResult& result : results) {
    EXPECT_TRUE(result.pass) << result.describe();
    EXPECT_GT(result.analytic_period, 0.0);
    EXPECT_GT(result.empirical.std_error, 0.0);
    EXPECT_EQ(result.empirical.batch_count, config.batch_count);
    // The campaign really ran to its target.
    EXPECT_TRUE(result.report.reached_target) << result.describe();
  }
}

/// validate_scenario surfaces unknown scenario ids with the table's
/// listing error.
TEST(SimStatsAgreement, UnknownScenarioThrows) {
  ValidationConfig config;
  EXPECT_THROW((void)validate_scenario("no-such-family", Topology::kChain, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace mf::sim::stats
