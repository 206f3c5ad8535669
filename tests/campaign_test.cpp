// Campaign subsystem: parallel execution determinism, grid expansion,
// aggregation math, and the JSON emitter.
//
// The determinism test is the campaign layer's core contract — a parallel
// campaign must be *bit-identical* to a serial one — and doubles as the
// ThreadSanitizer workload (the tsan CI job runs this binary).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "experiments/campaign.hpp"
#include "support/json.hpp"

namespace dps::exp {
namespace {

lu::LuConfig tinyConfig(std::int32_t workers = 2) {
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.r = 16; // 4 levels
  cfg.workers = workers;
  return cfg;
}

Campaign tinyCampaign() {
  Campaign campaign;
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.workers = {2, 4};
  grid.variants = {{"Basic", false, false, false}, {"P", true, false, false}};
  grid.fidelitySeeds = {1, 2};
  campaign.add(grid);
  campaign.add(tinyConfig(4), mall::AllocationPlan::killAfter({{1, {2, 3}}}), 3);
  return campaign;
}

TEST(CampaignTest, ParallelMatchesSerialBitExactly) {
  const Campaign campaign = tinyCampaign();
  const CampaignResult serial = campaign.run(/*jobs=*/1);
  const CampaignResult parallel = campaign.run(/*jobs=*/4);

  ASSERT_EQ(serial.observations.size(), campaign.size());
  ASSERT_EQ(parallel.observations.size(), serial.observations.size());
  for (std::size_t i = 0; i < serial.observations.size(); ++i) {
    const Observation& a = serial.observations[i];
    const Observation& b = parallel.observations[i];
    // Same observation order...
    EXPECT_EQ(a.label, b.label) << "index " << i;
    // ...and the same doubles, bit for bit (EXPECT_EQ on double is exact).
    EXPECT_EQ(a.measuredSec, b.measuredSec) << a.label;
    EXPECT_EQ(a.predictedSec, b.predictedSec) << a.label;
    EXPECT_EQ(a.error(), b.error()) << a.label;
    EXPECT_EQ(a.measured.makespan, b.measured.makespan) << a.label;
    EXPECT_EQ(a.predicted.makespan, b.predicted.makespan) << a.label;
    EXPECT_EQ(a.measured.counters.steps, b.measured.counters.steps) << a.label;
    EXPECT_EQ(a.measured.counters.messages, b.measured.counters.messages) << a.label;
    EXPECT_EQ(a.measured.counters.networkBytes, b.measured.counters.networkBytes) << a.label;
    EXPECT_EQ(a.predicted.counters.steps, b.predicted.counters.steps) << a.label;
  }
}

TEST(CampaignTest, PoolOverloadMatchesJobsOverload) {
  const Campaign campaign = tinyCampaign();
  const CampaignResult serial = campaign.run(1);
  ThreadPool pool(3);
  const CampaignResult pooled = campaign.run(pool);
  ASSERT_EQ(pooled.observations.size(), serial.observations.size());
  for (std::size_t i = 0; i < serial.observations.size(); ++i) {
    EXPECT_EQ(serial.observations[i].measuredSec, pooled.observations[i].measuredSec);
    EXPECT_EQ(serial.observations[i].predictedSec, pooled.observations[i].predictedSec);
  }
}

TEST(CampaignTest, GridExpandsRowMajorWithSeedInnermost) {
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.r = {16, 32};
  grid.workers = {2, 4};
  grid.fidelitySeeds = {7, 8, 9};
  EXPECT_EQ(grid.size(), 12u);
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 12u);
  // Seed varies fastest, then workers, then r.
  EXPECT_EQ(points[0].cfg.r, 16);
  EXPECT_EQ(points[0].cfg.workers, 2);
  EXPECT_EQ(points[0].fidelitySeed, 7u);
  EXPECT_EQ(points[1].fidelitySeed, 8u);
  EXPECT_EQ(points[3].cfg.workers, 4);
  EXPECT_EQ(points[3].fidelitySeed, 7u);
  EXPECT_EQ(points[6].cfg.r, 32);
  EXPECT_EQ(points[6].cfg.workers, 2);
}

TEST(CampaignTest, GridEmptyDimensionsInheritBase) {
  SweepGrid grid;
  grid.base = tinyConfig(4);
  grid.base.pipelined = true;
  const auto points = grid.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].cfg.n, 64);
  EXPECT_EQ(points[0].cfg.workers, 4);
  EXPECT_TRUE(points[0].cfg.pipelined);
  EXPECT_TRUE(points[0].plan.empty());
  EXPECT_EQ(points[0].fidelitySeed, 1u);
}

TEST(CampaignTest, AggregationMathMatchesHandComputation) {
  // Synthetic observations with easy numbers: measured {10, 20, 30},
  // predicted {11, 19, 33} -> errors {0.1, -0.05, 0.1}.
  CampaignResult result;
  const double meas[] = {10, 20, 30};
  const double pred[] = {11, 19, 33};
  for (int i = 0; i < 3; ++i) {
    Observation obs;
    obs.label = "synthetic";
    obs.measuredSec = meas[i];
    obs.predictedSec = pred[i];
    result.observations.push_back(std::move(obs));
    result.points.emplace_back();
  }
  const auto agg = result.aggregate();

  EXPECT_EQ(agg.measuredSec.count(), 3u);
  EXPECT_DOUBLE_EQ(agg.measuredSec.mean(), 20.0);
  EXPECT_DOUBLE_EQ(agg.measuredSec.min(), 10.0);
  EXPECT_DOUBLE_EQ(agg.measuredSec.max(), 30.0);
  EXPECT_DOUBLE_EQ(agg.measuredSec.stddev(), 10.0); // sample stddev of {10,20,30}

  EXPECT_DOUBLE_EQ(agg.predictedSec.mean(), 21.0);

  const double e0 = 0.1, e1 = -0.05, e2 = 0.1;
  const double mean = (e0 + e1 + e2) / 3.0;
  const double var = ((e0 - mean) * (e0 - mean) + (e1 - mean) * (e1 - mean) +
                      (e2 - mean) * (e2 - mean)) /
                     2.0; // n-1 denominator
  EXPECT_NEAR(agg.error.mean(), mean, 1e-15);
  EXPECT_NEAR(agg.error.stddev(), std::sqrt(var), 1e-15);
  EXPECT_DOUBLE_EQ(agg.error.min(), -0.05);
  EXPECT_DOUBLE_EQ(agg.error.max(), 0.1);

  const auto errs = result.errors();
  ASSERT_EQ(errs.size(), 3u);
  EXPECT_DOUBLE_EQ(errs[0], 0.1);
  EXPECT_DOUBLE_EQ(errs[1], -0.05);
}

TEST(CampaignTest, JsonEmitter) {
  Campaign campaign;
  campaign.add(tinyConfig(), {}, 1, mall::RemovalPolicy::MigrateColumns, "tiny \"quoted\"");
  const auto result = campaign.run(1);

  std::ostringstream json;
  JsonWriter w(json);
  result.writeJson(w);
  EXPECT_TRUE(w.closed());
  const std::string j = json.str();
  EXPECT_NE(j.find("\"observations\":["), std::string::npos);
  EXPECT_NE(j.find("\"aggregate\":{"), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"tiny \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(j.find("\"measured_sec\":"), std::string::npos);
  EXPECT_EQ(j.find('\n'), std::string::npos); // single-line object
  EXPECT_EQ(result.jsonString(), j);
}

TEST(CampaignTest, EmptyCampaignEmittersAreWellFormed) {
  // An empty sweep is legal: zero observations, zero-count aggregates, and
  // an emitter that still produces valid JSON.
  const Campaign campaign;
  EXPECT_EQ(campaign.size(), 0u);
  const auto result = campaign.run(/*jobs=*/2);
  EXPECT_TRUE(result.observations.empty());
  EXPECT_TRUE(result.errors().empty());
  const auto agg = result.aggregate();
  EXPECT_EQ(agg.measuredSec.count(), 0u);
  EXPECT_DOUBLE_EQ(agg.error.mean(), 0.0);

  const std::string j = result.jsonString();
  EXPECT_NE(j.find("\"observations\":[]"), std::string::npos);
  EXPECT_NE(j.find("\"aggregate\":{"), std::string::npos);
}

TEST(CampaignTest, SinglePointSweepAggregatesDegenerate) {
  // A one-point grid: aggregates collapse to that observation (stddev 0).
  Campaign campaign;
  SweepGrid grid;
  grid.base = tinyConfig();
  campaign.add(grid);
  ASSERT_EQ(campaign.size(), 1u);
  const auto result = campaign.run(1);
  const auto agg = result.aggregate();
  EXPECT_EQ(agg.measuredSec.count(), 1u);
  EXPECT_DOUBLE_EQ(agg.measuredSec.mean(), result.observations[0].measuredSec);
  EXPECT_DOUBLE_EQ(agg.measuredSec.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(agg.measuredSec.min(), agg.measuredSec.max());
  EXPECT_NE(result.jsonString().find("\"aggregate\":{\"measured_sec\":{\"count\":1"),
            std::string::npos);
}

TEST(CampaignTest, ExceptionsFromWorkersPropagate) {
  Campaign campaign;
  auto bad = tinyConfig();
  bad.r = 17; // does not divide n -> validate() throws inside the worker
  campaign.add(bad);
  campaign.add(tinyConfig());
  campaign.add(tinyConfig());
  EXPECT_THROW(campaign.run(2), Error);
  EXPECT_THROW(campaign.run(1), Error);
}

TEST(CampaignTest, PredictionLegIdenticalAcrossSeeds) {
  // The predictor ignores the fidelity seed: one campaign, many machine
  // states, a single predicted series (ScenarioTest's invariant, at the
  // campaign level and in parallel).
  Campaign campaign;
  SweepGrid grid;
  grid.base = tinyConfig();
  grid.fidelitySeeds = {1, 2, 3, 4};
  campaign.add(grid);
  const auto result = campaign.run(4);
  for (std::size_t i = 1; i < result.observations.size(); ++i) {
    EXPECT_EQ(result.observations[i].predictedSec, result.observations[0].predictedSec);
    EXPECT_NE(result.observations[i].measuredSec, result.observations[i - 1].measuredSec);
  }
}

} // namespace
} // namespace dps::exp
