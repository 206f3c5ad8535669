// Dynamic node allocation: removal plans, column migration, allocation
// accounting and correctness of the factorization across removals
// (paper §6/§8).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.hpp"
#include "lu/app.hpp"
#include "malleable/controller.hpp"
#include "net/profile.hpp"
#include "trace/efficiency.hpp"

namespace dps::mall {
namespace {

lu::LuConfig baseConfig() {
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.r = 8; // 8 levels, like the paper's r=324 on 2592
  cfg.workers = 4;
  cfg.seed = 55;
  return cfg;
}

core::SimConfig directConfig() {
  core::SimConfig c;
  c.profile = net::commodityGigabit();
  c.mode = core::ExecutionMode::DirectExec;
  return c;
}

core::SimConfig pdexecConfig() {
  core::SimConfig c;
  c.profile = net::ultraSparc440();
  c.mode = core::ExecutionMode::Pdexec;
  c.allocatePayloads = false;
  return c;
}

TEST(PlanTest, Describe) {
  auto plan = AllocationPlan::killAfter({{1, {4, 5, 6, 7}}});
  EXPECT_EQ(plan.describe(), "kill 4 after it. 1");
  auto plan2 = AllocationPlan::killAfter({{2, {6, 7}}, {3, {4, 5}}});
  EXPECT_EQ(plan2.describe(), "kill 2 after it. 2 + kill 2 after it. 3");
  EXPECT_EQ(AllocationPlan{}.describe(), "static");
  auto plan3 = AllocationPlan::killAfter({{2, {2, 3}}}).thenGrow(5, {2, 3});
  EXPECT_EQ(plan3.describe(), "kill 2 after it. 2 + grow 2 after it. 5");
  EXPECT_FALSE(plan3.empty());
}

TEST(MalleableTest, RemovalKeepsFactorizationCorrect) {
  const auto cfg = baseConfig();
  core::SimEngine engine(directConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440().scaled(100.0), true);
  LuMalleabilityController controller(engine, build,
                                      AllocationPlan::killAfter({{2, {3}}, {4, {2}}}));
  auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  EXPECT_LT(lu::verifyLu(cfg, result, build.workersGroup), 1e-9);
  EXPECT_EQ(controller.removed().size(), 2u);
  EXPECT_GT(controller.migratedBytes(), 0u);
}

TEST(MalleableTest, StagedRemovalMatchesPaperStrategy) {
  // "kill 2 after it. 2 + 2 after it. 3" on 8 threads (paper Fig. 12).
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 8;
  core::SimEngine engine(directConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440().scaled(100.0), true);
  LuMalleabilityController controller(engine, build,
                                      AllocationPlan::killAfter({{2, {6, 7}}, {3, {4, 5}}}));
  auto result = lu::runLu(engine, build);
  EXPECT_LT(lu::verifyLu(cfg, result, build.workersGroup), 1e-9);
  EXPECT_EQ(controller.removed().size(), 4u);
}

TEST(MalleableTest, AllocationTimelineShrinks) {
  const auto cfg = baseConfig();
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  LuMalleabilityController controller(engine, build, AllocationPlan::killAfter({{1, {2, 3}}}));
  auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  ASSERT_TRUE(result.trace);
  const auto& allocs = result.trace->allocations();
  ASSERT_GE(allocs.size(), 2u);
  EXPECT_EQ(allocs.front().allocatedNodes, 4);
  EXPECT_EQ(allocs.back().allocatedNodes, 2);
}

TEST(MalleableTest, RemovalShortensOrKeepsRuntimeReasonable) {
  // Removing nodes after most of the work is done should cost little
  // (paper: "removing nodes during execution should not have a large
  // impact on the total computation time").
  const auto cfg = baseConfig();
  const auto model = lu::KernelCostModel::ultraSparc440();

  auto makespan = [&](AllocationPlan plan) {
    core::SimEngine engine(pdexecConfig());
    lu::LuBuild build = lu::buildLu(cfg, model, false);
    LuMalleabilityController controller(engine, build, std::move(plan));
    return toSeconds(lu::runLu(engine, build).makespan);
  };

  const double staticTime = makespan(AllocationPlan{});
  const double lateKill = makespan(AllocationPlan::killAfter({{6, {2, 3}}}));
  EXPECT_LT(lateKill, staticTime * 1.10);
}

TEST(MalleableTest, MultOnlyPolicyKeepsColumnsInPlace) {
  const auto cfg = baseConfig();
  core::SimEngine engine(directConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440().scaled(100.0), true);
  LuMalleabilityController controller(engine, build, AllocationPlan::killAfter({{2, {3}}}),
                                      RemovalPolicy::MultOnly);
  auto result = lu::runLu(engine, build);
  EXPECT_LT(lu::verifyLu(cfg, result, build.workersGroup), 1e-9);
  EXPECT_EQ(controller.migratedBytes(), 0u);
  // Directory unchanged: thread 3 still owns its columns.
  EXPECT_FALSE(build.directory->columnsOf(3).empty());
}

TEST(MalleableTest, PinnedColumnDefersMigration) {
  // Kill the owner of the very next panel column: its column must stay
  // until the following boundary, then move.
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 8; // column k owned by thread k
  core::SimEngine engine(directConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440().scaled(100.0), true);
  // After iteration 2 the pinned column is 2... kill thread 2's *next*
  // pinned owner: marker value 2 pins column 2, owned by thread 2.
  LuMalleabilityController controller(engine, build, AllocationPlan::killAfter({{2, {2}}}));
  auto result = lu::runLu(engine, build);
  EXPECT_LT(lu::verifyLu(cfg, result, build.workersGroup), 1e-9);
  // Eventually the column moved away.
  EXPECT_TRUE(build.directory->columnsOf(2).empty());
  EXPECT_GT(controller.migratedBytes(), 0u);
}

TEST(GrowTest, ShrinkThenGrowRoundTripsWorkerCount) {
  // "Kill 4 after it. 1, grow 4 after it. 4": the allocation timeline must
  // dip to 4 nodes and return to 8, with migration traffic in both
  // directions.
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 8;
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  LuMalleabilityController controller(
      engine, build, AllocationPlan::killAfter({{1, {4, 5, 6, 7}}}).thenGrow(4, {4, 5, 6, 7}));
  auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  EXPECT_TRUE(controller.removed().empty()); // every removal was reverted
  EXPECT_GT(controller.shrinkMigratedBytes(), 0u);
  EXPECT_GT(controller.growMigratedBytes(), 0u);
  ASSERT_TRUE(result.trace);
  const auto& allocs = result.trace->allocations();
  std::int32_t minAlloc = 8;
  for (const auto& a : allocs) minAlloc = std::min(minAlloc, a.allocatedNodes);
  EXPECT_EQ(allocs.front().allocatedNodes, 8);
  EXPECT_EQ(minAlloc, 4);
  EXPECT_EQ(allocs.back().allocatedNodes, 8);
}

TEST(GrowTest, GrowKeepsFactorizationCorrect) {
  // Direct execution: the factored matrix must still verify after columns
  // migrate away and back.
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 8;
  core::SimEngine engine(directConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440().scaled(100.0), true);
  LuMalleabilityController controller(
      engine, build, AllocationPlan::killAfter({{2, {6, 7}}}).thenGrow(5, {6, 7}));
  auto result = lu::runLu(engine, build);
  EXPECT_LT(lu::verifyLu(cfg, result, build.workersGroup), 1e-9);
  EXPECT_TRUE(controller.removed().empty());
  EXPECT_GT(controller.growMigratedBytes(), 0u);
}

TEST(GrowTest, RegrownWorkerReceivesFutureColumns) {
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 4;
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  LuMalleabilityController controller(
      engine, build, AllocationPlan::killAfter({{1, {3}}}).thenGrow(3, {3}));
  auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  // After the grow-side rebalance thread 3 owns unfactored columns again.
  EXPECT_FALSE(build.directory->columnsOf(3).empty());
}

TEST(GrowTest, GrowingANeverRemovedThreadThrows) {
  const auto cfg = baseConfig();
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  AllocationPlan plan;
  plan.thenGrow(1, {2});
  LuMalleabilityController controller(engine, build, std::move(plan));
  EXPECT_THROW(lu::runLu(engine, build), Error);
}

TEST(MalleableTest, EfficiencyImprovesAfterRemoval) {
  // Paper Fig. 11: deallocating idle capacity raises per-iteration
  // efficiency for subsequent iterations.
  lu::LuConfig cfg = baseConfig();
  cfg.workers = 8;
  const auto model = lu::KernelCostModel::ultraSparc440();

  auto lastIterationEfficiency = [&](AllocationPlan plan) {
    core::SimEngine engine(pdexecConfig());
    lu::LuBuild build = lu::buildLu(cfg, model, false);
    LuMalleabilityController controller(engine, build, std::move(plan));
    auto result = lu::runLu(engine, build);
    const auto points = trace::dynamicEfficiency(*result.trace, "iteration", simEpoch(),
                                                 simEpoch() + result.makespan);
    // Average the second half of the run.
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = points.size() / 2; i < points.size(); ++i, ++n)
      sum += points[i].efficiency;
    return sum / static_cast<double>(n);
  };

  const double staticEff = lastIterationEfficiency(AllocationPlan{});
  const double killedEff = lastIterationEfficiency(AllocationPlan::killAfter({{1, {4, 5, 6, 7}}}));
  EXPECT_GT(killedEff, staticEff);
}

} // namespace
} // namespace dps::mall
