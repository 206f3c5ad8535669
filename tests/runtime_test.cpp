// RuntimeEngine: the same applications on real OS threads, and
// cross-validation against the simulator (paper §3: real and simulated
// applications run identically).
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "lu/app.hpp"
#include "net/profile.hpp"
#include "runtime/engine.hpp"
#include "test_graphs.hpp"

namespace dps::rt {
namespace {

using test::buildBrokenFanout;
using test::buildFanout;
using test::FanoutSpec;
using test::spreadDeployment;
using test::Sum;

flow::Program program(const test::FanoutBuild& b, flow::Deployment d) {
  flow::Program p;
  p.graph = b.graph.get();
  p.deployment = std::move(d);
  p.inputs = b.inputs;
  return p;
}

TEST(RuntimeTest, FanoutProducesCorrectSum) {
  FanoutSpec spec;
  spec.jobs = 12;
  spec.workers = 3;
  auto b = buildFanout(spec);
  RuntimeEngine engine;
  auto result = engine.run(program(b, spreadDeployment(b)));
  ASSERT_EQ(result.outputs.size(), 1u);
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 12);
  EXPECT_EQ(sum.total, 2 * (11 * 12 / 2));
  EXPECT_EQ(result.counters.messages, 12u + 12u + 1u);
}

TEST(RuntimeTest, FlowControlBoundsInFlightObjects) {
  FanoutSpec spec;
  spec.jobs = 20;
  spec.workers = 2;
  spec.fcLimit = 2;
  auto b = buildFanout(spec);
  RuntimeEngine engine;
  auto result = engine.run(program(b, spreadDeployment(b)));
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 20);
}

TEST(RuntimeTest, DeadlockDetected) {
  FanoutSpec spec;
  spec.jobs = 2;
  spec.workers = 2;
  auto b = buildBrokenFanout(spec);
  RuntimeEngine engine;
  // The graph validates, so the run reaches the quiescence check, which
  // must name the merge left waiting for the dropped item.
  try {
    engine.run(program(b, spreadDeployment(b)));
    FAIL() << "expected a deadlock error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("deadlock", 0), 0u) << msg;
    EXPECT_NE(msg.find("'merge'"), std::string::npos) << msg;
  }
}

TEST(RuntimeTest, MarkersReachHook) {
  FanoutSpec spec;
  spec.jobs = 5;
  spec.workers = 2;
  spec.leafMarker = true;
  auto b = buildFanout(spec);
  std::atomic<int> markers{0};
  RuntimeConfig cfg;
  cfg.markerHook = [&](const std::string& name, std::int64_t) {
    EXPECT_EQ(name, "job");
    ++markers;
  };
  RuntimeEngine engine(cfg);
  engine.run(program(b, spreadDeployment(b)));
  EXPECT_EQ(markers.load(), 5);
}

TEST(RuntimeTest, ManyJobsStress) {
  FanoutSpec spec;
  spec.jobs = 500;
  spec.workers = 4;
  spec.payloadBytes = 64;
  auto b = buildFanout(spec);
  RuntimeEngine engine;
  auto result = engine.run(program(b, spreadDeployment(b)));
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 500);
}

TEST(RuntimeCrossValidationTest, LuFactorizationMatchesSimulatorExactly) {
  // The same LU program on the runtime engine and the DirectExec simulator
  // must produce the identical factorization (bit-for-bit): both execute
  // the same kernels on the same data, only the scheduling differs.
  lu::LuConfig cfg;
  cfg.n = 48;
  cfg.r = 12;
  cfg.workers = 2;
  cfg.seed = 99;
  const auto model = lu::KernelCostModel::ultraSparc440().scaled(100.0);

  // Runtime engine run.
  lu::LuBuild rb = lu::buildLu(cfg, model, true);
  RuntimeEngine rtEngine;
  flow::Program rp;
  rp.graph = rb.graph.get();
  rp.deployment = flow::Deployment::roundRobin(*rb.graph, {cfg.workers}, cfg.workers);
  rp.inputs = rb.inputs;
  auto rtResult = rtEngine.run(rp);
  lu::checkOutputs(cfg, rtResult);
  EXPECT_LT(lu::verifyLu(cfg, rtResult, rb.workersGroup), 1e-10);

  // Simulator run.
  core::SimConfig sc;
  sc.profile = net::commodityGigabit();
  sc.mode = core::ExecutionMode::DirectExec;
  core::SimEngine simEngine(sc);
  lu::LuBuild sb = lu::buildLu(cfg, model, true);
  auto simResult = lu::runLu(simEngine, sb);

  // Compare the factored columns element-wise across engines.
  auto gather = [&](const core::RunResult& res, flow::GroupId g) {
    std::map<std::int32_t, lin::Matrix> cols;
    for (const auto& st : res.threadStates.at(g)) {
      const auto* ls = dynamic_cast<const lu::LuThreadState*>(st.get());
      for (const auto& [c, m] : ls->columns) cols[c] = m;
    }
    return cols;
  };
  // Both engines drive the same dispatch code, so they count the same
  // steps and messages.  networkBytes is not compared: each stream
  // emission goes round-robin to a worker, and which request a given
  // emission carries depends on the order results reach the stream.  On
  // real threads that order varies, so whether a multiplication result
  // must cross nodes to its column's owner varies with it (here 34171 or
  // 36645 bytes from run to run).
  EXPECT_EQ(rtResult.counters.steps, simResult.counters.steps);
  EXPECT_EQ(rtResult.counters.messages, simResult.counters.messages);

  const auto rtCols = gather(rtResult, rb.workersGroup);
  const auto simCols = gather(simResult, sb.workersGroup);
  ASSERT_EQ(rtCols.size(), simCols.size());
  for (const auto& [c, m] : rtCols) {
    ASSERT_TRUE(simCols.count(c));
    EXPECT_EQ(m, simCols.at(c)) << "column " << c;
  }
}

TEST(RuntimeCrossValidationTest, PipelinedLuAlsoMatches) {
  lu::LuConfig cfg;
  cfg.n = 48;
  cfg.r = 8;
  cfg.workers = 3;
  cfg.pipelined = true;
  cfg.flowControl = true;
  cfg.fcLimit = 2;
  cfg.seed = 123;
  const auto model = lu::KernelCostModel::ultraSparc440().scaled(100.0);

  lu::LuBuild rb = lu::buildLu(cfg, model, true);
  RuntimeEngine rtEngine;
  flow::Program rp;
  rp.graph = rb.graph.get();
  rp.deployment = flow::Deployment::roundRobin(*rb.graph, {cfg.workers}, cfg.workers);
  rp.inputs = rb.inputs;
  auto rtResult = rtEngine.run(rp);
  EXPECT_LT(lu::verifyLu(cfg, rtResult, rb.workersGroup), 1e-10);

  core::SimConfig sc;
  sc.profile = net::commodityGigabit();
  sc.mode = core::ExecutionMode::DirectExec;
  core::SimEngine simEngine(sc);
  lu::LuBuild sb = lu::buildLu(cfg, model, true);
  auto simResult = lu::runLu(simEngine, sb);
  EXPECT_EQ(rtResult.counters.steps, simResult.counters.steps);
  EXPECT_EQ(rtResult.counters.messages, simResult.counters.messages);
  // networkBytes varies run to run on real threads; see the test above.
}

} // namespace
} // namespace dps::rt
