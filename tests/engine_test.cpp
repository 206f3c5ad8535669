// SimEngine semantics: analytic makespans, flow control, deadlock
// detection, determinism, markers and dynamic allocation.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "lu/app.hpp"
#include "net/profile.hpp"
#include "test_graphs.hpp"

namespace dps::core {
namespace {

using test::buildBrokenFanout;
using test::buildFanout;
using test::FanoutSpec;
using test::Item;
using test::spreadDeployment;
using test::Sum;

/// Analytic profile: 1 ms latency, 1 MB/s, zero overheads.
net::PlatformProfile analyticProfile() {
  net::PlatformProfile p;
  p.name = "analytic";
  p.latency = milliseconds(1);
  p.bandwidthBytesPerSec = 1e6;
  p.perStepOverhead = SimDuration::zero();
  p.localDelivery = SimDuration::zero();
  p.cpuPerIncomingTransfer = 0.0;
  p.cpuPerOutgoingTransfer = 0.0;
  return p;
}

SimConfig analyticConfig() {
  SimConfig c;
  c.profile = analyticProfile();
  c.mode = ExecutionMode::Pdexec;
  return c;
}

/// Item payload size such that its envelope totals exactly 1000 bytes
/// (value 8 + vector length 8 + padding + 64 envelope).
constexpr std::size_t kPayloadFor1000 = 1000 - 8 - 8 - 64;

FanoutSpec analyticSpec() {
  FanoutSpec s;
  s.jobs = 1;
  s.workers = 1;
  s.splitCost = milliseconds(3);
  s.computeCost = milliseconds(5);
  s.mergeCost = milliseconds(7);
  s.payloadBytes = kPayloadFor1000;
  return s;
}

flow::Program program(const test::FanoutBuild& b, flow::Deployment d) {
  flow::Program p;
  p.graph = b.graph.get();
  p.deployment = std::move(d);
  p.inputs = b.inputs;
  return p;
}

TEST(EngineTest, SingleJobMakespanIsExact) {
  auto b = buildFanout(analyticSpec());
  SimEngine engine(analyticConfig());
  auto result = engine.run(program(b, spreadDeployment(b)));
  // split 3ms + transfer (1+1)ms + compute 5ms + transfer 2ms + merge 7ms.
  EXPECT_EQ(result.makespan, milliseconds(19));
  ASSERT_EQ(result.outputs.size(), 1u);
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.total, 0);
  EXPECT_EQ(sum.count, 1);
}

TEST(EngineTest, TwoJobsTwoWorkersPipelineExact) {
  auto spec = analyticSpec();
  spec.jobs = 2;
  spec.workers = 2;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  auto result = engine.run(program(b, spreadDeployment(b)));
  // Worked out by hand: second emission at 6ms, second absorb ends at 26ms
  // (see DESIGN notes in this test's derivation).
  EXPECT_EQ(result.makespan, milliseconds(26));
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.total, 2); // (0 + 1) doubled
  EXPECT_EQ(sum.count, 2);
  EXPECT_EQ(result.counters.steps, 8u); // 1 input + 2 emits + 2 leafs + 2 absorbs + 1 finalize
  EXPECT_EQ(result.counters.messages, 5u);
}

TEST(EngineTest, FlowControlSerializesEmissions) {
  auto spec = analyticSpec();
  spec.jobs = 2;
  spec.workers = 2;
  spec.fcLimit = 1;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  auto result = engine.run(program(b, spreadDeployment(b)));
  // Token for job 1 only frees when the merge absorbs job 0's result:
  // 19ms + emit 3 + transfer 2 + compute 5 + transfer 2 + absorb 7 = 38ms.
  EXPECT_EQ(result.makespan, milliseconds(38));
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 2);
}

TEST(EngineTest, FlowControlWideEnoughBehavesLikeNone) {
  auto spec = analyticSpec();
  spec.jobs = 3;
  spec.workers = 3;
  auto noFc = buildFanout(spec);
  spec.fcLimit = 16;
  auto wideFc = buildFanout(spec);
  SimEngine e1(analyticConfig()), e2(analyticConfig());
  auto r1 = e1.run(program(noFc, spreadDeployment(noFc)));
  auto r2 = e2.run(program(wideFc, spreadDeployment(wideFc)));
  EXPECT_EQ(r1.makespan, r2.makespan);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  auto spec = analyticSpec();
  spec.jobs = 16;
  spec.workers = 3;
  auto b1 = buildFanout(spec);
  auto b2 = buildFanout(spec);
  SimEngine e1(analyticConfig()), e2(analyticConfig());
  auto r1 = e1.run(program(b1, spreadDeployment(b1)));
  auto r2 = e2.run(program(b2, spreadDeployment(b2)));
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.counters.steps, r2.counters.steps);
  EXPECT_EQ(r1.counters.messages, r2.counters.messages);
  EXPECT_EQ(r1.counters.networkBytes, r2.counters.networkBytes);
}

TEST(EngineTest, FidelityNoiseChangesWithSeedOnly) {
  auto spec = analyticSpec();
  spec.jobs = 8;
  spec.workers = 2;
  auto run = [&](std::uint64_t seed) {
    auto b = buildFanout(spec);
    SimConfig c = analyticConfig();
    c.fidelity.enabled = true;
    c.fidelity.seed = seed;
    SimEngine e(c);
    return e.run(program(b, spreadDeployment(b))).makespan;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(EngineTest, DeadlockDetectedAtQuiescence) {
  auto spec = analyticSpec();
  spec.jobs = 2;
  spec.workers = 2;
  auto b = buildBrokenFanout(spec);
  SimEngine engine(analyticConfig());
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

TEST(EngineTest, MarkersReachHookInVirtualTimeOrder) {
  auto spec = analyticSpec();
  spec.jobs = 3;
  spec.workers = 1;
  spec.leafMarker = true;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  std::vector<std::pair<std::int64_t, SimTime>> seen;
  engine.setMarkerHook([&](const std::string& name, std::int64_t v, SimTime t) {
    EXPECT_EQ(name, "job");
    seen.emplace_back(v, t);
  });
  auto result = engine.run(program(b, spreadDeployment(b)));
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t i = 1; i < seen.size(); ++i) EXPECT_GE(seen[i].second, seen[i - 1].second);
  // Markers also land in the trace.
  ASSERT_TRUE(result.trace);
  EXPECT_EQ(result.trace->markersNamed("job").size(), 3u);
}

TEST(EngineTest, DeactivationSteersRoundRobinRouting) {
  auto spec = analyticSpec();
  spec.jobs = 6;
  spec.workers = 2;
  spec.fcLimit = 1; // serialize emissions so the change lands between them
  spec.leafMarker = true;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  bool removed = false;
  const auto workersGroup = b.workers;
  engine.setMarkerHook([&](const std::string&, std::int64_t, SimTime) {
    if (!removed) {
      engine.deactivateThread(workersGroup, 1);
      removed = true;
    }
  });
  auto result = engine.run(program(b, spreadDeployment(b)));
  ASSERT_TRUE(result.trace);
  // After the first marker, everything routes to worker 0 (node 1).  At
  // most one job can have landed on worker 1 (node 2) before that.
  int node2Steps = 0;
  for (const auto& s : result.trace->steps())
    if (s.node == 2) ++node2Steps;
  EXPECT_LE(node2Steps, 1);
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 6); // nothing lost
}

TEST(EngineTest, AllocationRecordsTrackNodeCount) {
  auto spec = analyticSpec();
  spec.jobs = 4;
  spec.workers = 2;
  spec.fcLimit = 1;
  spec.leafMarker = true;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  bool removed = false;
  const auto workersGroup = b.workers;
  engine.setMarkerHook([&](const std::string&, std::int64_t, SimTime) {
    if (!removed) {
      engine.deactivateThread(workersGroup, 1);
      removed = true;
      EXPECT_EQ(engine.allocatedNodes(), 2); // master node + worker 0
    }
  });
  auto result = engine.run(program(b, spreadDeployment(b)));
  ASSERT_TRUE(result.trace);
  const auto& allocs = result.trace->allocations();
  ASSERT_GE(allocs.size(), 2u);
  EXPECT_EQ(allocs.front().allocatedNodes, 3);
  EXPECT_EQ(allocs.back().allocatedNodes, 2);
}

TEST(EngineTest, TraceRecordsStepsAndTransfers) {
  auto spec = analyticSpec();
  spec.jobs = 2;
  spec.workers = 2;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  auto result = engine.run(program(b, spreadDeployment(b)));
  ASSERT_TRUE(result.trace);
  EXPECT_EQ(result.trace->steps().size(), result.counters.steps);
  EXPECT_EQ(result.trace->transfers().size(), 4u); // 2 out + 2 back
  EXPECT_EQ(result.trace->totalBytes(), result.counters.networkBytes);
  EXPECT_GT(result.trace->nodeBusyFraction(0, simEpoch(), simEpoch() + result.makespan), 0.0);
}

TEST(EngineTest, DirectExecutionRunsKernelsAndMeasures) {
  auto spec = analyticSpec();
  spec.jobs = 4;
  spec.workers = 2;
  // Charges still apply in DirectExec; wall measurement adds real time.
  auto b = buildFanout(spec);
  SimConfig c = analyticConfig();
  c.mode = ExecutionMode::DirectExec;
  SimEngine engine(c);
  auto result = engine.run(program(b, spreadDeployment(b)));
  const auto& sum = dynamic_cast<const Sum&>(*result.outputs[0]);
  EXPECT_EQ(sum.count, 4);
  // Measured durations push the makespan above the pure-model value.
  EXPECT_GT(result.makespan, SimDuration::zero());
}

TEST(EngineTest, RunIsRepeatableOnFreshEngines) {
  // Guards against state leaking between engine instances.
  auto spec = analyticSpec();
  spec.jobs = 5;
  spec.workers = 2;
  SimDuration first{};
  for (int i = 0; i < 3; ++i) {
    auto b = buildFanout(spec);
    SimEngine engine(analyticConfig());
    auto r = engine.run(program(b, spreadDeployment(b)));
    if (i == 0) first = r.makespan;
    else EXPECT_EQ(r.makespan, first);
  }
}

TEST(EngineTest, PerStepOverheadShiftsMakespan) {
  auto spec = analyticSpec();
  auto b1 = buildFanout(spec);
  auto b2 = buildFanout(spec);
  SimConfig withOverhead = analyticConfig();
  withOverhead.profile.perStepOverhead = microseconds(100);
  SimEngine e1(analyticConfig()), e2(withOverhead);
  auto r1 = e1.run(program(b1, spreadDeployment(b1)));
  auto r2 = e2.run(program(b2, spreadDeployment(b2)));
  // 5 steps on the critical path (input, emit, compute, absorb, finalize).
  EXPECT_EQ(r2.makespan - r1.makespan, microseconds(500));
}

TEST(EngineTest, InjectTransferReachesCallbackAndTrace) {
  auto spec = analyticSpec();
  spec.leafMarker = true;
  auto b = buildFanout(spec);
  SimEngine engine(analyticConfig());
  bool delivered = false;
  engine.setMarkerHook([&](const std::string&, std::int64_t, SimTime) {
    engine.injectTransfer(1, 0, 5000, [&] { delivered = true; });
  });
  auto result = engine.run(program(b, spreadDeployment(b)));
  EXPECT_TRUE(delivered);
  ASSERT_TRUE(result.trace);
  bool found = false;
  for (const auto& t : result.trace->transfers())
    if (t.bytes == 5000) found = true;
  EXPECT_TRUE(found);
}

// The network and CPU model move pending completions in place when a share
// changes; a run leaves no cancelled event behind in the scheduler.
TEST(EngineTest, LuRunReschedulesInsteadOfCancelling) {
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.r = 8;
  cfg.workers = 4;
  cfg.seed = 5;
  SimConfig c;
  c.profile = net::ultraSparc440();
  c.mode = ExecutionMode::Pdexec;
  c.allocatePayloads = false;
  SimEngine engine(c);
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  const RunResult r = lu::runLu(engine, build);
  lu::checkOutputs(cfg, r);
  const des::SchedulerStats& ev = r.scheduler;
  EXPECT_EQ(ev.cancelled, 0u);
  EXPECT_GT(ev.rescheduled, 0u);
  EXPECT_EQ(ev.fired, ev.scheduled); // nothing cancelled, nothing left pending
  EXPECT_GE(ev.fired, r.counters.steps);
  EXPECT_GT(ev.queueHighWater, 0u);
}

} // namespace
} // namespace dps::core
