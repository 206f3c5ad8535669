// Golden digests of whole simulator runs.
//
// Each test runs one PDEXEC program with trace recording on and folds the
// makespan, the run counters and every trace record (steps, transfers,
// markers, allocation changes, in recording order) into one FNV-1a digest.
// A refactor of the engine or of the shared DPS dispatch that reorders a
// single simulated event, or shifts one by a tick, changes the digest.
// The values were first computed before the dispatch code was shared
// between the simulator and the runtime engine, and re-pinned once when the
// never-incremented kernelsSkipped counter left RunCounters (its constant
// zero was folded in; no simulated event moved).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/engine.hpp"
#include "jacobi/app.hpp"
#include "lu/app.hpp"
#include "malleable/controller.hpp"
#include "net/profile.hpp"
#include "support/fingerprint.hpp"

namespace dps {
namespace {

core::SimConfig pdexecConfig() {
  core::SimConfig c;
  c.profile = net::ultraSparc440();
  c.mode = core::ExecutionMode::Pdexec;
  c.allocatePayloads = false;
  c.recordTrace = true;
  return c;
}

lu::LuConfig luConfig() {
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.r = 8;
  cfg.workers = 4;
  cfg.seed = 5;
  return cfg;
}

std::uint64_t digest(const core::RunResult& r) {
  Fingerprint fp;
  fp.add(r.makespan)
      .add(r.counters.steps)
      .add(r.counters.messages)
      .add(r.counters.networkBytes)
      .add(static_cast<std::uint64_t>(r.outputs.size()));
  EXPECT_TRUE(r.trace != nullptr);
  if (!r.trace) return fp.value();
  for (const auto& s : r.trace->steps())
    fp.add(s.node)
        .add(s.thread.group)
        .add(s.thread.index)
        .add(s.op)
        .add(static_cast<std::int32_t>(s.kind))
        .add(s.start.time_since_epoch())
        .add(s.end.time_since_epoch())
        .add(s.work);
  for (const auto& t : r.trace->transfers())
    fp.add(t.src)
        .add(t.dst)
        .add(static_cast<std::uint64_t>(t.bytes))
        .add(t.start.time_since_epoch())
        .add(t.end.time_since_epoch());
  for (const auto& m : r.trace->markers())
    fp.add(std::string_view(m.name)).add(m.value).add(m.time.time_since_epoch());
  for (const auto& a : r.trace->allocations())
    fp.add(a.time.time_since_epoch()).add(a.allocatedNodes);
  return fp.value();
}

TEST(EngineGoldenTest, PlainLu) {
  const auto cfg = luConfig();
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  const auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  EXPECT_EQ(digest(result), 8236446781055544882ull);
}

TEST(EngineGoldenTest, PipelinedLuWithFlowControl) {
  auto cfg = luConfig();
  cfg.workers = 3;
  cfg.pipelined = true;
  cfg.flowControl = true;
  cfg.fcLimit = 2;
  // The fidelity layer draws from one generator per step and per message,
  // so the digest also pins the order in which steps and sends happen.
  auto sc = pdexecConfig();
  sc.fidelity.enabled = true;
  core::SimEngine engine(sc);
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  const auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  EXPECT_EQ(digest(result), 14467788157569001499ull);
}

TEST(EngineGoldenTest, Jacobi) {
  jacobi::JacobiConfig cfg;
  cfg.rows = 64;
  cfg.cols = 48;
  cfg.sweeps = 4;
  cfg.workers = 4;
  core::SimEngine engine(pdexecConfig());
  const auto build = jacobi::buildJacobi(cfg, jacobi::JacobiCostModel{}, false);
  const auto result = jacobi::runJacobi(engine, build);
  EXPECT_EQ(digest(result), 5199297663265664353ull);
}

TEST(EngineGoldenTest, MalleableLuRemovesAndReAdds) {
  const auto cfg = luConfig();
  core::SimEngine engine(pdexecConfig());
  lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
  mall::LuMalleabilityController controller(
      engine, build, mall::AllocationPlan::killAfter({{2, {3}}}).thenGrow(5, {3}));
  const auto result = lu::runLu(engine, build);
  lu::checkOutputs(cfg, result);
  EXPECT_TRUE(controller.removed().empty());
  EXPECT_GT(controller.growMigratedBytes(), 0u);
  EXPECT_EQ(digest(result), 12097569696562364035ull);
}

} // namespace
} // namespace dps
