// Dynamic node allocation in action (paper §6/§8): run the LU application
// under a removal plan, watch per-iteration dynamic efficiency, allocation
// timeline and migration traffic.
//
//   $ ./examples/malleable_lu --plan=4@1            # kill 4 after iter 1
//   $ ./examples/malleable_lu --plan=2@2+2@3        # staged removal
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/engine.hpp"
#include "lu/app.hpp"
#include "malleable/controller.hpp"
#include "net/profile.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/efficiency.hpp"
#include "trace/gantt.hpp"

using namespace dps;

namespace {

/// Parses "4@1" / "2@2+2@3" into a removal plan over `workers` threads
/// (threads are removed from the highest index down).
mall::AllocationPlan parsePlan(const std::string& text, std::int32_t workers) {
  mall::AllocationPlan plan;
  if (text.empty() || text == "static") return plan;
  const ConfigError syntax("--plan expects COUNT@ITERATION[+COUNT@ITERATION...], got '" + text +
                           "'");
  std::int32_t nextVictim = workers - 1;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, '+')) {
    const auto at = part.find('@');
    if (at == std::string::npos) throw syntax;
    const auto count = parseInteger(part.substr(0, at));
    const auto iter = parseInteger(part.substr(at + 1));
    if (!count || !iter || *count < 1) throw syntax;
    if (*count > nextVictim) throw ConfigError("--plan removes every worker");
    mall::RemovalStep step;
    step.afterIteration = *iter;
    for (std::int64_t i = 0; i < *count; ++i) step.threads.push_back(nextVictim--);
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

} // namespace

int run(Cli& cli) {
  lu::LuConfig cfg;
  cfg.n = static_cast<std::int32_t>(cli.integer("n", 2592, "matrix dimension"));
  cfg.r = static_cast<std::int32_t>(cli.integer("r", 324, "block size"));
  cfg.workers = static_cast<std::int32_t>(cli.integer("workers", 8, "initial nodes"));
  const std::string planText = cli.str("plan", "4@1", "removal plan, e.g. 4@1 or 2@2+2@3");
  cfg.validate();
  const auto plan = parsePlan(planText, cfg.workers);
  cli.finish();

  const auto model = lu::KernelCostModel::ultraSparc440();
  core::SimConfig sc;
  sc.profile = net::ultraSparc440();
  sc.mode = core::ExecutionMode::Pdexec;
  sc.allocatePayloads = false;

  auto runWith = [&](const mall::AllocationPlan& plan) {
    core::SimEngine engine(sc);
    lu::LuBuild build = lu::buildLu(cfg, model, false);
    mall::LuMalleabilityController controller(engine, build, plan);
    auto result = lu::runLu(engine, build);
    return std::pair{std::move(result), controller.migratedBytes()};
  };

  auto [staticRun, staticMig] = runWith(mall::AllocationPlan{});
  auto [malleableRun, migBytes] = runWith(plan);
  (void)staticMig;

  std::printf("LU %dx%d r=%d on %d nodes (%s graph) — plan: %s\n\n", cfg.n, cfg.n, cfg.r,
              cfg.workers, cfg.variantName().c_str(), plan.describe().c_str());

  // Per-iteration dynamic efficiency, static vs malleable.
  const auto effStatic = trace::dynamicEfficiency(*staticRun.trace, "iteration", simEpoch(),
                                                  simEpoch() + staticRun.makespan);
  const auto effMall = trace::dynamicEfficiency(*malleableRun.trace, "iteration", simEpoch(),
                                                simEpoch() + malleableRun.makespan);
  Table t("Dynamic efficiency per iteration");
  t.header({"iteration", "duration (static)", "eff (static)", "duration (plan)", "eff (plan)"});
  for (std::size_t i = 0; i < std::max(effStatic.size(), effMall.size()); ++i) {
    auto dur = [&](const std::vector<trace::EfficiencyPoint>& v) {
      return i < v.size() ? formatDuration(v[i].end - v[i].start) : std::string("-");
    };
    auto eff = [&](const std::vector<trace::EfficiencyPoint>& v) {
      return i < v.size() ? Table::pct(v[i].efficiency, 1) : std::string("-");
    };
    t.row({std::to_string(i + 1), dur(effStatic), eff(effStatic), dur(effMall), eff(effMall)});
  }
  t.print(std::cout);

  // Allocation timeline + headline numbers.
  std::printf("\nallocation timeline (plan run):\n");
  for (const auto& a : malleableRun.trace->allocations())
    std::printf("  t=%-12s %d nodes allocated\n",
                formatDuration(a.time.time_since_epoch()).c_str(), a.allocatedNodes);

  const double tStatic = toSeconds(staticRun.makespan);
  const double tMall = toSeconds(malleableRun.makespan);
  const double nodeSecondsStatic =
      staticRun.trace->nodeSecondsIn(simEpoch(), simEpoch() + staticRun.makespan);
  const double nodeSecondsMall =
      malleableRun.trace->nodeSecondsIn(simEpoch(), simEpoch() + malleableRun.makespan);

  std::printf("\nstatic    : %7.1fs on a constant allocation  (%.0f node-seconds)\n", tStatic,
              nodeSecondsStatic);
  std::printf("malleable : %7.1fs, %.1f MB of state migrated   (%.0f node-seconds)\n", tMall,
              static_cast<double>(migBytes) / 1048576.0, nodeSecondsMall);
  std::printf("=> %.1f%% slower, but %.1f%% fewer node-seconds for the cluster to resell\n",
              (tMall / tStatic - 1.0) * 100.0, (1.0 - nodeSecondsMall / nodeSecondsStatic) * 100.0);

  std::printf("\nper-node activity under the plan:\n%s",
              trace::renderGantt(*malleableRun.trace, simEpoch(),
                                 simEpoch() + malleableRun.makespan, 72)
                  .c_str());
  return 0;
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
