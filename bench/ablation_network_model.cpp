// Ablation A1 — what the equal-share network contention model buys
// (paper §1: unlike simulators that "assume that network contention is
// inexistent", this simulator models it).
//
// Method: predict the comm-heavy fine-granularity LU configurations with
// the full model and with contention disabled, and compare both against
// the high-fidelity reference.  The contention-free model must be
// noticeably more optimistic on comm-heavy runs.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  const std::vector<std::int32_t> rs{81, 108, 162};
  exp::Campaign campaign(bench::paperSettings());
  std::vector<lu::LuConfig> cfgs;
  std::vector<std::size_t> obsIdx;
  for (std::int32_t r : rs) {
    auto cfg = bench::paperLu(r, 8);
    cfg.pipelined = true; // pipelined runs overlap transfers the most
    obsIdx.push_back(campaign.add(cfg, {}, /*fidelitySeed=*/21));
    cfgs.push_back(cfg);
  }
  // One shared caller-participates pool serves the campaign and the
  // ablated legs.
  ThreadPool pool(bench::poolWorkers(opts));
  const auto result = campaign.run(pool);

  // Ablated predictor legs, fanned out the same way.
  auto ablatedCfg = campaign.runner().predictorConfig();
  ablatedCfg.networkContention = false;
  std::vector<double> tAblated(cfgs.size());
  parallelFor(pool, cfgs.size(), [&](std::size_t i) {
    tAblated[i] = toSeconds(campaign.runner().runOne(cfgs[i], {}, ablatedCfg).makespan);
  });

  std::printf("Ablation: network contention model on/off\n\n");
  Table t;
  t.header({"config", "reference [s]", "full model [s]", "no contention [s]",
            "err full", "err no-contention"});

  double worstFull = 0, worstAblated = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& obs = result.observations[obsIdx[i]];
    const double errFull = obs.error();
    const double errAblated = (tAblated[i] - obs.measuredSec) / obs.measuredSec;
    worstFull = std::max(worstFull, std::abs(errFull));
    worstAblated = std::max(worstAblated, std::abs(errAblated));
    t.row({"P r=" + std::to_string(rs[i]), Table::num(obs.measuredSec, 1),
           Table::num(obs.predictedSec, 1), Table::num(tAblated[i], 1),
           Table::pct(errFull, 1), Table::pct(errAblated, 1)});
  }
  t.print(std::cout);
  std::printf("\n");

  check(worstAblated > worstFull,
        "disabling contention degrades prediction accuracy on comm-heavy runs");
  check(worstFull < 0.08, "full model stays within 8% on comm-heavy runs");
  return bench::finish("ablation_network_model", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
