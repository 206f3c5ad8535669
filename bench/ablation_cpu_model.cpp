// Ablation A2 — the CPU model of paper §4: communication consumes
// processing power (receive > send) and the remainder is shared evenly
// among running operations.
//
// Method: predict fine-granularity configurations with the full model,
// without communication CPU overhead, and without CPU sharing; compare
// against the high-fidelity reference (which always models both).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace dps;

int main(int argc, char** argv) {
  const auto opts = bench::BenchArgs::parse(argc, argv).opts;

  const std::vector<std::int32_t> rs{81, 108};
  exp::Campaign campaign(bench::paperSettings());
  std::vector<lu::LuConfig> cfgs;
  std::vector<std::size_t> obsIdx;
  for (std::int32_t r : rs) {
    auto cfg = bench::paperLu(r, 8);
    cfg.pipelined = true;
    cfg.flowControl = true;
    obsIdx.push_back(campaign.add(cfg, {}, /*fidelitySeed=*/22));
    cfgs.push_back(cfg);
  }
  // One shared caller-participates pool serves the campaign and the
  // ablated legs.
  ThreadPool pool(bench::poolWorkers(opts));
  const auto result = campaign.run(pool);

  // Ablated predictor legs (two per configuration), fanned out as one batch.
  auto noCommCfg = campaign.runner().predictorConfig();
  noCommCfg.commCpuOverhead = false;
  auto noShareCfg = campaign.runner().predictorConfig();
  noShareCfg.cpuSharing = false;
  std::vector<double> tNoComm(cfgs.size()), tNoShare(cfgs.size());
  parallelFor(pool, cfgs.size() * 2, [&](std::size_t task) {
    const std::size_t i = task / 2;
    const auto& cfg = cfgs[i];
    if (task % 2 == 0)
      tNoComm[i] = toSeconds(campaign.runner().runOne(cfg, {}, noCommCfg).makespan);
    else
      tNoShare[i] = toSeconds(campaign.runner().runOne(cfg, {}, noShareCfg).makespan);
  });

  std::printf("Ablation: CPU sharing / communication CPU overhead\n\n");
  Table t;
  t.header({"config", "reference [s]", "full [s]", "no comm-CPU [s]", "no sharing [s]",
            "err full", "err no-comm", "err no-share"});

  double worstFull = 0, worstNoComm = 0, worstNoShare = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& obs = result.observations[obsIdx[i]];
    const double errFull = obs.error();
    const double errNoComm = (tNoComm[i] - obs.measuredSec) / obs.measuredSec;
    const double errNoShare = (tNoShare[i] - obs.measuredSec) / obs.measuredSec;
    worstFull = std::max(worstFull, std::abs(errFull));
    worstNoComm = std::max(worstNoComm, std::abs(errNoComm));
    worstNoShare = std::max(worstNoShare, std::abs(errNoShare));
    t.row({"P+FC r=" + std::to_string(rs[i]), Table::num(obs.measuredSec, 1),
           Table::num(obs.predictedSec, 1), Table::num(tNoComm[i], 1),
           Table::num(tNoShare[i], 1), Table::pct(errFull, 1), Table::pct(errNoComm, 1),
           Table::pct(errNoShare, 1)});
  }
  t.print(std::cout);
  std::printf("\n");

  bench::check(worstFull <= worstNoComm,
               "dropping comm CPU overhead does not improve accuracy");
  bench::check(worstFull <= worstNoShare,
               "dropping CPU sharing does not improve accuracy");
  bench::check(worstFull < 0.08, "full model stays within 8%");
  return bench::finish("ablation_cpu_model", opts, &result);
}
