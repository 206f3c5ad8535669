// Figure 8 — impact of the flow-graph modifications and decomposition
// granularity on 4 nodes; reference = basic graph, r=648 (paper §8).
//
// Paper shape: PM / P / FC tweaks bring only a few percent, "negligible
// compared with the gains obtained by simply changing the decomposition
// granularity"; the best granularity beats the reference severalfold, and
// predictions stay within a few percent of measurements.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "support/stats.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  exp::Campaign campaign(bench::paperSettings());
  const std::size_t iRef = campaign.add(bench::paperLu(648, 4), {}, /*fidelitySeed=*/8);

  struct Entry {
    std::string label;
    std::size_t idx = 0;
  };
  std::vector<Entry> entries;
  auto add = [&](std::string label, const lu::LuConfig& cfg) {
    entries.push_back({std::move(label), campaign.add(cfg, {}, 8)});
  };

  // Graph modifications at the reference granularity.
  {
    auto cfg = bench::paperLu(648, 4);
    cfg.parallelMult = true;
    add("PM        r=648", cfg);
  }
  {
    auto cfg = bench::paperLu(648, 4);
    cfg.pipelined = true;
    add("P         r=648", cfg);
  }
  {
    auto cfg = bench::paperLu(648, 4);
    cfg.pipelined = true;
    cfg.parallelMult = true;
    add("P+PM      r=648", cfg);
  }
  {
    auto cfg = bench::paperLu(648, 4);
    cfg.pipelined = true;
    cfg.flowControl = true;
    add("P+FC      r=648", cfg);
  }
  {
    auto cfg = bench::paperLu(648, 4);
    cfg.pipelined = true;
    cfg.parallelMult = true;
    cfg.flowControl = true;
    add("P+PM+FC   r=648", cfg);
  }
  // Granularity changes (the dominant effect).
  for (std::int32_t r : {324, 216, 162, 108})
    add("Basic     r=" + std::to_string(r), bench::paperLu(r, 4));

  const auto result = campaign.run(opts.jobs);
  const auto& reference = result.observations[iRef];
  std::printf("Figure 8 reproduction: LU 2592^2, 4 nodes; reference Basic r=648\n");
  std::printf("reference: measured %.1fs, predicted %.1fs (paper reference: 259.4s)\n\n",
              reference.measuredSec, reference.predictedSec);

  Table t;
  t.header({"variant", "measured [s]", "predicted [s]",
            "improvement (meas)", "improvement (pred)", "pred err"});
  double bestGranularityGain = 0;
  double bestTweakGain = 0;
  double worstPredErr = 0;
  for (const auto& [label, idx] : entries) {
    const auto& obs = result.observations[idx];
    const double gainMeas = reference.measuredSec / obs.measuredSec;
    const double gainPred = reference.predictedSec / obs.predictedSec;
    t.row({label, Table::num(obs.measuredSec, 1), Table::num(obs.predictedSec, 1),
           Table::num(gainMeas, 2), Table::num(gainPred, 2), Table::pct(obs.error(), 1)});
    if (label.rfind("Basic", 0) == 0) bestGranularityGain = std::max(bestGranularityGain, gainMeas);
    else bestTweakGain = std::max(bestTweakGain, gainMeas);
    worstPredErr = std::max(worstPredErr, std::abs(obs.error()));
  }
  t.print(std::cout);
  std::printf("\npaper: graph tweaks ~3%%; best granularity ~3.5x; prediction within a few %%\n\n");

  check(bestGranularityGain > 1.2, "changing granularity improves substantially over Basic r=648");
  check(bestGranularityGain > bestTweakGain,
        "granularity gains dominate the PM/P/FC graph modifications");
  // Individual errors can reach several percent (the paper's own campaign
  // has a +-16% tail, Fig. 13); the curve as a whole must track closely.
  std::vector<double> errs;
  for (const auto& e : entries) errs.push_back(std::abs(result.observations[e.idx].error()));
  check(percentile(errs, 50) < 0.03, "median prediction error below 3%");
  check(worstPredErr < 0.12, "worst prediction error within the paper's +-12% band");
  // The predictor's preferred configuration is (within noise) as good as
  // the true best — the property that makes the simulator usable as an
  // optimization tool (§4).
  std::string bestPred;
  double bp = 0, bm = 0;
  double bestPredMeasuredGain = 0;
  for (const auto& [label, idx] : entries) {
    const auto& obs = result.observations[idx];
    bm = std::max(bm, reference.measuredSec / obs.measuredSec);
    if (reference.predictedSec / obs.predictedSec > bp) {
      bp = reference.predictedSec / obs.predictedSec;
      bestPred = label;
      bestPredMeasuredGain = reference.measuredSec / obs.measuredSec;
    }
  }
  check(bestPredMeasuredGain > 0.97 * bm,
        "the simulator's preferred configuration is within 3% of the true best");
  return bench::finish("fig8_modifications_4nodes", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
