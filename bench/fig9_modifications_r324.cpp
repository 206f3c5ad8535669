// Figure 9 — PM / P / FC modifications on 4 nodes with r=324 (eight column
// blocks, two per node); reference = basic flow graph, r=324 (paper §8).
//
// Paper shape: with the well-balanced r=324 decomposition, the extra
// communication of parallel sub-block multiplications (PM) *slows the
// execution down*, while pipelining (P) and flow control (FC) bring small
// improvements; prediction errors stay below 5%.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  exp::Campaign campaign(bench::paperSettings());
  const std::size_t iRef = campaign.add(bench::paperLu(324, 4), {}, /*fidelitySeed=*/9);

  struct Entry {
    std::string label;
    std::size_t idx = 0;
  };
  std::vector<Entry> entries;
  auto add = [&](std::string label, bool p, bool pm, bool fc) {
    auto cfg = bench::paperLu(324, 4);
    cfg.pipelined = p;
    cfg.parallelMult = pm;
    cfg.flowControl = fc;
    entries.push_back({std::move(label), campaign.add(cfg, {}, 9)});
  };
  add("PM", false, true, false);
  add("P", true, false, false);
  add("P+PM", true, true, false);
  add("P+FC", true, false, true);
  add("P+PM+FC", true, true, true);

  const auto result = campaign.run(opts.jobs);
  const auto& reference = result.observations[iRef];
  std::printf("Figure 9 reproduction: LU 2592^2, 4 nodes, reference Basic r=324\n");
  std::printf("reference: measured %.1fs, predicted %.1fs (paper reference: 101.8s)\n\n",
              reference.measuredSec, reference.predictedSec);

  Table t;
  t.header({"variant", "measured [s]", "predicted [s]", "improvement (meas)",
            "improvement (pred)", "pred err"});
  double worstPredErr = 0;
  auto gain = [&](const exp::Observation& o) { return reference.measuredSec / o.measuredSec; };
  for (const auto& [label, idx] : entries) {
    const auto& obs = result.observations[idx];
    t.row({label, Table::num(obs.measuredSec, 1), Table::num(obs.predictedSec, 1),
           Table::num(gain(obs), 3),
           Table::num(reference.predictedSec / obs.predictedSec, 3),
           Table::pct(obs.error(), 1)});
    worstPredErr = std::max(worstPredErr, std::abs(obs.error()));
  }
  t.print(std::cout);
  std::printf("\npaper: PM ~0.95 (slowdown), P/FC ~1.0-1.05; prediction errors below 5%%\n\n");

  auto find = [&](const std::string& l) -> const exp::Observation& {
    for (const auto& e : entries)
      if (e.label == l) return result.observations[e.idx];
    throw Error("missing entry");
  };
  check(gain(find("PM")) < 1.0, "PM slows execution down at r=324 (extra sub-block communication)");
  check(gain(find("P+PM")) < gain(find("P")), "adding PM to P makes it worse");
  check(gain(find("P")) >= 1.0, "pipelining alone does not hurt");
  check(gain(find("P+FC")) >= gain(find("P")), "flow control adds on top of pipelining");
  check(worstPredErr < 0.05, "prediction errors below 5% (paper Fig. 9 caption)");
  return bench::finish("fig9_modifications_r324", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
