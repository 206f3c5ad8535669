// Figure 11 — dynamic efficiency of the LU factorization per iteration:
// 8 threads vs 4 threads vs "kill 4 after iteration 1", measured and
// simulated (paper §8).
//
// Paper shape: iteration-1 efficiency ~60% on 4 nodes vs ~38% on 8 nodes;
// the 4-vs-8 efficiency ratio reaches 2x by iteration ~6; removing threads
// after iteration 1 lifts subsequent efficiency onto the 4-thread curve.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "trace/efficiency.hpp"

using namespace dps;

namespace {

std::vector<double> efficiencies(const core::RunResult& r) {
  const auto pts =
      trace::dynamicEfficiency(*r.trace, "iteration", simEpoch(), simEpoch() + r.makespan);
  std::vector<double> out;
  for (const auto& p : pts) out.push_back(p.efficiency);
  return out;
}

} // namespace

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  auto cfg = bench::paperLu(324, 8); // 8 column blocks, basic graph
  auto cfg4 = cfg;
  cfg4.workers = 4;

  exp::Campaign campaign(bench::paperSettings());
  const std::size_t iEight = campaign.add(cfg, {}, /*fidelitySeed=*/11);
  const std::size_t iFour = campaign.add(cfg4, {}, 11);
  const std::size_t iKilled =
      campaign.add(cfg, mall::AllocationPlan::killAfter({{1, {4, 5, 6, 7}}}), 11);
  const auto result = campaign.run(opts.jobs);
  const auto& eight = result.observations[iEight];
  const auto& four = result.observations[iFour];
  const auto& killed = result.observations[iKilled];

  const auto e8m = efficiencies(eight.measured);
  const auto e8p = efficiencies(eight.predicted);
  const auto e4m = efficiencies(four.measured);
  const auto e4p = efficiencies(four.predicted);
  const auto ekm = efficiencies(killed.measured);
  const auto ekp = efficiencies(killed.predicted);

  std::printf("Figure 11 reproduction: dynamic efficiency per LU iteration\n");
  std::printf("(2592^2, r=324, basic graph; efficiency = work / (allocated nodes x time))\n\n");
  Table t;
  t.header({"iteration", "8 thr", "8 thr sim", "4 thr", "4 thr sim", "kill4@1", "kill4@1 sim"});
  const std::size_t iters = e8m.size();
  for (std::size_t i = 0; i < iters; ++i) {
    auto cell = [&](const std::vector<double>& v) {
      return i < v.size() ? Table::pct(v[i], 1) : std::string("-");
    };
    t.row({std::to_string(i + 1), cell(e8m), cell(e8p), cell(e4m), cell(e4p), cell(ekm),
           cell(ekp)});
  }
  t.print(std::cout);
  std::printf("\npaper: iteration 1: 60.2%% (4 thr) vs 37.6%% (8 thr); ratio reaches 2x by\n");
  std::printf("iteration 6; kill-4-after-1 jumps onto the 4-thread efficiency curve\n\n");

  check(e4m[0] > 0.5 && e4m[0] < 0.75, "iteration-1 efficiency on 4 nodes ~60% (paper: 60.2%)");
  check(e8m[0] > 0.28 && e8m[0] < 0.5, "iteration-1 efficiency on 8 nodes ~38% (paper: 37.6%)");
  check(e4m[0] / e8m[0] > 1.3 && e4m[0] / e8m[0] < 2.0,
        "4 nodes ~50% more efficient than 8 at iteration 1");
  check(e4m[5] / e8m[5] >= 1.8, "efficiency ratio reaches ~2x by iteration 6");
  // Efficiency decreases over the bulk of the run (paper: the parallel
  // computation of LU iterations becomes less efficient over time).
  check(e8m[4] < e8m[0] && e4m[4] < e4m[0],
        "efficiency decreases over iterations on both allocations");
  // After the kill, efficiency tracks the 4-thread curve.
  double worstGap = 0;
  for (std::size_t i = 1; i < std::min(ekm.size(), e4m.size()) - 1; ++i)
    worstGap = std::max(worstGap, std::abs(ekm[i] - e4m[i]));
  check(worstGap < 0.08, "kill-4-after-1 efficiency matches the 4-thread curve from iteration 2");
  // Simulation tracks measurement.
  double simGap = 0;
  for (std::size_t i = 0; i + 1 < iters; ++i) {
    simGap = std::max(simGap, std::abs(e8m[i] - e8p[i]));
    simGap = std::max(simGap, std::abs(e4m[i] - e4p[i]));
  }
  check(simGap < 0.06, "simulated efficiency within 6 points of measured");
  return bench::finish("fig11_dynamic_efficiency", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
