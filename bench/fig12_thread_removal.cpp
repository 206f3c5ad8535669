// Figure 12 — total running times of the dynamic thread-removal
// strategies (paper §8): 4 threads, 8 threads, kill 4 after iteration 1,
// kill 4 after iteration 4, kill 2 after it. 2 + 2 after it. 3.
//
// Paper shape: late removal (after it. 4) costs essentially nothing vs the
// full 8-thread run; early removal costs far less than running on 4
// threads throughout; predictions track measurements.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  const auto cfg8 = bench::paperLu(324, 8);
  auto cfg4 = cfg8;
  cfg4.workers = 4;

  exp::Campaign campaign(bench::paperSettings());
  struct Entry {
    std::string label;
    std::size_t idx = 0;
  };
  std::vector<Entry> entries;
  auto add = [&](std::string label, const lu::LuConfig& cfg, const mall::AllocationPlan& plan) {
    entries.push_back({std::move(label), campaign.add(cfg, plan, /*fidelitySeed=*/12)});
  };
  add("4 threads", cfg4, {});
  add("8 threads", cfg8, {});
  add("8 thr, kill 4 after it. 1", cfg8, mall::AllocationPlan::killAfter({{1, {4, 5, 6, 7}}}));
  add("8 thr, kill 4 after it. 4", cfg8, mall::AllocationPlan::killAfter({{4, {4, 5, 6, 7}}}));
  add("8 thr, kill 2 after it. 2 + 2 after it. 3", cfg8,
      mall::AllocationPlan::killAfter({{2, {6, 7}}, {3, {4, 5}}}));

  const auto result = campaign.run(opts.jobs);

  std::printf("Figure 12 reproduction: running time under thread-removal strategies\n");
  std::printf("(2592^2, r=324, basic flow graph, 8 -> fewer nodes)\n\n");
  Table t;
  t.header({"strategy", "measured [s]", "predicted [s]", "pred err"});
  for (const auto& [label, idx] : entries) {
    const auto& obs = result.observations[idx];
    t.row({label, Table::num(obs.measuredSec, 1), Table::num(obs.predictedSec, 1),
           Table::pct(obs.error(), 1)});
  }
  t.print(std::cout);
  std::printf("\npaper (values ~85-101s): kill4@4 ~ 8 threads; kill4@1 well below 4 threads\n\n");

  const double t4 = result.observations[entries[0].idx].measuredSec;
  const double t8 = result.observations[entries[1].idx].measuredSec;
  const double k41 = result.observations[entries[2].idx].measuredSec;
  const double k44 = result.observations[entries[3].idx].measuredSec;
  const double k22 = result.observations[entries[4].idx].measuredSec;

  check(t8 < t4, "8 threads faster than 4 threads");
  check(k44 < t8 * 1.03, "killing 4 threads after iteration 4 costs almost nothing");
  check(k41 < t4 * 0.97, "killing 4 after iteration 1 is clearly faster than 4 threads");
  check(k41 >= t8 * 0.99, "early removal cannot beat the full 8-thread run");
  check(k22 > k44 * 0.99 && k22 < k41 * 1.03,
        "staged removal lands between early and late removal");
  double worstErr = 0;
  for (const auto& e : entries)
    worstErr = std::max(worstErr, std::abs(result.observations[e.idx].error()));
  check(worstErr < 0.06, "predictions track removal strategies within 6%");
  return bench::finish("fig12_thread_removal", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
