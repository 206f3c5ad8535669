// Figure 13 — histogram of prediction errors over the full measurement
// campaign (paper §8: 168 measurements; 71.4% within ±4%, 81.6% within
// ±6%, >95% within ±12%).
//
// The campaign replays the scenario grid behind Figs. 8-12 across several
// "machine states" (fidelity seeds — like measuring on different days).
// This is the largest sweep in the suite, declared as exp::SweepGrid grids
// and executed on the campaign pool (--jobs).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "support/histogram.hpp"
#include "support/stats.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs opts(cli);

  const std::vector<std::uint64_t> seeds{101, 202, 303, 404, 505, 606};
  exp::Campaign campaign(bench::paperSettings());

  // Scenario grid: granularities x variants x node counts, every machine state.
  exp::SweepGrid grid;
  grid.base = bench::paperLu(324, 8);
  grid.r = {108, 162, 216, 324};
  grid.workers = {4, 8};
  grid.variants = {{"Basic", false, false, false},
                   {"P", true, false, false},
                   {"P+FC", true, false, true}};
  grid.fidelitySeeds = seeds;
  campaign.add(grid);

  // PM variants (coarse granularities, where the paper evaluates them).
  exp::SweepGrid pm;
  pm.base = bench::paperLu(324, 4);
  pm.r = {324, 648};
  pm.variants = {{"PM", false, true, false}};
  pm.fidelitySeeds = seeds;
  campaign.add(pm);

  // Removal strategies.
  exp::SweepGrid removal;
  removal.base = bench::paperLu(324, 8);
  removal.plans = {mall::AllocationPlan::killAfter({{1, {4, 5, 6, 7}}}),
                   mall::AllocationPlan::killAfter({{4, {4, 5, 6, 7}}}),
                   mall::AllocationPlan::killAfter({{2, {6, 7}}, {3, {4, 5}}})};
  removal.fidelitySeeds = seeds;
  campaign.add(removal);

  const auto result = campaign.run(opts.jobs);
  const std::vector<double> errors = result.errors();

  Histogram hist(-0.16, 0.16, 16); // 2%-wide bins like the paper's figure
  hist.addAll(errors);

  std::printf("Figure 13 reproduction: prediction-error histogram over %zu measurements\n\n",
              errors.size());
  std::printf("%s\n", hist.render(50).c_str());

  const double within4 = fractionWithin(errors, 0.04);
  const double within6 = fractionWithin(errors, 0.06);
  const double within12 = fractionWithin(errors, 0.12);
  const auto agg = result.aggregate();
  std::printf("within +-4%%: %.1f%%   within +-6%%: %.1f%%   within +-12%%: %.1f%%\n",
              within4 * 100, within6 * 100, within12 * 100);
  std::printf("mean error %.2f%%, stddev %.2f%%, min %.2f%%, max %.2f%%\n",
              agg.error.mean() * 100, agg.error.stddev() * 100, agg.error.min() * 100,
              agg.error.max() * 100);
  std::printf("\npaper: 71.4%% within +-4%%, 81.6%% within +-6%%, >95%% within +-12%%\n\n");

  check(errors.size() >= 168, "campaign size matches the paper's 168 measurements");
  check(within4 >= 0.714, "at least 71.4% of predictions within +-4% (paper)");
  check(within6 >= 0.816, "at least 81.6% of predictions within +-6% (paper)");
  check(within12 >= 0.95, "more than 95% of predictions within +-12% (paper)");
  check(std::abs(agg.error.mean()) < 0.05, "errors are not grossly biased");
  check(hist.modeBin() >= 6 && hist.modeBin() <= 9, "error mass concentrates around zero");
  return bench::finish("fig13_error_histogram", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
