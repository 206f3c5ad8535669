// Figure 13 — histogram of prediction errors over the full measurement
// campaign (paper §8: 168 measurements; 71.4% within ±4%, 81.6% within
// ±6%, >95% within ±12%).
//
// The campaign replays the scenario grid behind Figs. 8-12 across several
// "machine states" (fidelity seeds — like measuring on different days).
// This is the largest sweep in the suite, declared as exp::SweepGrid grids
// and executed on the campaign pool (--jobs).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/stats.hpp"

using namespace dps;

namespace {

// 2%-wide bins over [-16%, +16%) like the paper's figure; errors outside
// are clamped into the edge bins.
constexpr double kLo = -0.16;
constexpr double kHi = 0.16;
constexpr std::size_t kBins = 16;
constexpr double kWidth = (kHi - kLo) / kBins;

std::vector<std::size_t> binErrors(const std::vector<double>& errors) {
  std::vector<std::size_t> counts(kBins, 0);
  for (double x : errors) {
    std::size_t i = 0;
    if (x >= kHi)
      i = kBins - 1;
    else if (x >= kLo)
      i = std::min(static_cast<std::size_t>((x - kLo) / kWidth), kBins - 1);
    ++counts[i];
  }
  return counts;
}

/// One bar per bin, scaled so the mode bin's bar is `barWidth` wide.
void printBars(const std::vector<std::size_t>& counts, std::size_t modeBin,
               std::size_t barWidth) {
  const std::size_t maxCount = counts[modeBin];
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double lo = kLo + kWidth * static_cast<double>(i);
    const double center = 0.5 * (lo + (lo + kWidth));
    const std::size_t bar =
        maxCount == 0 ? 0 : (counts[i] * barWidth + maxCount - 1) / maxCount;
    std::printf("%+8.1f%% | %-*s %zu\n", center * 100.0, static_cast<int>(barWidth),
                std::string(bar, '#').c_str(), counts[i]);
  }
}

} // namespace

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

  const std::vector<std::size_t> counts = binErrors(errors);
  const auto modeBin =
      static_cast<std::size_t>(std::max_element(counts.begin(), counts.end()) - counts.begin());

  std::printf("Figure 13 reproduction: prediction-error histogram over %zu measurements\n\n",
              errors.size());
  printBars(counts, modeBin, 50);
  std::printf("\n");

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
  check(modeBin >= 6 && modeBin <= 9, "error mass concentrates around zero");
  return bench::finish("fig13_error_histogram", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
