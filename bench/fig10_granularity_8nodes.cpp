// Figure 10 — decomposition granularity r x {Basic, P, P+FC} on 8 nodes;
// reference = basic flow graph r=324 (84.2 s in the paper).
//
// Paper shape: on 8 nodes pipelining becomes significant; P+FC is best and
// its optimum moves to finer granularity; the basic graph degrades sharply
// at fine granularity.
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_common.hpp"

using namespace dps;

int run(Cli& cli) {
  // --smoke shrinks the sweep (1296^2 matrix, coarse granularities only) so CI
  // can exercise the full bench pipeline in well under a second.
  const bench::BenchArgs opts(cli, /*withSmoke=*/true);
  const bool smoke = opts.smoke;

  const std::int32_t n = smoke ? 1296 : 2592;
  auto lu = [&](std::int32_t r, std::int32_t workers) {
    auto cfg = bench::paperLu(r, workers);
    cfg.n = n;
    return cfg;
  };

  const std::vector<std::int32_t> sizes = smoke ? std::vector<std::int32_t>{162, 216, 324}
                                                : std::vector<std::int32_t>{81, 108, 162, 216, 324};
  const std::vector<std::string> variants{"Basic", "P", "P+FC"};

  exp::Campaign campaign(bench::paperSettings());
  const std::size_t iRef = campaign.add(lu(324, 8), {}, /*fidelitySeed=*/10);
  // point index per (variant, r) — the campaign preserves this ordering.
  std::map<std::string, std::map<std::int32_t, std::size_t>> pointOf;
  for (std::int32_t r : sizes) {
    for (const auto& v : variants) {
      auto cfg = lu(r, 8);
      cfg.pipelined = v != "Basic";
      cfg.flowControl = v == "P+FC";
      pointOf[v][r] = campaign.add(cfg, {}, 10);
    }
  }

  const auto result = campaign.run(opts.jobs);
  const auto& reference = result.observations[iRef];
  std::printf("Figure 10 reproduction: LU %d^2, 8 nodes, reference Basic r=324\n", n);
  std::printf("reference: measured %.1fs, predicted %.1fs (paper: 84.2s at 2592^2)\n\n",
              reference.measuredSec, reference.predictedSec);

  // improvement[variant][r] for measured and predicted legs.
  std::map<std::string, std::map<std::int32_t, std::pair<double, double>>> curve;
  for (std::int32_t r : sizes) {
    for (const auto& v : variants) {
      const auto& obs = result.observations[pointOf[v][r]];
      curve[v][r] = {reference.measuredSec / obs.measuredSec,
                     reference.predictedSec / obs.predictedSec};
    }
  }

  Table t;
  t.header({"block size r", "Basic", "Basic (sim)", "P", "P (sim)", "P+FC", "P+FC (sim)"});
  for (std::int32_t r : sizes) {
    t.row({std::to_string(r), Table::num(curve["Basic"][r].first, 2),
           Table::num(curve["Basic"][r].second, 2), Table::num(curve["P"][r].first, 2),
           Table::num(curve["P"][r].second, 2), Table::num(curve["P+FC"][r].first, 2),
           Table::num(curve["P+FC"][r].second, 2)});
  }
  t.print(std::cout);
  std::printf("\npaper shape: P+FC ~1.6-1.8 at fine r; Basic degrades below r=216;\n");
  std::printf("P strictly above Basic; P+FC at or above P everywhere\n\n");

  bool pBeatsBasic = true, fcBeatsP = true;
  for (std::int32_t r : sizes) {
    if (curve["P"][r].first <= curve["Basic"][r].first) pBeatsBasic = false;
    if (curve["P+FC"][r].first + 1e-9 < curve["P"][r].first) fcBeatsP = false;
  }
  check(pBeatsBasic, "pipelining beats the basic graph at every granularity");
  // The remaining claims are paper-scale shapes (2592^2); at --smoke size flow
  // control can lose at coarse granularity, so only the full run asserts them.
  if (!smoke) {
    check(fcBeatsP, "flow control never hurts pipelining");
    check(curve["Basic"][81].first < 0.9,
          "basic graph degrades sharply at fine granularity (r=81)");
    check(curve["P+FC"][108].first > 1.5, "P+FC reaches a large improvement at fine granularity");
  }
  // Optimum of P+FC sits at finer granularity than the Basic optimum.
  auto argmax = [&](const std::string& v) {
    std::int32_t best = sizes.front();
    for (std::int32_t r : sizes)
      if (curve[v][r].first > curve[v][best].first) best = r;
    return best;
  };
  check(argmax("P+FC") <= argmax("Basic"),
        "optimal block size for P+FC is at least as fine as for Basic");
  // Simulator curves track the measured ones.
  double worstGap = 0;
  for (const auto& v : variants)
    for (std::int32_t r : sizes)
      worstGap = std::max(worstGap,
                          std::abs(curve[v][r].first - curve[v][r].second) / curve[v][r].first);
  check(worstGap < 0.08, "simulated improvement curves track measured within 8%");
  return bench::finish("fig10_granularity_8nodes", opts, &result);
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
