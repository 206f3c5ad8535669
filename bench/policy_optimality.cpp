// Policy optimality bench: how close do the shipped scheduling policies
// get to the *provably optimal* schedule?
//
// The exhaustive explorer (sched::explore) is the oracle: on explorer-scale
// workloads (4 jobs on 8 nodes, dense arrivals) it enumerates every
// schedule any policy could produce and proves the optimal makespan and
// mean slowdown by branch-and-bound over the joint decision space.  Each
// seeded workload then scores the five policy configurations — the four
// policies plus fcfs-rigid under EASY backfill — as a percentage of
// optimal, and the [CHECK] claims pin the oracle contract: the optimum is
// proven (search complete), never beaten by any policy, and its decision
// trace replays through the instant machine bit-identically.
//
// The best-policy, fcfs-rigid and efficiency-shrink mean percentages are
// [CHECK]ed at their exact values, so a scheduler change that walks a
// policy away from optimal fails this bench until the pin is updated.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "sched/cluster.hpp"
#include "sched/explore.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

namespace {

struct SeedScore {
  double optimalMakespan = 0;
  double optimalSlowdown = 0;
  std::vector<double> makespanPct; // per policy config
  std::vector<double> slowdownPct;
};

} // namespace

int run(Cli& cli) {
  const bench::BenchArgs args(cli, /*withSmoke=*/true);
  const std::int32_t nodes = 8;
  const std::int32_t jobCount = args.smoke ? 3 : 4;
  const std::vector<std::uint64_t> seeds =
      args.smoke ? std::vector<std::uint64_t>{1, 2} : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
  const auto cfgs = sched::oraclePolicies();

  const sched::ProfileSettings settings;
  const auto classes = sched::exploreMix(nodes);
  const auto profiles = svc::buildProfileTable(classes, nodes, settings, args.jobs);
  const auto ccfg = sched::ClusterConfig::fromProfile(settings.platform, nodes);

  std::printf("oracle sweep: %zu seeds x (%zu policy configs + 2 exhaustive searches), "
              "%d jobs on %d nodes\n\n",
              seeds.size(), cfgs.size(), jobCount, nodes);

  std::vector<SeedScore> scores;
  for (const std::uint64_t seed : seeds) {
    sched::WorkloadConfig wcfg;
    wcfg.seed = seed;
    wcfg.jobCount = jobCount;
    wcfg.arrivalRatePerSec = 20.0;
    wcfg.classes = classes;
    const auto workload = sched::Workload::generate(wcfg, nodes);

    const auto oracle = sched::compareWithOptimum(ccfg, workload, profiles);
    const auto& mk = oracle.makespan;
    const auto& sl = oracle.slowdown;
    const auto& runs = oracle.runs;
    const std::string tag = "seed " + std::to_string(seed);
    check(mk.found && mk.stats.complete && sl.found && sl.stats.complete,
          tag + ": both optima proven (searches complete)");
    check(oracle.makespanReplay.makespanSec == mk.makespanSec,
          tag + ": optimal trace replays bit-identically");

    SeedScore s;
    s.optimalMakespan = mk.makespanSec;
    s.optimalSlowdown = sl.meanSlowdown;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      check(mk.makespanSec <= runs[i].makespanSec + 1e-9,
            tag + ": optimum <= " + cfgs[i].label + " makespan");
      s.makespanPct.push_back(100.0 * mk.makespanSec / runs[i].makespanSec);
      s.slowdownPct.push_back(100.0 * sl.meanSlowdown / runs[i].meanSlowdown);
    }
    scores.push_back(std::move(s));
  }

  // Per-policy means across seeds; the history-gated series.
  std::vector<double> meanMk(cfgs.size(), 0), meanSl(cfgs.size(), 0);
  double meanBestMk = 0, meanBestSl = 0;
  for (const SeedScore& s : scores) {
    meanBestMk += *std::max_element(s.makespanPct.begin(), s.makespanPct.end());
    meanBestSl += *std::max_element(s.slowdownPct.begin(), s.slowdownPct.end());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      meanMk[i] += s.makespanPct[i];
      meanSl[i] += s.slowdownPct[i];
    }
  }
  const double n = static_cast<double>(scores.size());
  meanBestMk /= n;
  meanBestSl /= n;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    meanMk[i] /= n;
    meanSl[i] /= n;
  }

  Table t("policy optimality, mean over " + std::to_string(seeds.size()) + " seeds (" +
          std::to_string(jobCount) + " jobs, " + std::to_string(nodes) + " nodes)");
  t.header({"policy", "makespan % of optimal", "slowdown % of optimal"});
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    t.row({cfgs[i].label, Table::num(meanMk[i], 1), Table::num(meanSl[i], 1)});
  t.row({"(best per seed)", Table::num(meanBestMk, 1), Table::num(meanBestSl, 1)});
  t.print(std::cout);

  std::vector<std::string> labels;
  for (const auto& pc : cfgs) labels.push_back(pc.label);
  std::sort(labels.begin(), labels.end());
  check(labels == std::vector<std::string>{"efficiency-shrink", "equipartition",
                                           "fcfs-easy", "fcfs-rigid", "grow-eager"},
        "scores the five policy configurations");
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    check(meanMk[i] > 0 && meanMk[i] <= 100.0 + 1e-9,
          cfgs[i].label + ": makespan percentage of optimal is in (0, 100]");
  check(meanBestMk > 0 && meanBestMk <= 100.0 + 1e-9,
        "best-policy makespan percentage is in (0, 100]");
  check(meanBestSl > 0 && meanBestSl <= 100.0 + 1e-9,
        "best-policy slowdown percentage is in (0, 100]");
  // Dense arrivals mean real contention: if every policy were always
  // optimal the oracle would be vacuous, so at least one configuration must
  // measurably trail the optimum somewhere in the sweep.
  double worstMk = 100.0;
  for (double v : meanMk) worstMk = std::min(worstMk, v);
  check(worstMk < 99.0, "at least one policy measurably trails the optimum");
  // Malleability pays: the best adaptive policy dominates rigid fcfs on
  // makespan across the sweep (the paper's core premise at cluster scale).
  const auto indexOf = [&](const std::string& label) {
    std::size_t i = 0;
    while (cfgs[i].label != label) ++i;
    return i;
  };
  const std::size_t rigid = indexOf("fcfs-rigid");
  check(meanBestMk >= meanMk[rigid],
        "best adaptive config >= fcfs-rigid on mean makespan percentage");
  // Seeded workloads and exhaustive searches make every score exact, so the
  // headline ones are pinned: a scheduler change that moves one updates it
  // here, in the same change.
  struct Pinned {
    double bestMk, bestSl, rigidMk, shrinkMk;
  };
  Pinned want{84.89963640132396, 98.45050432354222, 80.70862686249271, 82.41447709546435};
  if (args.smoke)
    want = {74.31641230193432, 95.76948156690403, 74.31641230193432, 72.08050123861373};
  check(meanBestMk == want.bestMk && meanBestSl == want.bestSl,
        "best-policy makespan and slowdown percentages pinned at their exact values");
  check(meanMk[rigid] == want.rigidMk, "fcfs-rigid makespan percentage pinned at its exact value");
  check(meanMk[indexOf("efficiency-shrink")] == want.shrinkMk,
        "efficiency-shrink makespan percentage pinned at its exact value");

  return bench::finish("policy_optimality", args, nullptr, [&](JsonWriter& w) {
    w.key("optimality")
        .beginObject()
        .field("seeds", seeds.size())
        .field("job_count", jobCount)
        .field("nodes", nodes)
        .field("best_policy_makespan_pct", meanBestMk)
        .field("best_policy_slowdown_pct", meanBestSl);
    w.key("policies").beginArray();
    for (std::size_t i = 0; i < cfgs.size(); ++i)
      w.beginObject()
          .field("policy", cfgs[i].label)
          .field("backfill", cfgs[i].backfill)
          .field("makespan_pct_of_optimal", meanMk[i])
          .field("slowdown_pct_of_optimal", meanSl[i])
          .endObject();
    w.endArray().endObject();
  });
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
