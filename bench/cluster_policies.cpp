// Cluster scheduling-policy campaign: the sched:: subsystem's counterpart
// of the figure benches.
//
// One profile table (built once, fanned over --jobs engines) feeds a sweep
// of (workload seed x arrival rate) cluster simulations under every policy.
// The [CHECK] claims encode what the malleable-scheduling literature — and
// the paper's §9 outlook — predict:
//   * equipartition beats the rigid FCFS baseline on mean job slowdown, on
//     the default workload and on the sweep aggregate;
//   * the efficiency-driven shrink policy releases nodes (reallocations
//     happen) and still completes every job;
//   * every simulation conserves nodes (utilization in (0, 1]).
#include <iostream>
#include <map>
#include <memory>

#include "bench_common.hpp"
#include "obs/recorder.hpp"
#include "sched/cluster.hpp"
#include "support/json.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

int run(Cli& cli) {
  const bench::BenchArgs args(cli, /*withSmoke=*/true);
  const std::int32_t nodes = 8;
  const std::vector<std::uint64_t> seeds =
      args.smoke ? std::vector<std::uint64_t>{1, 2} : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
  const std::vector<double> rates =
      args.smoke ? std::vector<double>{0.15} : std::vector<double>{0.08, 0.15, 0.3};

  const auto classes = sched::Workload::defaultMix(nodes);
  const sched::ProfileSettings settings;
  const auto profiles = svc::buildProfileTable(classes, nodes, settings, args.jobs);
  const auto ccfg = sched::ClusterConfig::fromProfile(settings.platform, nodes);

  struct PolicyAgg {
    OnlineStats slowdown, utilization, wait;
    std::int32_t reallocations = 0;
    std::int32_t growthGrants = 0; // phase-boundary allocation increases
    obs::WaitAttribution attr;     // summed integer-ns wait attribution
  };
  std::map<std::string, PolicyAgg> agg;
  struct Point {
    std::uint64_t seed;
    double rate;
    sched::ClusterMetrics metrics;
  };
  std::vector<Point> points; // sweep order: rate, seed, policy
  double defaultFcfs = 0, defaultEquip = 0; // seed 1, rate 0.15 — the acceptance point

  for (double rate : rates) {
    Table t("cluster of " + std::to_string(nodes) + " nodes, arrival rate " +
            Table::num(rate, 2) + "/s (mean slowdown | utilization)");
    std::vector<std::string> head{"seed"};
    for (const auto& name : sched::policyNames()) head.push_back(name);
    t.header(head);
    for (std::uint64_t seed : seeds) {
      sched::WorkloadConfig wcfg;
      wcfg.seed = seed;
      // The event loop is cheap next to the (shared) profile table, so even
      // the smoke run plays the full default workload — the growth-grant
      // check needs its tail jobs.
      wcfg.jobCount = 12;
      wcfg.arrivalRatePerSec = rate;
      wcfg.classes = classes;
      const auto workload = sched::Workload::generate(wcfg, nodes);

      std::vector<std::string> cells{std::to_string(seed)};
      for (const auto& name : sched::policyNames()) {
        auto policy = sched::makePolicy(name);
        auto m = sched::simulateCluster(ccfg, workload, profiles, *policy);
        check(!m.jobs.empty() && m.utilization > 0 && m.utilization <= 1.0 + 1e-9,
              name + " seed " + std::to_string(seed) + " rate " + Table::num(rate, 2) +
                  ": all jobs served, utilization in (0,1]");
        cells.push_back(Table::num(m.meanSlowdown, 2) + " | " + Table::pct(m.utilization, 0));
        PolicyAgg& a = agg[name];
        a.slowdown.add(m.meanSlowdown);
        a.utilization.add(m.utilization);
        a.wait.add(m.meanWaitSec);
        a.reallocations += m.reallocations;
        for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r)
          a.attr.byReason[r] += m.attribution.byReason[r];
        a.attr.totalNs += m.attribution.totalNs;
        a.attr.migrationDelayNs += m.attribution.migrationDelayNs;
        for (const auto& j : m.jobs)
          for (std::size_t p = 1; p < j.allocs.size(); ++p)
            a.growthGrants += j.allocs[p] > j.allocs[p - 1];
        if (seed == 1 && rate == 0.15) {
          if (name == "fcfs-rigid") defaultFcfs = m.meanSlowdown;
          if (name == "equipartition") defaultEquip = m.meanSlowdown;
        }
        points.push_back(Point{seed, rate, std::move(m)});
      }
      t.row(cells);
    }
    t.print(std::cout);
  }

  check(defaultEquip > 0 && defaultEquip < defaultFcfs,
        "equipartition beats fcfs-rigid on mean slowdown (default workload)");
  check(agg["equipartition"].slowdown.mean() < agg["fcfs-rigid"].slowdown.mean(),
        "equipartition beats fcfs-rigid on mean slowdown (sweep aggregate)");
  check(agg["efficiency-shrink"].reallocations > 0,
        "efficiency-shrink policy actually releases nodes");
  check(agg["grow-eager"].growthGrants > 0,
        "grow-eager policy triggers growth grants on the default workload sweep");
  check(agg["fcfs-rigid"].growthGrants == 0, "rigid jobs never grow");
  check(agg["equipartition"].wait.mean() < agg["fcfs-rigid"].wait.mean(),
        "malleable scheduling shortens mean job wait vs rigid FCFS");

  return bench::finish("cluster_policies", args, nullptr, [&](JsonWriter& w) {
    w.key("aggregate").beginObject();
    for (const auto& [name, a] : agg) {
      w.key(name)
          .beginObject()
          .field("mean_slowdown", a.slowdown.mean())
          .field("mean_utilization", a.utilization.mean())
          .field("mean_wait_sec", a.wait.mean())
          .field("reallocations", a.reallocations)
          .field("growth_grants", a.growthGrants)
          .key("wait_attr");
      sched::writeAttributionJson(w, a.attr);
      w.endObject();
    }
    w.endObject();
    w.key("points").beginArray();
    for (const auto& p : points) {
      w.beginObject().field("seed", p.seed).field("rate", p.rate).key("metrics");
      p.metrics.writeJson(w);
      w.endObject();
    }
    w.endArray();
  });
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
