// Profile-service load bench: thousands of mixed what-if and cluster
// profile queries answered through svc::acquireRun + svc::ProfileCache,
// fanned out with parallelFor over --jobs threads as the cluster_server
// example does: the stack a cluster server answering allocation queries
// would run (paper §9).
//
// Two phases over one query universe:
//   * cold   — every distinct query once; each is a full engine simulation;
//   * steady — thousands of queries drawn from the same universe by a
//     seeded generator; the cache serves them without touching the engine.
//
// Reported per phase: throughput plus p50/p99 per-query latency (each query
// times its own acquireRun call); plus the cache hit/miss/run counters.
// The [CHECK] claims pin the service-layer contract by counts, not wall
// time: the cold phase runs exactly one simulation per distinct query and
// the steady phase runs none; under --smoke the cache hit rate is pinned at
// its exact value.  The throughput ratio between the phases is printed, not
// gated.
#include <cmath>
#include <iostream>
#include <numeric>

#include "bench_common.hpp"
#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "sched/engine_run.hpp"
#include "support/rng.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

namespace {

/// The distinct queries the server answers: every (class, allocation)
/// profile point of the default cluster mix, plus the cluster_server
/// example's what-if sweep ("shrink to half after iteration q") over a few
/// job shapes.
std::vector<sched::EngineRunSpec> queryUniverse(bool smoke) {
  const sched::ProfileSettings settings;
  std::vector<sched::EngineRunSpec> universe;

  const std::int32_t nodes = smoke ? 4 : 8;
  for (const auto& klass : sched::Workload::defaultMix(nodes))
    for (std::int32_t alloc : sched::feasibleAllocations(klass, nodes))
      universe.push_back(sched::profileRunSpec(klass, alloc, settings));

  std::vector<lu::LuConfig> shapes;
  lu::LuConfig wi;
  wi.n = 648;
  wi.r = 162;
  wi.workers = 4;
  shapes.push_back(wi);
  if (!smoke) {
    wi.r = 81;
    wi.workers = 8;
    shapes.push_back(wi);
  }
  for (const auto& cfg : shapes)
    for (std::int64_t q = 0; q < cfg.levels() - 1; ++q)
      universe.push_back(sched::whatIfSpec(cfg, q, settings));
  return universe;
}

struct PhaseResult {
  std::size_t requests = 0;
  double seconds = 0;
  std::vector<double> latencySec; // per query, request order

  double qps() const { return seconds > 0 ? static_cast<double>(requests) / seconds : 0; }
  double percentileMs(double p) const {
    if (latencySec.empty()) return 0;
    auto sorted = latencySec;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        std::llround(p * static_cast<double>(sorted.size() - 1)));
    return sorted[idx] * 1e3;
  }
};

/// Answers `universe[queries[i]]` for every i over `jobs` threads; each
/// query times its own acquireRun call.
PhaseResult runPhase(svc::ProfileCache& cache, const std::vector<sched::EngineRunSpec>& universe,
                     const std::vector<std::size_t>& queries, unsigned jobs) {
  PhaseResult res;
  res.requests = queries.size();
  res.latencySec.assign(queries.size(), 0);
  const obs::WallClock phase;
  parallelFor(queries.size(), jobs, [&](std::size_t i) {
    const obs::WallClock query;
    svc::acquireRun(universe[queries[i]], cache);
    res.latencySec[i] = query.elapsedSec();
  });
  res.seconds = phase.elapsedSec();
  return res;
}

void phaseJson(JsonWriter& w, const PhaseResult& r) {
  w.beginObject()
      .field("requests", r.requests)
      .field("seconds", r.seconds)
      .field("qps", r.qps())
      .field("p50_ms", r.percentileMs(0.50))
      .field("p99_ms", r.percentileMs(0.99))
      .endObject();
}

} // namespace

int run(Cli& cli) {
  const bench::BenchArgs args(cli, /*withSmoke=*/true);
  const auto universe = queryUniverse(args.smoke);
  const std::size_t steadyCount = args.smoke ? 800 : 4000;

  // The whole service stack records into one registry: svc.cache.* from the
  // cache, engine.*/mall.* from the engine runs the cold phase executes.
  obs::Registry registry;
  svc::ProfileCache cache;
  cache.attachRegistry(&registry);

  std::printf("query universe: %zu distinct specs, %u service threads\n\n", universe.size(),
              args.jobs);

  // Cold phase: every distinct query once — all engine simulations.
  std::vector<std::size_t> distinct(universe.size());
  std::iota(distinct.begin(), distinct.end(), std::size_t{0});
  const auto cold = runPhase(cache, universe, distinct, args.jobs);
  const std::uint64_t coldRuns = cache.stats().engineRuns;

  // Steady phase: a seeded stream of repeat queries — all cache hits.
  Rng rng(20060425);
  std::vector<std::size_t> repeats(steadyCount);
  for (std::size_t& q : repeats) q = static_cast<std::size_t>(rng.below(universe.size()));
  const auto steady = runPhase(cache, universe, repeats, args.jobs);

  const auto cs = cache.stats();
  Table t("profile service under load (" + std::to_string(args.jobs) + " service threads)");
  t.header({"phase", "requests", "time [s]", "qps", "p50 [ms]", "p99 [ms]"});
  t.row({"cold (distinct)", std::to_string(cold.requests), Table::num(cold.seconds, 2),
         Table::num(cold.qps(), 1), Table::num(cold.percentileMs(0.50), 2),
         Table::num(cold.percentileMs(0.99), 2)});
  t.row({"steady (repeat)", std::to_string(steady.requests), Table::num(steady.seconds, 2),
         Table::num(steady.qps(), 1), Table::num(steady.percentileMs(0.50), 2),
         Table::num(steady.percentileMs(0.99), 2)});
  t.print(std::cout);
  std::printf("\ncache: %llu lookups, %llu engine runs, hit rate %.1f%%\n\n",
              static_cast<unsigned long long>(cs.lookups()),
              static_cast<unsigned long long>(cs.engineRuns), cs.hitRate() * 100.0);
  const double speedup = cold.qps() > 0 ? steady.qps() / cold.qps() : 0;
  std::printf("steady/cold throughput: %.1fx\n\n", speedup);

  check(coldRuns == universe.size(), "cold phase runs exactly one engine run per distinct query");
  check(cs.engineRuns == coldRuns,
        "steady phase executes zero new engine runs (all served from cache)");
  check(cs.hitRate() > 0, "cache hit rate is nonzero after the steady phase");
  if (args.smoke)
    check(cs.hitRate() == 0.984009840098401,
          "smoke cache hit rate pinned at 800 hits / 813 lookups");
  check(cold.qps() > 0 && steady.qps() > 0, "both phases report a positive throughput");
  const auto ordered = [](const PhaseResult& p) {
    return p.percentileMs(0.99) >= p.percentileMs(0.50) && p.percentileMs(0.50) > 0;
  };
  check(ordered(cold) && ordered(steady),
        "latency percentiles are reported and ordered in both phases (p99 >= p50 > 0)");

  const auto snap = registry.snapshot();
  check(snap.counter("svc.cache.hits") == cs.hits &&
            snap.counter("svc.cache.joined") == cs.joined &&
            snap.counter("svc.cache.misses") == cs.misses &&
            snap.counter("svc.cache.engine_runs") == cs.engineRuns,
        "obs registry cache counters agree with CacheStats exactly");

  return bench::finish("server_load", args, nullptr, [&](JsonWriter& w) {
    w.key("load").beginObject();
    w.field("universe", universe.size()).field("service_threads", args.jobs);
    w.key("cold");
    phaseJson(w, cold);
    w.key("steady");
    phaseJson(w, steady);
    w.field("speedup", speedup);
    w.key("cache")
        .beginObject()
        .field("hits", cs.hits)
        .field("joined", cs.joined)
        .field("misses", cs.misses)
        .field("engine_runs", cs.engineRuns)
        .field("hit_rate", cs.hitRate())
        .endObject();
    w.endObject();
    w.key("metrics");
    registry.snapshot().writeJson(w);
  });
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
