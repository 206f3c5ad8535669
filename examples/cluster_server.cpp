// Cluster-server study — the paper's future-work scenario (§9): "simulate
// a cluster server running concurrently multiple applications whose
// allocations of compute nodes vary dynamically over time".
//
// A queue of LU jobs arrives at a cluster.  Two admission policies:
//   * static    — every job holds its full allocation until it finishes;
//   * malleable — jobs release half their nodes after the iteration where
//     the simulator-predicted dynamic efficiency drops below a threshold,
//     so the next job can start earlier on the freed nodes.
//
// Per-iteration duration/efficiency profiles come from the DPS simulator.
// What-if queries ("release half the nodes after iteration k") are served
// through the svc::ProfileCache acquisition API on a shared simulation
// pool: every candidate shrink point is simulated concurrently
// (--pool-jobs), duplicate queries across a batch are cache hits, and the
// admission policy then just looks its answer up.  The job-level queueing
// itself runs on the same discrete-event kernel.
//
// Batch mode (--batch FILE) profiles a *heterogeneous* set of shrink
// queries concurrently on the same shared pool — one line per job, one
// result table per job.  Lines are `n=<int> r=<int> workers=<int>
// [threshold=<float>]`; blank lines and `#` comments are skipped:
//
//   $ ./examples/cluster_server --jobs=6 --nodes=16 --pool-jobs=8
//   $ ./examples/cluster_server --batch queries.txt --pool-jobs=8
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "des/scheduler.hpp"
#include "lu/builder.hpp"
#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sched/engine_run.hpp"
#include "sched/profile.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;

namespace {

/// Result of one what-if query: shrink to half the nodes after `iteration`.
struct WhatIf {
  std::int64_t iteration = 0; // 0 = never shrink
  double duration = 0;        // total runtime under this plan
  double shrinkAt = 0;        // when the released nodes actually free up
};

/// All what-if answers for one job configuration.
struct WhatIfSet {
  std::vector<WhatIf> answers; // [0] = static (never shrink)
  // Static run's per-iteration efficiency curve (marker value, efficiency).
  std::vector<std::int64_t> staticMarker;
  std::vector<double> staticEff;
};

/// Simulates "release workers/2 nodes after iteration k" for every candidate
/// k of every job on the shared pool, each run acquired through the profile
/// cache (duplicate queries in a batch simulate once).  The (job, candidate)
/// pairs of the whole — possibly heterogeneous — batch are flattened into
/// one index space, so small and large jobs interleave across the pool
/// instead of serializing per job.  answers[0] of each set is the static
/// run, whose per-iteration efficiency curve feeds the admission policy.
std::vector<WhatIfSet> evaluateWhatIfs(ThreadPool& pool, const std::vector<lu::LuConfig>& cfgs,
                                       svc::ProfileCache& cache,
                                       obs::TraceSink* trace = nullptr,
                                       const obs::WallClock* wall = nullptr) {
  const sched::ProfileSettings settings;
  struct Pair {
    std::size_t job;
    std::size_t q;
  };
  std::vector<WhatIfSet> sets(cfgs.size());
  std::vector<Pair> pairs;
  for (std::size_t j = 0; j < cfgs.size(); ++j) {
    sets[j].answers.resize(static_cast<std::size_t>(cfgs[j].levels() - 1));
    for (std::size_t q = 0; q < sets[j].answers.size(); ++q) pairs.push_back(Pair{j, q});
  }
  parallelFor(pool, pairs.size(), [&](std::size_t i) {
    const lu::LuConfig& cfg = cfgs[pairs[i].job];
    const std::size_t q = pairs[i].q;
    WhatIf& ans = sets[pairs[i].job].answers[q];
    ans.iteration = static_cast<std::int64_t>(q); // 0 = static
    // Wall-time span per what-if query: cache hits show up as near-zero
    // spans next to the full-simulation misses.
    const double spanStart = wall != nullptr ? wall->elapsedMicros() : 0;
    const auto rec = svc::acquireRun(sched::whatIfSpec(cfg, ans.iteration, settings), cache);
    if (trace != nullptr && wall != nullptr)
      trace->completeSpan("what-if", "svc", spanStart, wall->elapsedMicros() - spanStart, 0,
                          static_cast<std::int32_t>(pairs[i].job),
                          "{\"job\":" + std::to_string(pairs[i].job) +
                              ",\"shrink_after\":" + std::to_string(ans.iteration) + "}");
    ans.duration = rec.totalSec;
    ans.shrinkAt = ans.duration; // fallback: nodes free at completion
    if (ans.iteration >= 1) {
      for (const auto& a : rec.allocEvents) {
        if (a.nodes <= cfg.workers / 2) {
          ans.shrinkAt = a.timeSec;
          break;
        }
      }
    } else {
      sets[pairs[i].job].staticMarker = rec.phaseMarker;
      sets[pairs[i].job].staticEff = rec.phaseEff;
    }
  });
  return sets;
}

struct JobProfile {
  double staticDuration = 0;        // full-allocation runtime
  double malleableDuration = 0;     // runtime under the shrink plan
  double shrinkAt = 0;              // when half the nodes free up
  std::int64_t shrinkIteration = 0; // 0 = never
};

/// Picks the efficiency-driven shrink point from the precomputed what-ifs.
JobProfile profileJob(const WhatIfSet& set, const lu::LuConfig& cfg,
                      double efficiencyThreshold) {
  JobProfile profile;
  profile.staticDuration = set.answers[0].duration;

  // Find the first iteration whose dynamic efficiency drops below the
  // threshold — the earliest point where holding all nodes is wasteful.
  profile.shrinkIteration = 0;
  for (std::size_t i = 0; i < set.staticEff.size(); ++i) {
    if (set.staticEff[i] < efficiencyThreshold && set.staticMarker[i] + 1 < cfg.levels()) {
      profile.shrinkIteration = set.staticMarker[i];
      break;
    }
  }
  if (profile.shrinkIteration < 1) {
    profile.malleableDuration = profile.staticDuration;
    profile.shrinkAt = profile.staticDuration;
    return profile;
  }
  const auto& ans = set.answers[static_cast<std::size_t>(profile.shrinkIteration)];
  profile.malleableDuration = ans.duration;
  profile.shrinkAt = ans.shrinkAt;
  return profile;
}

/// Job-level cluster simulation: first-come-first-served over `nodes`.
struct ServiceResult {
  double makespan = 0;
  double meanWait = 0;
  double nodeSecondsUsed = 0;
};

ServiceResult serve(std::int32_t nodes, std::int32_t jobCount, std::int32_t jobNodes,
                    const JobProfile& profile, bool malleable) {
  des::Scheduler sched;
  std::int32_t freeNodes = nodes;
  std::vector<double> waits;
  std::int32_t started = 0;
  double nodeSeconds = 0;
  double lastEnd = 0;

  // FCFS launcher: starts the next job whenever enough nodes are free.
  std::function<void()> tryLaunch = [&] {
    while (started < jobCount && freeNodes >= jobNodes) {
      freeNodes -= jobNodes;
      ++started;
      waits.push_back(toSeconds(sched.now().time_since_epoch()));
      const double dur = malleable ? profile.malleableDuration : profile.staticDuration;
      if (malleable && profile.shrinkIteration >= 1) {
        nodeSeconds += jobNodes * profile.shrinkAt + (jobNodes / 2.0) * (dur - profile.shrinkAt);
        sched.scheduleAfter(seconds(profile.shrinkAt), [&] {
          freeNodes += jobNodes / 2;
          tryLaunch();
        });
        sched.scheduleAfter(seconds(dur), [&] {
          freeNodes += jobNodes - jobNodes / 2;
          lastEnd = toSeconds(sched.now().time_since_epoch());
          tryLaunch();
        });
      } else {
        nodeSeconds += static_cast<double>(jobNodes) * dur;
        sched.scheduleAfter(seconds(dur), [&] {
          freeNodes += jobNodes;
          lastEnd = toSeconds(sched.now().time_since_epoch());
          tryLaunch();
        });
      }
    }
  };
  tryLaunch();
  sched.run();

  ServiceResult res;
  res.makespan = lastEnd;
  double sum = 0;
  for (double w : waits) sum += w;
  res.meanWait = waits.empty() ? 0 : sum / static_cast<double>(waits.size());
  res.nodeSecondsUsed = nodeSeconds;
  return res;
}

/// One line of a --batch file: an LU shrink query at its own size/allocation.
struct BatchQuery {
  lu::LuConfig cfg;
  double threshold = 0.35;
};

/// Parses `n=.. r=.. workers=.. [threshold=..]` lines; '#' starts a comment.
std::vector<BatchQuery> readBatchFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot read batch file " + path);
  std::vector<BatchQuery> queries;
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string token;
    BatchQuery q;
    q.cfg.n = 0;
    bool any = false;
    while (ls >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos)
        throw ConfigError(path + ":" + std::to_string(lineNo) + ": expected key=value, got '" +
                          token + "'");
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      const std::string where = path + ":" + std::to_string(lineNo) + ": ";
      if (key == "threshold") {
        const auto t = parseNumber(value);
        if (!t) throw ConfigError(where + "bad value for '" + key + "'");
        q.threshold = *t;
      } else if (key == "n" || key == "r" || key == "workers") {
        const auto v = parseInteger(value);
        if (!v || *v < INT32_MIN || *v > INT32_MAX)
          throw ConfigError(where + "bad value for '" + key + "'");
        (key == "n" ? q.cfg.n : key == "r" ? q.cfg.r : q.cfg.workers) =
            static_cast<std::int32_t>(*v);
      } else {
        throw ConfigError(where + "unknown key '" + key + "'");
      }
      any = true;
    }
    if (!any) continue; // blank / comment-only line
    if (q.cfg.n <= 0) throw ConfigError(path + ":" + std::to_string(lineNo) + ": missing n=");
    q.cfg.validate();
    if (q.cfg.workers < 2)
      throw ConfigError(path + ":" + std::to_string(lineNo) + ": shrink needs workers >= 2");
    queries.push_back(q);
  }
  if (queries.empty()) throw ConfigError("batch file " + path + " contains no queries");
  return queries;
}

/// Prints one job's what-if table and returns its efficiency-driven pick.
JobProfile reportJob(const std::string& title, const WhatIfSet& set, const lu::LuConfig& cfg,
                     double threshold) {
  Table w(title);
  w.header({"shrink after it.", "runtime [s]", "vs static", "nodes freed at [s]"});
  for (const auto& a : set.answers) {
    if (a.iteration == 0) {
      w.row({"never (static)", Table::num(a.duration, 1), "-", "-"});
    } else {
      w.row({std::to_string(a.iteration), Table::num(a.duration, 1),
             Table::pct(a.duration / set.answers[0].duration - 1, 1),
             Table::num(a.shrinkAt, 1)});
    }
  }
  w.print(std::cout);

  const JobProfile profile = profileJob(set, cfg, threshold);
  std::printf("  static runtime    : %.1fs\n", profile.staticDuration);
  if (profile.shrinkIteration >= 1) {
    std::printf("  efficiency < %.0f%% after iteration %lld -> release %d nodes at t=%.1fs\n",
                threshold * 100.0, static_cast<long long>(profile.shrinkIteration),
                cfg.workers / 2, profile.shrinkAt);
    std::printf("  malleable runtime : %.1fs (+%.1f%%)\n\n", profile.malleableDuration,
                (profile.malleableDuration / profile.staticDuration - 1) * 100.0);
  } else {
    std::printf("  efficiency never drops below %.0f%%: no shrink point chosen\n\n",
                threshold * 100.0);
  }
  return profile;
}

} // namespace

int run(Cli& cli) {
  // 12 nodes + 8-node jobs: a fresh job never fits next to a running one,
  // but two half-released jobs free enough capacity — the configuration
  // where malleability pays off most visibly.
  const auto nodes = static_cast<std::int32_t>(cli.integer("nodes", 12, "cluster size"));
  const auto jobCount = static_cast<std::int32_t>(cli.integer("jobs", 6, "queued LU jobs"));
  const auto jobNodes = static_cast<std::int32_t>(cli.integer("job-nodes", 8, "nodes per job"));
  const double threshold = cli.real("threshold", 0.35, "efficiency threshold for shrinking");
  const unsigned poolJobs =
      cli.jobs("pool-jobs", "concurrent what-if simulations (0 = hardware concurrency)");
  const std::string batchPath =
      cli.str("batch", "", "file of heterogeneous shrink queries (one n=/r=/workers= line each)");
  Artifact& metricsOut =
      cli.artifact("metrics", "write the obs registry snapshot (svc.cache.*, engine.*, mall.*) "
                              "to this JSON file");
  Artifact& traceOut =
      cli.artifact("trace", "write a Chrome trace-event JSON of the what-if queries (wall "
                            "time) to this file");
  if (jobCount < 1 || jobNodes < 2 || jobNodes > nodes)
    throw ConfigError("need --jobs >= 1 and 2 <= --job-nodes <= --nodes");
  const auto queries = batchPath.empty() ? std::vector<BatchQuery>{} : readBatchFile(batchPath);
  cli.finish();

  // The caller participates in pool sweeps, so poolJobs - 1 workers give
  // exactly poolJobs concurrent simulations (a worker-less pool runs inline).
  ThreadPool pool(poolJobs - 1);
  svc::ProfileCache cache;

  // Observability: the cache records svc.cache.* (and the engine runs it
  // executes record engine.*/mall.*) into the registry; each what-if query
  // gets a wall-time trace span.  Both disabled unless a flag asked.
  obs::Registry registry;
  obs::TraceSink trace;
  const obs::WallClock wall;
  obs::TraceSink* const traceSink = traceOut ? &trace : nullptr;
  cache.attachRegistry(metricsOut ? &registry : nullptr);
  if (traceSink != nullptr) trace.processName(0, "cluster_server what-if pool");
  const auto writeObs = [&] {
    if (metricsOut) metricsOut.stream() << registry.jsonString() << "\n";
    if (traceSink != nullptr) trace.write(traceOut.stream());
    return 0;
  };

  if (!queries.empty()) {
    // Batch what-if mode: profile every query of the file concurrently on
    // the shared pool, then report one table per job.
    std::vector<lu::LuConfig> cfgs;
    std::size_t candidates = 0;
    for (const auto& q : queries) {
      cfgs.push_back(q.cfg);
      candidates += static_cast<std::size_t>(q.cfg.levels() - 1);
    }
    std::printf("batch what-if pool: %zu jobs, %zu candidate shrink points, %u concurrent "
                "simulations\n\n",
                queries.size(), candidates, poolJobs);
    const auto sets = evaluateWhatIfs(pool, cfgs, cache, traceSink, &wall);
    for (std::size_t j = 0; j < queries.size(); ++j) {
      const lu::LuConfig& cfg = cfgs[j];
      reportJob("job " + std::to_string(j) + ": " + std::to_string(cfg.n) + "x" +
                    std::to_string(cfg.n) + " r=" + std::to_string(cfg.r) + " on " +
                    std::to_string(cfg.workers) + " nodes",
                sets[j], cfg, queries[j].threshold);
    }
    const auto cs = cache.stats();
    std::printf("what-if cache: %llu queries, %llu simulations (%.0f%% served from cache)\n",
                static_cast<unsigned long long>(cs.lookups()),
                static_cast<unsigned long long>(cs.engineRuns), cs.hitRate() * 100.0);
    return writeObs();
  }

  lu::LuConfig cfg;
  cfg.n = 2592;
  cfg.r = 324;
  cfg.workers = jobNodes;

  std::printf("what-if pool: simulating %d candidate shrink points for one LU job\n",
              cfg.levels() - 1);
  std::printf("(%dx%d, r=%d, %d nodes; %u concurrent simulations)\n", cfg.n, cfg.n, cfg.r,
              jobNodes, poolJobs);
  const auto sets = evaluateWhatIfs(pool, {cfg}, cache, traceSink, &wall);
  const JobProfile profile = reportJob({}, sets[0], cfg, threshold);

  const auto staticRes = serve(nodes, jobCount, jobNodes, profile, false);
  const auto mallRes = serve(nodes, jobCount, jobNodes, profile, true);

  std::printf("\ncluster of %d nodes serving %d queued jobs of %d nodes each:\n\n", nodes,
              jobCount, jobNodes);
  Table t;
  t.header({"policy", "all jobs done [s]", "mean job wait [s]", "node-seconds used"});
  t.row({"static allocations", Table::num(staticRes.makespan, 1),
         Table::num(staticRes.meanWait, 1), Table::num(staticRes.nodeSecondsUsed, 0)});
  t.row({"malleable (efficiency-driven)", Table::num(mallRes.makespan, 1),
         Table::num(mallRes.meanWait, 1), Table::num(mallRes.nodeSecondsUsed, 0)});
  t.print(std::cout);
  std::printf("\nservice-rate gain from malleability: %.1f%% (paper §8: \"the service rate\n"
              "of the cluster can be significantly increased\")\n",
              (staticRes.makespan / mallRes.makespan - 1.0) * 100.0);
  return writeObs();
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
