// perfbench — one repetition of a benchmark workload, run in a fresh
// process so that its peak resident memory is its own.
//
//   perfbench rep --workload profile-scaled|cluster-loop|explore-oracle
//                 --seed N [--traced] [--trace-out FILE] [--smoke]
//   perfbench calib                                       (host probe, ms)
//   perfbench survey --first A --last B [--with-verify]   (explorer problem costs)
//
// A rep times the workload's set-up, then its timed phase (the "op": the
// calls into the simulator's libraries a user's command makes), and prints
// one JSON object as its last stdout line: timings, the op's size in input
// units, peak RSS, correctness checks, and FNV-1a digests of every
// simulated output.  The host probe runs in a process of its own so that
// its buffer stays out of the rep's peak RSS.  perfbench/run.py repeats reps,
// compares the digests with perfbench/pinned.json and across reps, and
// reports medians.
//
// With --traced the rep records host-time spans around every call into a
// layer (svc, sched, engine, explore) plus the counts those calls return,
// and prints the per-layer metrics.  Traced reps must produce the same
// digests as untraced ones: every span and counter is a read-only tap.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "lu/builder.hpp"
#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "sched/cluster.hpp"
#include "sched/explore.hpp"
#include "sched/replay.hpp"
#include "spans.hpp"
#include "support/fingerprint.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "svc/profile_cache.hpp"

using namespace dps;
using perfbench::Scope;

namespace {

// ------------------------------------------------------------ rep record --

/// Fixed work, timed by `perfbench calib` before each rep, so host
/// slowdowns can be told apart from program slowdowns: four independent
/// integer chains (core speed and issue width, which a busy sibling
/// hyperthread takes) plus a chain of dependent loads over 16 MiB, twice
/// the L2 (cache and memory contention).
volatile std::uint64_t g_calibRounds = 10'000'000;
volatile std::uint64_t g_calibSink = 0;

double hostCalibrationMs() {
  constexpr std::uint32_t kMask = (1u << 22) - 1;
  // A full-period LCG modulo 2^22, so the chase visits every slot in an
  // order the prefetchers cannot follow.
  std::vector<std::uint32_t> next(kMask + 1);
  for (std::uint32_t i = 0; i <= kMask; ++i) next[i] = (i * 2891336453u + 12345u) & kMask;
  const obs::WallClock clock;
  std::uint64_t x[4] = {1, 2, 3, 4};
  for (std::uint64_t i = 0, n = g_calibRounds / 2; i < n; ++i) {
    for (std::uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  std::uint32_t at = 0;
  for (std::uint64_t i = 0, n = g_calibRounds / 100; i < n; ++i) at = next[at];
  g_calibSink = x[0] + x[1] + x[2] + x[3] + at;
  return clock.elapsedSec() * 1e3;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct Metric {
  double value = 0;
  std::string unit;
  bool exact = false; // a count every rep of the same inputs must repeat
};

/// Everything one rep reports.
struct Rep {
  explicit Rep(bool traced) : rec(traced) {}

  perfbench::Recorder rec;
  bool smoke = false;
  std::uint64_t seed = 1;

  obs::WallClock setupClock; // set-up runs from construction to ready()
  double setupSec = 0;
  double wallSec = 0;
  double units = 0; // work done by the op, in input units
  int opSpan = -1;
  std::vector<std::pair<std::string, bool>> checks;
  /// Digests of outputs that depend on the benchmark seed, and of outputs
  /// that do not (pinned once for every seed).
  std::map<std::string, std::string> seedDigests, fixedDigests;
  std::map<std::string, Metric> layers;

  bool traced() const { return rec.enabled(); }
  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void digest(const std::string& name, std::uint64_t value, bool seedIndependent = false) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
    (seedIndependent ? fixedDigests : seedDigests)[name] = buf;
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit, false};
  }
  void count(const std::string& name, double value, const std::string& unit = "count") {
    layers[name] = Metric{value, unit, true};
  }

  /// Ends set-up: the inputs are ready.
  void ready() { setupSec = setupClock.elapsedSec(); }

  /// Runs `body` as the timed phase under the root span "bench:op".
  template <class F> void timed(F&& body) {
    const obs::WallClock clock;
    {
      Scope op(rec, "bench:op");
      opSpan = op.id();
      body();
    }
    wallSec = traced() ? rec.durationSec(opSpan) : clock.elapsedSec();
  }

  /// Per-layer self times of the op; they must add up to the traced wall.
  void layerSelfTimes() {
    double sum = 0;
    for (const auto& [layer, sec] : perfbench::layerSelfSec(rec.spans(), opSpan)) {
      this->layer("self_s." + layer, sec, "s");
      sum += sec;
    }
    check("trace-self-times-sum-to-wall", std::abs(sum - wallSec) <= 1e-9 * (1 + wallSec));
  }
};

std::uint64_t hashString(std::string_view s) { return Fingerprint().add(s).value(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Digest of a profile table: every class's allocations and phase arrays
/// plus the build's engine-run accounting.
std::uint64_t tableDigest(const sched::JobProfileTable& t) {
  Fingerprint fp;
  fp.add(static_cast<std::uint64_t>(t.buildInfo().engineRunPoints))
      .add(static_cast<std::uint64_t>(t.buildInfo().profiledAllocs));
  for (std::size_t c = 0; c < t.classCount(); ++c) {
    const sched::ClassProfile& cp = t.of(c);
    fp.add(cp.name).add(cp.stateBytes).add(cp.stateShrinks);
    for (std::size_t a = 0; a < cp.allocs.size(); ++a) {
      const sched::PhaseProfile& p = cp.byAlloc[a];
      fp.add(cp.allocs[a]).add(p.nodes).add(p.totalSec);
      for (double s : p.phaseSec) fp.add(s);
      for (double e : p.phaseEff) fp.add(e);
    }
  }
  return fp.value();
}

const sched::ProfileSettings kSettings{};

// -------------------------------------------------------- profile-scaled --

/// Which workload class an engine-run spec belongs to (by app geometry).
std::string classOf(const std::vector<sched::JobClass>& classes, const sched::EngineRunSpec& s) {
  for (const sched::JobClass& k : classes) {
    if (k.app != s.app) continue;
    if (s.app == sched::AppKind::Lu ? k.lu.n == s.lu.n && k.lu.r == s.lu.r
                                    : k.jacobi.rows == s.jacobi.rows &&
                                          k.jacobi.cols == s.jacobi.cols)
      return k.name;
  }
  return "other";
}

/// The acquisition-and-replay path of
/// `dps_cluster --nodes 512 --mix scaled --policy efficiency-shrink --replay --jobs 1`.
void profileScaled(Rep& r) {
  const std::int32_t nodes = r.smoke ? 8 : 512;
  sched::WorkloadConfig wcfg;
  wcfg.seed = r.seed;
  wcfg.jobCount = 12;
  wcfg.classes = sched::Workload::scaledMix(nodes);
  const sched::Workload wl = sched::Workload::generate(wcfg, nodes);
  r.ready();

  // Traced reps time each runner call: engine runs on a cache miss, hits
  // otherwise.  The build goes through `runner` either way, which is what
  // svc::buildProfileTable does with svc::cachedRunner(cache).
  obs::Registry registry;
  std::map<std::string, std::vector<double>> missMs;
  double missSimSec = 0, missHostSec = 0;
  std::unique_ptr<sched::JobProfileTable> table;
  std::string metricsJson, replayJson;
  svc::CacheStats stats;
  int buildSpan = -1, clusterSpan = -1, replaySpan = -1;

  r.timed([&] {
    svc::ProfileCache cache;
    sched::EngineRunFn runner = svc::cachedRunner(cache);
    if (r.traced()) {
      cache.attachRegistry(&registry);
      runner = [&, inner = runner](const sched::EngineRunSpec& spec) {
        const std::uint64_t before = cache.stats().engineRuns;
        Scope s(r.rec, "engine:run");
        sched::EngineRunRecord rec = inner(spec);
        const double sec = s.stop();
        if (cache.stats().engineRuns == before) {
          r.rec.rename(s.id(), "svc:cache-hit");
        } else {
          missMs[classOf(wl.cfg.classes, spec)].push_back(sec * 1e3);
          missSimSec += rec.totalSec;
          missHostSec += sec;
        }
        return rec;
      };
    }
    sched::ProfileBuildOptions popts;
    popts.interpolate = true;
    Scope build(r.rec, "svc:buildProfileTable");
    buildSpan = build.id();
    table = std::make_unique<sched::JobProfileTable>(
        sched::JobProfileTable::build(wl.cfg.classes, nodes, kSettings, 1, runner, popts));
    build.stop();

    const auto ccfg = sched::ClusterConfig::fromProfile(kSettings.platform, nodes);
    sched::EfficiencyShrink policy(0.5);
    Scope cluster(r.rec, "sched:simulateCluster");
    clusterSpan = cluster.id();
    const sched::ClusterMetrics metrics = sched::simulateCluster(ccfg, wl, *table, policy);
    cluster.stop();

    sched::ReplaySettings rs;
    rs.engine = kSettings;
    rs.jobs = 1;
    rs.runner = runner;
    Scope replay(r.rec, "sched:replaySchedule");
    replaySpan = replay.id();
    const sched::ReplayReport report = sched::replaySchedule(metrics, wl, *table, rs);
    replay.stop();

    Scope json(r.rec, "sched:jsonString");
    metricsJson = metrics.jsonString();
    replayJson = report.jsonString();
    json.stop();
    stats = cache.stats();
  });
  r.units = static_cast<double>(table->buildInfo().profiledAllocs);
  r.digest("profile-table", tableDigest(*table), true);
  r.digest("cluster-metrics", hashString(metricsJson));
  r.digest("replay-report", hashString(replayJson));
  if (!r.traced()) return;

  r.layerSelfTimes();
  r.layer("svc.build_s", r.rec.durationSec(buildSpan), "s");
  r.count("svc.engine_runs", static_cast<double>(stats.engineRuns));
  r.count("svc.lookups", static_cast<double>(stats.lookups()));
  r.count("svc.hit_rate", stats.hitRate(), "ratio");
  r.layer("sched.interp_self_s", perfbench::selfTimesUs(r.rec.spans())[buildSpan] * 1e-6, "s");
  r.layer("sched.cluster_s", r.rec.durationSec(clusterSpan), "s");
  r.layer("sched.replay_s", r.rec.durationSec(replaySpan), "s");
  const auto snap = registry.snapshot();
  r.count("mall.migrated_mb",
          static_cast<double>(snap.counter("mall.shrink_bytes") + snap.counter("mall.grow_bytes")) /
              1e6,
          "MB");
  for (const sched::JobClass& k : wl.cfg.classes)
    r.layer("engine.run_ms." + k.name, median(missMs[k.name]), "ms");
  r.layer("engine.sim_s_per_host_s", missHostSec > 0 ? missSimSec / missHostSec : 0, "ratio");

  // Program construction versus engine time for the lu-band anchors, run
  // directly (outside the op) so RunCounters pin the simulated work.
  // They must reproduce the table's anchor makespans bit for bit.
  const sched::JobClass& band = wl.cfg.classes.front();
  const sched::ClassProfile& bandProfile = table->of(0);
  const auto anchors = sched::InterpolatedProfile::pickAnchors(
      bandProfile.allocs, sched::InterpolatedProfile::autoAnchorCount(bandProfile.allocs.size()));
  Scope probe(r.rec, "probe:lu-band-anchors");
  double buildSec = 0, runSec = 0;
  core::RunCounters total;
  bool match = true;
  for (const std::int32_t a : anchors) {
    const sched::EngineRunSpec spec = sched::profileRunSpec(band, a, kSettings);
    Scope buildScope(r.rec, "lu:buildLu");
    const lu::LuBuild build = lu::buildLu(spec.lu, spec.luModel, spec.config.allocatePayloads);
    buildSec += buildScope.stop();
    flow::Program prog;
    prog.graph = build.graph.get();
    prog.deployment =
        flow::Deployment::roundRobin(*build.graph, {spec.lu.workers}, spec.lu.workers);
    prog.inputs = build.inputs;
    core::SimEngine engine(spec.config);
    Scope runScope(r.rec, "core:run");
    const core::RunResult run = engine.run(prog);
    runSec += runScope.stop();
    total.steps += run.counters.steps;
    total.messages += run.counters.messages;
    total.networkBytes += run.counters.networkBytes;
    match = match && toSeconds(run.makespan) == bandProfile.at(a).totalSec;
  }
  r.check("lu-band-anchors-match-profile-table", match);
  r.layer("lu.build_ms", buildSec * 1e3, "ms");
  r.layer("core.run_ms", runSec * 1e3, "ms");
  r.count("core.steps", static_cast<double>(total.steps));
  r.count("core.messages", static_cast<double>(total.messages));
  r.count("net.bytes", static_cast<double>(total.networkBytes), "bytes");
  r.layer("core.steps_per_s", runSec > 0 ? static_cast<double>(total.steps) / runSec : 0, "1/s");
}

// ---------------------------------------------------------- cluster-loop --

constexpr double kClusterRate = 45.0;
/// Report timelines are down-sampled as `dps_cluster --timeline-max 1000` does.
constexpr std::int32_t kTimelinePoints = 1000;

/// The loop stage of `dps_cluster --nodes 1024 --backfill --jobs 1` on the
/// default mix: every policy over one seeded Poisson stream, EASY backfill
/// at unlimited depth, each result rendered to its report JSON.
void clusterLoop(Rep& r) {
  const std::int32_t nodes = r.smoke ? 64 : 1024;
  const obs::WallClock genClock;
  sched::WorkloadConfig wcfg;
  wcfg.seed = r.seed;
  wcfg.jobCount = r.smoke ? 2000 : 60000;
  wcfg.arrivalRatePerSec = r.smoke ? kClusterRate / 16 : kClusterRate;
  const sched::Workload wl = sched::Workload::generate(wcfg, nodes);
  const double genSec = genClock.elapsedSec();
  const obs::WallClock buildClock;
  svc::ProfileCache cache;
  const auto table = svc::buildProfileTable(wl.cfg.classes, nodes, kSettings, 1, cache);
  const double buildSec = buildClock.elapsedSec();
  r.ready();
  r.digest("profile-table", tableDigest(table), true);

  obs::Registry registry;
  const auto policies = sched::policyNames();
  std::vector<std::string> reports(policies.size());
  std::vector<sched::ClusterMetrics> results(policies.size());
  std::vector<double> loopSec(policies.size(), 0);
  double reportSec = 0;
  std::int32_t queuedMax = 0;
  r.timed([&] {
    for (std::size_t i = 0; i < policies.size(); ++i) {
      auto ccfg = sched::ClusterConfig::fromProfile(kSettings.platform, nodes);
      ccfg.easyBackfill = true;
      ccfg.backfillDepth = 0;
      if (r.traced()) {
        ccfg.metrics = &registry;
        ccfg.metricsPrefix = "cluster." + policies[i] + ".";
        if (policies[i] == "fcfs-rigid") {
          ccfg.progressEvery = 1000;
          ccfg.onProgress = [&](const sched::ClusterProgress& p) {
            queuedMax = std::max(queuedMax, p.queuedJobs);
          };
        }
      }
      auto policy = sched::makePolicy(policies[i]);
      Scope loop(r.rec, "sched:simulateCluster." + policies[i]);
      results[i] = sched::simulateCluster(ccfg, wl, table, *policy);
      loopSec[i] = loop.stop();
      Scope json(r.rec, "sched:jsonString");
      reports[i] = results[i].jsonString(kTimelinePoints);
      reportSec += json.stop();
    }
  });
  r.units = static_cast<double>(wl.jobs.size() * policies.size());
  for (std::size_t i = 0; i < policies.size(); ++i) {
    r.digest("metrics." + policies[i], hashString(reports[i]));
    r.check("all-jobs-finished." + policies[i], results[i].jobs.size() == wl.jobs.size());
  }
  if (!r.traced()) return;

  r.layerSelfTimes();
  const auto snap = registry.snapshot();
  r.layer("sched.report_s", reportSec, "s");
  r.layer("sched.workload_gen_s", genSec, "s");
  r.layer("svc.setup_build_s", buildSec, "s");
  r.count("sched.queued_max.fcfs-rigid", queuedMax);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::string& p = policies[i];
    const auto& m = results[i];
    const double sec = loopSec[i];
    r.layer("sched.loop_s." + p, sec, "s");
    r.count("sched.events." + p, static_cast<double>(m.events));
    r.layer("sched.events_per_s." + p, sec > 0 ? static_cast<double>(m.events) / sec : 0, "1/s");
    r.count("sched.backfill_fires." + p, m.backfillFires);
    r.count("sched.reallocations." + p, m.reallocations);
    r.count("des.queue_high_water." + p, snap.gauge("cluster." + p + ".des.queue_high_water"));
  }
}

// -------------------------------------------------------- explore-oracle --

constexpr std::int32_t kExploreNodes = 8;
constexpr std::int32_t kExploreJobs = 5;
constexpr double kExploreRate = 20.0;

/// Explorer problem seeds 1-80, sorted by the host time of their two
/// optimality searches (`perfbench survey --first 1 --last 80`, best of
/// three) and cut into strata of six.  A benchmark seed picks one problem
/// per stratum, so every seed's set costs about the same.  The eight seeds
/// whose searches cost over 2.5x the median (4, 5, 14, 17, 18, 33, 46, 70;
/// up to 6x) are left out.
const std::vector<std::vector<std::uint64_t>> kExploreStrata = {
    {37, 24, 58, 80, 35, 36}, // 0.09-0.16 s
    {34, 7, 10, 2, 30, 1},    // 0.16-0.19 s
    {74, 61, 13, 21, 29, 11}, // 0.20 s
    {53, 77, 78, 47, 71, 6},  // 0.21-0.23 s
    {73, 19, 59, 72, 32, 16}, // 0.23-0.24 s
    {64, 76, 22, 51, 69, 44}, // 0.24-0.25 s
    {26, 25, 40, 43, 28, 60}, // 0.26-0.31 s
    {52, 65, 38, 20, 56, 39}, // 0.31-0.35 s
    {55, 66, 23, 41, 8, 63},  // 0.35-0.44 s
    {3, 57, 62, 31, 15, 27},  // 0.45-0.51 s
    {9, 12, 67, 48, 68, 50},  // 0.51-0.63 s
    {54, 79, 42, 75, 49, 45}, // 0.63-0.67 s
};
/// Problems whose first three jobs span a verifySpace walk of ~860k states
/// (`survey --with-verify`); other prefixes range from 231k to 11.6M.
const std::vector<std::uint64_t> kVerifyPool = {2, 3, 8, 12, 24, 27, 35, 37, 48};

sched::Workload exploreProblem(std::uint64_t problemSeed, std::int32_t jobs) {
  sched::WorkloadConfig wcfg;
  wcfg.seed = problemSeed;
  wcfg.jobCount = jobs;
  wcfg.arrivalRatePerSec = kExploreRate;
  wcfg.classes = sched::exploreMix(kExploreNodes);
  return sched::Workload::generate(wcfg, kExploreNodes);
}

/// The five policy configurations dps_explore --optimality scores, run on
/// one problem, and the best makespan / mean slowdown among them as the
/// searches' upper bounds.
struct PolicyRuns {
  std::vector<sched::ClusterMetrics> runs;
  sched::ExploreLimits makespan, slowdown;
};

PolicyRuns runPolicies(const sched::ClusterConfig& ccfg, const sched::Workload& wl,
                       const sched::JobProfileTable& table) {
  PolicyRuns out;
  out.makespan.upperBound = out.slowdown.upperBound = 1e300;
  for (const auto& [name, backfill] : std::vector<std::pair<std::string, bool>>{
           {"fcfs-rigid", false},
           {"fcfs-rigid", true},
           {"equipartition", false},
           {"efficiency-shrink", false},
           {"grow-eager", false}}) {
    auto policy = sched::makePolicy(name);
    auto cc = ccfg;
    cc.easyBackfill = backfill;
    out.runs.push_back(sched::simulateCluster(cc, wl, table, *policy));
    out.makespan.upperBound = std::min(out.makespan.upperBound, out.runs.back().makespanSec);
    out.slowdown.upperBound = std::min(out.slowdown.upperBound, out.runs.back().meanSlowdown);
  }
  return out;
}

std::uint64_t optimumDigest(const sched::ExploreResult& res) {
  Fingerprint fp;
  fp.add(res.found).add(res.bestObjective).add(res.makespanSec).add(res.meanSlowdown);
  for (const sched::ExploreDecision& d : res.trace)
    fp.add(d.timeNs).add(d.job).add(static_cast<std::int32_t>(d.kind)).add(d.fromNodes)
        .add(d.toNodes).add(d.phase);
  return fp.value();
}

struct ProblemOutcome {
  std::uint64_t seed = 0;
  sched::ExploreResult mk, sl;
  bool replayed = false;
  bool neverBeaten = true;
};

/// `dps_explore --optimality` over a seed-selected problem set, plus one
/// exhaustive verifySpace walk.
void exploreOracle(Rep& r) {
  const obs::WallClock buildClock;
  svc::ProfileCache cache;
  const auto classes = sched::exploreMix(kExploreNodes);
  const auto table = svc::buildProfileTable(classes, kExploreNodes, kSettings, 1, cache);
  const double buildSec = buildClock.elapsedSec();
  Rng pick(r.seed ^ 0x5EEDF00Dull);
  std::vector<std::uint64_t> seeds;
  for (const auto& stratum : kExploreStrata) {
    seeds.push_back(stratum[pick() % stratum.size()]);
    if (r.smoke) break;
  }
  const std::uint64_t verifySeed = kVerifyPool[pick() % kVerifyPool.size()];
  const auto ccfg = sched::ClusterConfig::fromProfile(kSettings.platform, kExploreNodes);
  // The policy runs give each search its upper bound, as in dps_explore.
  std::vector<sched::Workload> problems;
  std::vector<PolicyRuns> bounds;
  for (std::uint64_t s : seeds) {
    problems.push_back(exploreProblem(s, r.smoke ? 4 : kExploreJobs));
    bounds.push_back(runPolicies(ccfg, problems.back(), table));
  }
  const sched::Workload verifyWl = exploreProblem(verifySeed, r.smoke ? 2 : 3);
  r.ready();
  r.digest("profile-table", tableDigest(table), true);

  std::vector<ProblemOutcome> out(problems.size());
  sched::VerifyReport verify;
  double optimalSec[2] = {0, 0};
  double replaySec = 0;
  int verifySpan = -1;
  r.timed([&] {
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const sched::Workload& wl = problems[i];
      ProblemOutcome& o = out[i];
      o.seed = seeds[i];
      const PolicyRuns& pr = bounds[i];
      Scope mkScope(r.rec, "explore:exploreOptimal.makespan");
      o.mk = sched::exploreOptimal(ccfg, wl, table, sched::ExploreObjective::Makespan, pr.makespan);
      optimalSec[0] += mkScope.stop();
      Scope slScope(r.rec, "explore:exploreOptimal.mean-slowdown");
      o.sl = sched::exploreOptimal(ccfg, wl, table, sched::ExploreObjective::MeanSlowdown,
                                   pr.slowdown);
      optimalSec[1] += slScope.stop();
      Scope replayScope(r.rec, "explore:replayTrace");
      const auto mkR = sched::replayTrace(ccfg, wl, table, o.mk.trace);
      const auto slR = sched::replayTrace(ccfg, wl, table, o.sl.trace);
      replaySec += replayScope.stop();
      o.replayed = mkR.makespanSec == o.mk.makespanSec && mkR.meanSlowdown == o.mk.meanSlowdown &&
                   slR.makespanSec == o.sl.makespanSec && slR.meanSlowdown == o.sl.meanSlowdown;
      for (const auto& m : pr.runs)
        o.neverBeaten = o.neverBeaten && o.mk.makespanSec <= m.makespanSec + 1e-9 &&
                        o.sl.meanSlowdown <= m.meanSlowdown + 1e-9;
    }
    Scope s(r.rec, "explore:verifySpace");
    verifySpan = s.id();
    verify = sched::verifySpace(ccfg, verifyWl, table);
  });
  r.units = static_cast<double>(problems.size());

  sched::ExploreStats sum;
  for (const ProblemOutcome& o : out) {
    const std::string tag = "problem." + std::to_string(o.seed);
    r.check(tag + ".complete", o.mk.found && o.mk.stats.complete && o.sl.found &&
                                   o.sl.stats.complete);
    r.check(tag + ".replay-bit-identical", o.replayed);
    r.check(tag + ".optimum-never-beaten", o.neverBeaten);
    r.digest(tag + ".makespan", optimumDigest(o.mk), true);
    r.digest(tag + ".mean-slowdown", optimumDigest(o.sl), true);
    for (const auto* st : {&o.mk.stats, &o.sl.stats}) {
      sum.statesExplored += st->statesExplored;
      sum.statesDeduped += st->statesDeduped;
      sum.branchesPruned += st->branchesPruned;
      sum.schedulesSeen += st->schedulesSeen;
    }
  }
  r.check("verify." + std::to_string(verifySeed) + ".pass",
          verify.pass() && verify.stats.complete);
  Fingerprint vf;
  vf.add(verify.stats.statesExplored).add(static_cast<std::uint64_t>(verify.violations.size()));
  for (std::uint64_t c : verify.checks) vf.add(c);
  r.digest("verify." + std::to_string(verifySeed), vf.value(), true);
  if (!r.traced()) return;

  r.layerSelfTimes();
  r.layer("svc.setup_build_s", buildSec, "s");
  r.layer("explore.optimal_s.makespan", optimalSec[0], "s");
  r.layer("explore.optimal_s.mean-slowdown", optimalSec[1], "s");
  r.count("explore.states", static_cast<double>(sum.statesExplored));
  r.count("explore.pruned", static_cast<double>(sum.branchesPruned));
  r.count("explore.deduped", static_cast<double>(sum.statesDeduped));
  r.count("explore.schedules", static_cast<double>(sum.schedulesSeen));
  const double tried = static_cast<double>(sum.statesExplored + sum.branchesPruned);
  r.count("explore.prune_frac", tried > 0 ? static_cast<double>(sum.branchesPruned) / tried : 0,
          "ratio");
  const double optSec = optimalSec[0] + optimalSec[1];
  r.layer("explore.states_per_s", optSec > 0 ? static_cast<double>(sum.statesExplored) / optSec : 0,
          "1/s");
  r.layer("explore.replay_ms", replaySec * 1e3, "ms");
  r.layer("explore.verify_s", r.rec.durationSec(verifySpan), "s");
  r.count("explore.verify_states", static_cast<double>(verify.stats.statesExplored));
  r.count("explore.verify_checks", static_cast<double>(verify.totalChecks()));
}

// ---------------------------------------------------------------- survey --

/// Cost of each explorer problem seed in [first, last]: the search effort
/// and host time (best of three) of the op's two optimality searches, and
/// with `withVerify` the size of the verifySpace walk over its first three
/// jobs.  This is how kExploreStrata and kVerifyPool were chosen.
int survey(std::uint64_t first, std::uint64_t last, bool withVerify) {
  svc::ProfileCache cache;
  const auto classes = sched::exploreMix(kExploreNodes);
  const auto table = svc::buildProfileTable(classes, kExploreNodes, kSettings, 1, cache);
  const auto ccfg = sched::ClusterConfig::fromProfile(kSettings.platform, kExploreNodes);
  std::printf("seed states_mk states_sl search_s verify_states verify_s\n");
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const auto wl = exploreProblem(seed, kExploreJobs);
    const PolicyRuns pr = runPolicies(ccfg, wl, table);
    double searchSec = 1e300;
    sched::ExploreStats mk, sl;
    for (int rep = 0; rep < 3; ++rep) {
      const obs::WallClock c;
      mk = sched::exploreOptimal(ccfg, wl, table, sched::ExploreObjective::Makespan, pr.makespan)
               .stats;
      sl = sched::exploreOptimal(ccfg, wl, table, sched::ExploreObjective::MeanSlowdown,
                                 pr.slowdown)
               .stats;
      searchSec = std::min(searchSec, c.elapsedSec());
    }
    sched::ExploreStats v;
    const obs::WallClock vc;
    if (withVerify) v = sched::verifySpace(ccfg, exploreProblem(seed, 3), table).stats;
    std::printf("%llu %llu %llu %.4f %llu %.3f\n", static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(mk.statesExplored),
                static_cast<unsigned long long>(sl.statesExplored), searchSec,
                static_cast<unsigned long long>(v.statesExplored), vc.elapsedSec());
    std::fflush(stdout);
  }
  return 0;
}

// ------------------------------------------------------------------ main --

void printRep(const Rep& r, const std::string& workload) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject()
      .field("workload", workload)
      .field("seed", r.seed)
      .field("traced", r.traced())
      .field("setup_s", r.setupSec)
      .field("wall_s", r.wallSec)
      .field("units", r.units)
      .field("rss_mb", peakRssMb());
  w.key("checks").beginObject();
  for (const auto& [name, ok] : r.checks) w.field(name, ok);
  w.endObject();
  for (const auto& [key, digests] : {std::pair{"seed_digests", &r.seedDigests},
                                     std::pair{"fixed_digests", &r.fixedDigests}}) {
    w.key(key).beginObject();
    for (const auto& [name, hex] : *digests) w.field(name, hex);
    w.endObject();
  }
  w.key("layers").beginObject();
  for (const auto& [name, m] : r.layers)
    w.key(name)
        .beginObject()
        .field("value", m.value)
        .field("unit", m.unit)
        .field("exact", m.exact)
        .endObject();
  w.endObject().endObject();
  std::printf("%s\n", os.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench rep --workload profile-scaled|cluster-loop|explore-oracle "
               "--seed N [--traced] [--trace-out FILE] [--smoke]\n"
               "       perfbench calib\n"
               "       perfbench survey --first A --last B [--with-verify]\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> opts;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--traced" || a == "--smoke" || a == "--with-verify") opts[a] = "1";
    else if (a.rfind("--", 0) == 0 && i + 1 < argc) opts[a] = argv[++i];
    else return usage();
  }
  try {
    if (mode == "calib") {
      std::printf("%.6f\n", hostCalibrationMs());
      return 0;
    }
    if (mode == "survey")
      return survey(std::stoull(opts.at("--first")), std::stoull(opts.at("--last")),
                    opts.count("--with-verify") > 0);
    if (mode != "rep" || !opts.count("--workload") || !opts.count("--seed")) return usage();
    const std::string workload = opts["--workload"];
    const std::map<std::string, std::function<void(Rep&)>> workloads = {
        {"profile-scaled", profileScaled},
        {"cluster-loop", clusterLoop},
        {"explore-oracle", exploreOracle}};
    if (!workloads.count(workload)) return usage();
    Rep r(opts.count("--traced") > 0);
    r.seed = std::stoull(opts["--seed"]);
    r.smoke = opts.count("--smoke") > 0;
    workloads.at(workload)(r);
    if (opts.count("--trace-out")) {
      if (!r.rec.writeChromeTrace(opts["--trace-out"])) {
        std::fprintf(stderr, "cannot write %s\n", opts["--trace-out"].c_str());
        return 1;
      }
    }
    printRep(r, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
