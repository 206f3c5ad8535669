// svc:: profile service: cache key fingerprints, single-flight memoization,
// the acquisition API's bit-identity and determinism contracts, and replay
// sharing profile-build cache entries.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "sched/cluster.hpp"
#include "sched/engine_run.hpp"
#include "sched/replay.hpp"
#include "svc/profile_cache.hpp"

namespace dps::svc {
namespace {

/// Tiny mix for fast unit tests (8-level LU + 6-sweep Jacobi).
std::vector<sched::JobClass> tinyMix() {
  sched::JobClass lu;
  lu.name = "lu-tiny";
  lu.app = sched::AppKind::Lu;
  lu.lu.n = 64;
  lu.lu.r = 8;
  lu.lu.workers = 4;
  lu.lu.seed = 3;
  sched::JobClass ja;
  ja.name = "jacobi-tiny";
  ja.app = sched::AppKind::Jacobi;
  ja.jacobi.rows = 64;
  ja.jacobi.cols = 64;
  ja.jacobi.sweeps = 6;
  ja.jacobi.workers = 4;
  return {lu, ja};
}

sched::EngineRunSpec tinySpec() {
  return sched::profileRunSpec(tinyMix()[0], 4, sched::ProfileSettings{});
}

void expectRecordsEqual(const sched::EngineRunRecord& a, const sched::EngineRunRecord& b) {
  EXPECT_EQ(a.totalSec, b.totalSec);
  EXPECT_EQ(a.phaseSec, b.phaseSec);
  EXPECT_EQ(a.phaseEff, b.phaseEff);
  EXPECT_EQ(a.phaseMarker, b.phaseMarker);
  EXPECT_EQ(a.migratedBytes, b.migratedBytes);
  ASSERT_EQ(a.allocEvents.size(), b.allocEvents.size());
  for (std::size_t i = 0; i < a.allocEvents.size(); ++i) {
    EXPECT_EQ(a.allocEvents[i].timeSec, b.allocEvents[i].timeSec);
    EXPECT_EQ(a.allocEvents[i].nodes, b.allocEvents[i].nodes);
  }
}

TEST(ProfileCacheTest, HitIsBitIdenticalToDirectExecution) {
  const auto spec = tinySpec();
  const auto direct = sched::executeEngineRun(spec);

  ProfileCache cache;
  const auto miss = cache.run(spec);
  const auto hit = cache.run(spec);
  expectRecordsEqual(direct, miss);
  expectRecordsEqual(direct, hit);

  const auto cs = cache.stats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.engineRuns, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCacheTest, EverySettingsFieldChangesTheFingerprint) {
  const sched::ProfileSettings base;
  const std::uint64_t fp = base.fingerprint();
  EXPECT_EQ(fp, sched::ProfileSettings{}.fingerprint()); // stable

  auto mutate = [&](auto&& change) {
    sched::ProfileSettings s;
    change(s);
    return s.fingerprint();
  };
  EXPECT_NE(fp, mutate([](auto& s) { s.platform.latency = s.platform.latency * 2; }));
  EXPECT_NE(fp, mutate([](auto& s) { s.platform.bandwidthBytesPerSec *= 2; }));
  EXPECT_NE(fp, mutate([](auto& s) { s.platform.computeScale *= 1.5; }));
  EXPECT_NE(fp, mutate([](auto& s) { s.luModel.gemmFlopsPerSec *= 2; }));
  EXPECT_NE(fp, mutate([](auto& s) { s.luModel.perKernelOverhead += seconds(1e-6); }));
  EXPECT_NE(fp, mutate([](auto& s) { s.jacobiModel.cellsPerSec *= 2; }));

  // The settings-level fingerprint is exactly the spec-level engine
  // fingerprint, so profile builds and replays share cache entries.
  EXPECT_EQ(fp, tinySpec().engineFingerprint());
}

TEST(ProfileCacheTest, SpecHalfOfTheKeySeparatesRuns) {
  const auto a = tinySpec();
  auto b = a;
  b.lu.seed = 4;
  EXPECT_EQ(a.engineFingerprint(), b.engineFingerprint());
  EXPECT_NE(a.cacheSpec(), b.cacheSpec());

  ProfileCache cache;
  cache.run(a);
  cache.run(b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().engineRuns, 2u);
}

TEST(ProfileCacheTest, SingleFlightUnderContention) {
  const auto spec = tinySpec();
  ProfileCache cache;
  constexpr int kThreads = 8;
  std::vector<sched::EngineRunRecord> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { results[static_cast<std::size_t>(t)] = cache.run(spec); });
  for (auto& th : threads) th.join();

  const auto cs = cache.stats();
  EXPECT_EQ(cs.engineRuns, 1u) << "identical concurrent requests must simulate once";
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits + cs.joined, static_cast<std::uint64_t>(kThreads - 1));
  for (int t = 1; t < kThreads; ++t)
    expectRecordsEqual(results[0], results[static_cast<std::size_t>(t)]);
}

TEST(ProfileCacheTest, RegistryCountersMirrorCacheStatsExactly) {
  // The obs handles are bumped at the same statements as the CacheStats
  // fields, including under single-flight contention — the registry view
  // and stats() can never disagree.
  const auto spec = tinySpec();
  obs::Registry registry;
  ProfileCache cache;
  cache.attachRegistry(&registry);

  cache.run(spec); // miss + engine run
  cache.run(spec); // hit
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const auto spec2 = sched::profileRunSpec(tinyMix()[1], 4, sched::ProfileSettings{});
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] { cache.run(spec2); });
  for (auto& th : threads) th.join();

  const auto cs = cache.stats();
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("svc.cache.hits"), cs.hits);
  EXPECT_EQ(snap.counter("svc.cache.joined"), cs.joined);
  EXPECT_EQ(snap.counter("svc.cache.misses"), cs.misses);
  EXPECT_EQ(snap.counter("svc.cache.engine_runs"), cs.engineRuns);
  EXPECT_EQ(cs.lookups(), static_cast<std::uint64_t>(2 + kThreads));
  const auto* runSec = snap.histogram("svc.cache.run_sec");
  ASSERT_NE(runSec, nullptr);
  EXPECT_EQ(runSec->count, cs.engineRuns);
  // Runs executed through the cache record engine.* into the same registry.
  EXPECT_EQ(snap.counter("engine.runs"), cs.engineRuns);

  // Detaching stops recording without touching the cache's own stats.
  cache.attachRegistry(nullptr);
  cache.run(spec);
  EXPECT_EQ(registry.snapshot().counter("svc.cache.hits"), cs.hits);
  EXPECT_EQ(cache.stats().hits, cs.hits + 1);
}

TEST(ProfileCacheTest, SimNsCounterIsExactInAnyCompletionOrder) {
  // engine.sim_ns is an integer counter, so a 4-thread build sums every
  // executed run's makespan exactly whichever pool thread finishes first.
  const auto classes = tinyMix();
  const sched::ProfileSettings settings;
  obs::Registry registry;
  ProfileCache cache;
  cache.attachRegistry(&registry);
  buildProfileTable(classes, 4, settings, 4, cache);
  const std::uint64_t runs = cache.stats().engineRuns;

  // Read the build's records back (cache hits, no new engine runs).
  std::uint64_t points = 0, sumNs = 0;
  for (const auto& klass : classes) {
    for (const std::int32_t nodes : sched::classProfileSkeleton(klass, 4).allocs) {
      const auto rec = cache.run(sched::profileRunSpec(klass, nodes, settings));
      sumNs += static_cast<std::uint64_t>(std::llround(rec.totalSec * 1e9));
      ++points;
    }
  }
  EXPECT_EQ(cache.stats().engineRuns, runs);
  EXPECT_EQ(points, runs);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("engine.runs"), runs);
  EXPECT_EQ(snap.counter("engine.sim_ns"), sumNs);
  EXPECT_GT(sumNs, 0u);
}

TEST(AcquireProfileTest, MatchesDirectBuildAtAnyJobCount) {
  const auto classes = tinyMix();
  const sched::ProfileSettings settings;
  const auto direct = sched::JobProfileTable::build(classes, 4, settings, 1);

  ProfileCache cacheA, cacheB;
  const auto serial = buildProfileTable(classes, 4, settings, 1, cacheA);
  const auto fanned = buildProfileTable(classes, 4, settings, 4, cacheB);

  ASSERT_EQ(direct.classCount(), serial.classCount());
  ASSERT_EQ(direct.classCount(), fanned.classCount());
  for (std::size_t c = 0; c < direct.classCount(); ++c) {
    const auto& d = direct.of(c);
    const auto& s = serial.of(c);
    const auto& f = fanned.of(c);
    EXPECT_EQ(d.allocs, s.allocs);
    EXPECT_EQ(d.allocs, f.allocs);
    ASSERT_EQ(d.byAlloc.size(), s.byAlloc.size());
    ASSERT_EQ(d.byAlloc.size(), f.byAlloc.size());
    for (std::size_t i = 0; i < d.byAlloc.size(); ++i) {
      EXPECT_EQ(d.byAlloc[i].totalSec, s.byAlloc[i].totalSec);
      EXPECT_EQ(d.byAlloc[i].totalSec, f.byAlloc[i].totalSec);
      EXPECT_EQ(d.byAlloc[i].phaseSec, s.byAlloc[i].phaseSec);
      EXPECT_EQ(d.byAlloc[i].phaseSec, f.byAlloc[i].phaseSec);
      EXPECT_EQ(d.byAlloc[i].phaseEff, f.byAlloc[i].phaseEff);
    }
  }
}

TEST(AcquireProfileTest, RepeatAcquisitionIsAllHits) {
  const auto classes = tinyMix();
  const sched::ProfileSettings settings;
  ProfileCache cache;
  const std::vector<std::int32_t> allocs{1, 2, 4};
  const auto first = acquireProfile(settings, classes[0], allocs, 1, cache);
  const auto runsAfterFirst = cache.stats().engineRuns;
  EXPECT_EQ(runsAfterFirst, allocs.size());

  const auto second = acquireProfile(settings, classes[0], allocs, 1, cache);
  EXPECT_EQ(cache.stats().engineRuns, runsAfterFirst) << "repeat acquisition must not simulate";
  ASSERT_EQ(first.byAlloc.size(), second.byAlloc.size());
  for (std::size_t i = 0; i < first.byAlloc.size(); ++i)
    EXPECT_EQ(first.byAlloc[i].totalSec, second.byAlloc[i].totalSec);
}

TEST(AcquireProfileTest, InterpolatedBuildRunsOnlyAnchorSimulations) {
  // A 12-level dense class through the cache: the default (interpolating)
  // build must execute exactly autoAnchorCount(12) = 3 engine runs yet
  // produce all 12 profile entries; --exact-profiles runs all 12.
  sched::JobClass dense = tinyMix()[0];
  dense.lu.workers = 12;
  dense.denseAllocs = true;
  const sched::ProfileSettings settings;

  ProfileCache interpCache;
  const auto interp = buildProfileTable({dense}, 12, settings, 1, interpCache);
  EXPECT_EQ(interpCache.stats().engineRuns, 3u);
  EXPECT_EQ(interp.buildInfo().engineRunPoints, 3u);
  EXPECT_EQ(interp.buildInfo().profiledAllocs, 12u);
  EXPECT_DOUBLE_EQ(interp.buildInfo().runReduction(), 4.0);
  ASSERT_EQ(interp.of(0).allocs.size(), 12u);

  ProfileCache exactCache;
  sched::ProfileBuildOptions exact;
  exact.interpolate = false;
  const auto full = buildProfileTable({dense}, 12, settings, 1, exactCache, exact);
  EXPECT_EQ(exactCache.stats().engineRuns, 12u);
  EXPECT_DOUBLE_EQ(full.buildInfo().runReduction(), 1.0);

  // The interpolating build's anchor entries are the exhaustive build's
  // engine profiles bit-for-bit (same cache keys, same records).
  for (std::int32_t a : sched::InterpolatedProfile::pickAnchors(
           full.of(0).allocs, sched::InterpolatedProfile::autoAnchorCount(12))) {
    EXPECT_EQ(interp.of(0).at(a).totalSec, full.of(0).at(a).totalSec) << a;
    EXPECT_EQ(interp.of(0).at(a).phaseSec, full.of(0).at(a).phaseSec) << a;
  }
}

// The acceptance property of the PR: with one cache behind both the profile
// build and the replay pass, `dps_cluster --replay` issues strictly fewer
// engine runs than lookups — static replays are pure cache hits.
TEST(ReplayThroughCacheTest, StaticReplaysShareProfileBuildEntries) {
  const auto classes = tinyMix();
  const sched::ProfileSettings settings;
  ProfileCache cache;
  const auto profiles = buildProfileTable(classes, 4, settings, 1, cache);
  const auto runsAfterProfile = cache.stats().engineRuns;
  ASSERT_GT(runsAfterProfile, 0u);

  sched::WorkloadConfig wcfg;
  wcfg.seed = 7;
  wcfg.jobCount = 6;
  wcfg.arrivalRatePerSec = 1.0;
  wcfg.classes = classes;
  const auto workload = sched::Workload::generate(wcfg, 4);
  // Rigid FCFS never reallocates, so every history replays as a static run
  // — the exact specs the profile build already simulated.
  const auto policy = sched::makePolicy("fcfs-rigid");
  const auto metrics = sched::simulateCluster(
      sched::ClusterConfig::fromProfile(settings.platform, 4), workload, profiles, *policy);

  sched::ReplaySettings rs;
  rs.engine = settings;
  rs.runner = cachedRunner(cache);
  const auto report = sched::replaySchedule(metrics, workload, profiles, rs);
  EXPECT_GT(report.replayed, 0);
  EXPECT_EQ(cache.stats().engineRuns, runsAfterProfile)
      << "static replays must be served from the profile build's cache entries";
  EXPECT_GT(cache.stats().lookups(), cache.stats().engineRuns);
}

} // namespace
} // namespace dps::svc
