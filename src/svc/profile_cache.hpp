// svc::ProfileCache — the memoized profile service (paper §9 outlook,
// ROADMAP "keystone refactor").
//
// A cluster server answering what-if and scheduling queries for many
// applications keeps re-running identical PDEXEC simulations: every
// JobProfileTable build, every static replay, every repeated what-if query
// is a pure function of an EngineRunSpec.  This cache memoizes those runs:
//
//   * Keys are exact.  CacheKey = (engine fingerprint, canonical spec
//     string); the fingerprint hashes the SimConfig + both kernel cost
//     models (the same bytes ProfileSettings::fingerprint() hashes), the
//     string canonicalizes the app config/plan half — string equality makes
//     aliasing impossible even under hash collision.
//   * Hits are bit-identical to fresh builds: the cached value *is* the
//     EngineRunRecord a direct executeEngineRun would return, because the
//     claimer produced it with exactly that call.
//   * Single-flight: the first requester of a key claims its entry and
//     simulates inline on its own thread; concurrent requesters of the same
//     key block on the in-flight slot and receive the claimer's result.
//     Claimers never enqueue pool work, so a full ThreadPool cannot
//     deadlock the cache.  A failed claim removes the entry; one blocked
//     joiner re-claims and surfaces the real error.
//
// Everything profile-shaped flows through the acquisition API below —
// acquireProfile / buildProfileTable for class profiles, acquireRun for raw
// what-if runs, cachedRunner to inject memoization into sched:: fan-outs.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/clock.hpp"
#include "obs/registry.hpp"
#include "sched/engine_run.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"

namespace dps::svc {

struct CacheKey {
  std::uint64_t engineFp = 0; // SimConfig + kernel cost models
  std::string spec;           // canonical app/plan/slicing string
  bool operator==(const CacheKey& other) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const;
};

/// Monotonic counters; a consistent snapshot is returned by stats().
struct CacheStats {
  std::uint64_t hits = 0;       // served from a completed entry
  std::uint64_t joined = 0;     // blocked on an in-flight entry, no run
  std::uint64_t misses = 0;     // claimed an entry (an engine run started)
  std::uint64_t engineRuns = 0; // engine runs actually executed

  std::uint64_t lookups() const { return hits + joined + misses; }
  /// Fraction of lookups that did not execute an engine run.
  double hitRate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits + joined) / static_cast<double>(total);
  }
};

class ProfileCache {
public:
  ProfileCache() = default;
  ProfileCache(const ProfileCache&) = delete;
  ProfileCache& operator=(const ProfileCache&) = delete;

  /// Memoized executeEngineRun: first caller per key simulates inline,
  /// concurrent callers block on the in-flight slot, later callers hit.
  sched::EngineRunRecord run(const sched::EngineRunSpec& spec);

  /// Attaches observability: svc.cache.{hits,joined,misses,engine_runs}
  /// counters mirror the CacheStats fields exactly, svc.cache.run_sec /
  /// svc.cache.join_wait_sec record wall-clock engine-run and single-flight
  /// wait latencies, and engine runs executed through the cache record
  /// their own engine.*/mall.* metrics into the same registry.  Call before
  /// the cache is shared across threads; null detaches.
  void attachRegistry(obs::Registry* metrics);

  CacheStats stats() const;
  std::size_t size() const;

private:
  struct Entry {
    enum class State { Pending, Ready, Failed };
    State state = State::Pending;
    sched::EngineRunRecord record;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<CacheKey, std::shared_ptr<Entry>, CacheKeyHash> entries_;
  CacheStats stats_;
  // Observability (null-safe no-ops until attachRegistry).  The counter
  // handles are bumped at the exact statements that bump stats_, so the
  // registry and CacheStats can never disagree.
  obs::Registry* metrics_ = nullptr;
  obs::Counter obsHits_;
  obs::Counter obsJoined_;
  obs::Counter obsMisses_;
  obs::Counter obsEngineRuns_;
  obs::Histogram obsRunSec_;
  obs::Histogram obsJoinWaitSec_;
  obs::WallClock clock_;
};

/// The process-wide cache every default acquisition call shares.
ProfileCache& instance();

/// An EngineRunFn bound to `cache` — inject into ReplaySettings::runner or
/// JobProfileTable::build so sched:: fan-outs memoize their runs.
sched::EngineRunFn cachedRunner(ProfileCache& cache);

/// Memoized single engine run (what-if queries, reference runs).
sched::EngineRunRecord acquireRun(const sched::EngineRunSpec& spec);
sched::EngineRunRecord acquireRun(const sched::EngineRunSpec& spec, ProfileCache& cache);

/// The acquisition API: one class profiled across `allocs`, every
/// (class, allocation) run served through the cache.  `jobs` bounds the
/// concurrent cold-path simulations (0 = hardware concurrency); results are
/// bit-identical at any jobs value and identical to a direct
/// JobProfileTable build of the same class.
sched::ClassProfile acquireProfile(const sched::ProfileSettings& settings,
                                   const sched::JobClass& classSpec,
                                   const std::vector<std::int32_t>& allocs, unsigned jobs = 1);
sched::ClassProfile acquireProfile(const sched::ProfileSettings& settings,
                                   const sched::JobClass& classSpec,
                                   const std::vector<std::int32_t>& allocs, unsigned jobs,
                                   ProfileCache& cache);

/// Full profile table through the cache (the consumers' replacement for
/// JobProfileTable::build).  `options` selects interpolated vs exhaustive
/// construction; with interpolation only the anchor allocations reach the
/// cache (and hence the engine) — synthesized entries cost no lookups.
sched::JobProfileTable buildProfileTable(const std::vector<sched::JobClass>& classes,
                                         std::int32_t clusterNodes,
                                         const sched::ProfileSettings& settings, unsigned jobs = 1,
                                         const sched::ProfileBuildOptions& options = {});
sched::JobProfileTable buildProfileTable(const std::vector<sched::JobClass>& classes,
                                         std::int32_t clusterNodes,
                                         const sched::ProfileSettings& settings, unsigned jobs,
                                         ProfileCache& cache,
                                         const sched::ProfileBuildOptions& options = {});

} // namespace dps::svc
