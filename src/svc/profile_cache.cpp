#include "svc/profile_cache.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/fingerprint.hpp"
#include "support/thread_pool.hpp"

namespace dps::svc {

std::size_t CacheKeyHash::operator()(const CacheKey& k) const {
  Fingerprint fp;
  fp.add(k.engineFp).add(k.spec);
  return static_cast<std::size_t>(fp.value());
}

void ProfileCache::attachRegistry(obs::Registry* metrics) {
  std::unique_lock<std::mutex> lock(mu_);
  metrics_ = metrics;
  if (metrics == nullptr) {
    obsHits_ = obs::Counter{};
    obsJoined_ = obs::Counter{};
    obsMisses_ = obs::Counter{};
    obsEngineRuns_ = obs::Counter{};
    obsRunSec_ = obs::Histogram{};
    obsJoinWaitSec_ = obs::Histogram{};
    return;
  }
  obsHits_ = metrics->counter("svc.cache.hits");
  obsJoined_ = metrics->counter("svc.cache.joined");
  obsMisses_ = metrics->counter("svc.cache.misses");
  obsEngineRuns_ = metrics->counter("svc.cache.engine_runs");
  obsRunSec_ = metrics->histogram("svc.cache.run_sec", obs::secondsBounds());
  obsJoinWaitSec_ = metrics->histogram("svc.cache.join_wait_sec", obs::secondsBounds());
}

sched::EngineRunRecord ProfileCache::run(const sched::EngineRunSpec& spec) {
  const CacheKey key{spec.engineFingerprint(), spec.cacheSpec()};
  for (;;) {
    std::shared_ptr<Entry> entry;
    bool claimed = false;
    obs::Registry* metrics = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      metrics = metrics_;
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        entry = std::make_shared<Entry>();
        entries_.emplace(key, entry);
        claimed = true;
        ++stats_.misses;
        obsMisses_.add();
      } else {
        entry = it->second;
        if (entry->state == Entry::State::Ready) {
          ++stats_.hits;
          obsHits_.add();
          return entry->record;
        }
        ++stats_.joined;
        obsJoined_.add();
      }
    }

    if (claimed) {
      // Simulate inline on this thread: every Pending entry always has a
      // live executing owner, so joiners are guaranteed progress even when
      // every pool worker is blocked here.
      try {
        const double runStartSec = clock_.elapsedSec();
        sched::EngineRunRecord rec = sched::executeEngineRun(spec, metrics);
        obsRunSec_.observe(clock_.elapsedSec() - runStartSec);
        std::unique_lock<std::mutex> lock(mu_);
        ++stats_.engineRuns;
        obsEngineRuns_.add();
        entry->record = std::move(rec);
        entry->state = Entry::State::Ready;
        lock.unlock();
        cv_.notify_all();
        return entry->record;
      } catch (...) {
        {
          std::unique_lock<std::mutex> lock(mu_);
          auto it = entries_.find(key);
          if (it != entries_.end() && it->second == entry) entries_.erase(it);
          entry->state = Entry::State::Failed;
        }
        cv_.notify_all();
        throw;
      }
    }

    // Joiner (already counted in `joined`): wait for the claimer.  On
    // failure the entry is gone from the map — loop back and re-claim so
    // the retry surfaces the real error.
    const double waitStartSec = clock_.elapsedSec();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entry->state != Entry::State::Pending; });
    obsJoinWaitSec_.observe(clock_.elapsedSec() - waitStartSec);
    if (entry->state == Entry::State::Ready) return entry->record;
  }
}

CacheStats ProfileCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ProfileCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

ProfileCache& instance() {
  static ProfileCache cache;
  return cache;
}

sched::EngineRunFn cachedRunner(ProfileCache& cache) {
  return [&cache](const sched::EngineRunSpec& spec) { return cache.run(spec); };
}

sched::EngineRunRecord acquireRun(const sched::EngineRunSpec& spec) {
  return instance().run(spec);
}

sched::EngineRunRecord acquireRun(const sched::EngineRunSpec& spec, ProfileCache& cache) {
  return cache.run(spec);
}

sched::ClassProfile acquireProfile(const sched::ProfileSettings& settings,
                                   const sched::JobClass& classSpec,
                                   const std::vector<std::int32_t>& allocs, unsigned jobs) {
  return acquireProfile(settings, classSpec, allocs, jobs, instance());
}

sched::ClassProfile acquireProfile(const sched::ProfileSettings& settings,
                                   const sched::JobClass& classSpec,
                                   const std::vector<std::int32_t>& allocs, unsigned jobs,
                                   ProfileCache& cache) {
  DPS_CHECK(!allocs.empty(), "acquireProfile needs at least one allocation");
  // Skeleton over the *requested* allocations (ascending, like the builder).
  sched::ClassProfile cp = sched::classProfileSkeleton(classSpec, allocs.back());
  cp.allocs = allocs;
  std::sort(cp.allocs.begin(), cp.allocs.end());
  cp.allocs.erase(std::unique(cp.allocs.begin(), cp.allocs.end()), cp.allocs.end());
  for (std::int32_t a : cp.allocs)
    DPS_CHECK(classSpec.feasibleAt(a),
              cp.name + " cannot run on " + std::to_string(a) + " nodes");
  cp.byAlloc.assign(cp.allocs.size(), {});
  parallelFor(cp.allocs.size(), jobs, [&](std::size_t i) {
    cp.byAlloc[i] = sched::phaseProfileFromRecord(
        cache.run(sched::profileRunSpec(classSpec, cp.allocs[i], settings)), cp.allocs[i]);
  });
  return cp;
}

sched::JobProfileTable buildProfileTable(const std::vector<sched::JobClass>& classes,
                                         std::int32_t clusterNodes,
                                         const sched::ProfileSettings& settings, unsigned jobs,
                                         const sched::ProfileBuildOptions& options) {
  return buildProfileTable(classes, clusterNodes, settings, jobs, instance(), options);
}

sched::JobProfileTable buildProfileTable(const std::vector<sched::JobClass>& classes,
                                         std::int32_t clusterNodes,
                                         const sched::ProfileSettings& settings, unsigned jobs,
                                         ProfileCache& cache,
                                         const sched::ProfileBuildOptions& options) {
  return sched::JobProfileTable::build(classes, clusterNodes, settings, jobs, cachedRunner(cache),
                                       options);
}

} // namespace dps::svc
