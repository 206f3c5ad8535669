#include "sched/replay.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace dps::sched {

const char* replayModeName(ReplayMode mode) {
  switch (mode) {
    case ReplayMode::Controller: return "controller";
    case ReplayMode::Static: return "static";
    case ReplayMode::Unsupported: return "unsupported";
  }
  return "?";
}

namespace {

double signedError(double predicted, double replayed, double denom) {
  return denom > 0 ? (predicted - replayed) / denom : 0.0;
}

} // namespace

double JobReplayOutcome::makespanError() const {
  return signedError(predictedSec, replayedSec, replayedSec);
}

double JobReplayOutcome::bytesError() const {
  return signedError(predictedBytes, replayedBytes,
                     replayedBytes > 0 ? replayedBytes : predictedBytes);
}

mall::AllocationPlan planFromHistory(const std::vector<std::int32_t>& allocs) {
  DPS_CHECK(!allocs.empty(), "cannot build a plan from an empty allocation history");
  const std::int32_t top = *std::max_element(allocs.begin(), allocs.end());
  DPS_CHECK(allocs.front() >= 1, "allocation history starts below one node");

  mall::AllocationPlan plan;
  // Active workers always form the prefix [0, active); shrinking removes the
  // highest indices (pushed high-to-low, so the stack top is the lowest
  // removed worker) and growing re-adds in LIFO order, restoring the prefix.
  std::vector<std::int32_t> removed;
  std::int32_t active = top;
  const auto shrinkTo = [&](std::int64_t afterIteration, std::int32_t target) {
    mall::RemovalStep step;
    step.afterIteration = afterIteration;
    for (std::int32_t t = active - 1; t >= target; --t) {
      step.threads.push_back(t);
      removed.push_back(t);
    }
    plan.steps.push_back(std::move(step));
    active = target;
  };
  const auto growTo = [&](std::int64_t afterIteration, std::int32_t target) {
    mall::GrowStep step;
    step.afterIteration = afterIteration;
    while (active < target) {
      DPS_CHECK(!removed.empty(), "grow step without a previously removed worker");
      step.threads.push_back(removed.back());
      removed.pop_back();
      ++active;
    }
    plan.grows.push_back(std::move(step));
  };

  if (allocs.front() < top) shrinkTo(0, allocs.front());
  for (std::size_t p = 1; p < allocs.size(); ++p) {
    if (allocs[p] < active) shrinkTo(static_cast<std::int64_t>(p), allocs[p]);
    else if (allocs[p] > active) growTo(static_cast<std::int64_t>(p), allocs[p]);
  }
  return plan;
}

namespace {

/// Replays one job's allocation history through the full per-application
/// simulation; pure function of its arguments (runs on the pool).
JobReplayOutcome replayOne(const JobOutcome& out, const JobClass& klass,
                           const ClassProfile& profile, const ReplaySettings& settings) {
  JobReplayOutcome r;
  r.id = out.id;
  r.klass = out.klass;
  r.predictedSec = out.finishSec - out.startSec;
  r.predictedBytes = out.migratedBytes;
  DPS_CHECK(!out.allocs.empty(), "job has no allocation history to replay");
  DPS_CHECK(static_cast<std::int32_t>(out.allocs.size()) == profile.phases(),
            "allocation history length does not match the class phase count");

  const bool constant =
      std::all_of(out.allocs.begin(), out.allocs.end(),
                  [&](std::int32_t a) { return a == out.allocs.front(); });

  const auto execute = [&](const EngineRunSpec& spec) {
    return settings.runner ? settings.runner(spec) : executeEngineRun(spec);
  };

  if (constant) {
    // No reallocation ever happened: the replay is a plain simulation at
    // the admitted allocation — exactly the run the profile was sliced
    // from, so the prediction must match up to SimTime quantization.  The
    // spec is *the profile spec* on purpose: a caching runner serves it
    // from the profile build's entry without simulating.
    r.mode = ReplayMode::Static;
    r.plan = "static @ " + std::to_string(out.allocs.front());
    r.replayedSec = execute(profileRunSpec(klass, out.allocs.front(), settings.engine)).totalSec;
    return r;
  }

  if (klass.app != AppKind::Lu) {
    // No Jacobi malleability controller exists (yet); be honest about it
    // rather than replaying something else.
    r.mode = ReplayMode::Unsupported;
    r.plan = "varying history, no jacobi controller";
    return r;
  }

  r.mode = ReplayMode::Controller;
  const std::int32_t top = *std::max_element(out.allocs.begin(), out.allocs.end());
  EngineRunSpec spec;
  spec.app = AppKind::Lu;
  spec.lu = klass.luAt(top);
  // The job may have started below its historical maximum; the executor
  // re-spreads column ownership so the plan's iteration-0 removal
  // deactivates the surplus workers without moving state — the scheduler
  // charged no migration for admission either.
  spec.startAlloc = out.allocs.front();
  spec.plan = planFromHistory(out.allocs);
  spec.slicePhases = false;
  spec.config = settings.engine.simConfig();
  spec.luModel = settings.engine.luModel;
  spec.jacobiModel = settings.engine.jacobiModel;
  r.plan = spec.plan.describe();
  const EngineRunRecord rec = execute(spec);
  r.replayedSec = rec.totalSec;
  r.replayedBytes = rec.migratedBytes;
  return r;
}

} // namespace

void ReplayReport::finalize() {
  replayed = unsupported = bytesJobs = 0;
  meanMakespanError = meanAbsMakespanError = maxAbsMakespanError = 0;
  meanBytesError = meanAbsBytesError = maxAbsBytesError = 0;
  for (const JobReplayOutcome& j : jobs) {
    if (j.mode == ReplayMode::Unsupported) {
      ++unsupported;
      continue;
    }
    ++replayed;
    const double e = j.makespanError();
    meanMakespanError += e;
    meanAbsMakespanError += std::abs(e);
    maxAbsMakespanError = std::max(maxAbsMakespanError, std::abs(e));
    if (j.predictedBytes > 0 || j.replayedBytes > 0) {
      ++bytesJobs;
      const double b = j.bytesError();
      meanBytesError += b;
      meanAbsBytesError += std::abs(b);
      maxAbsBytesError = std::max(maxAbsBytesError, std::abs(b));
    }
  }
  if (replayed > 0) {
    meanMakespanError /= replayed;
    meanAbsMakespanError /= replayed;
  }
  if (bytesJobs > 0) {
    meanBytesError /= bytesJobs;
    meanAbsBytesError /= bytesJobs;
  }
}

void ReplayReport::writeJson(JsonWriter& w) const {
  w.beginObject()
      .field("policy", policy)
      .field("nodes", nodes)
      .field("seed", seed)
      .field("replayed", replayed)
      .field("unsupported", unsupported);
  w.key("makespan_error")
      .beginObject()
      .field("mean_signed", meanMakespanError)
      .field("mean_abs", meanAbsMakespanError)
      .field("max_abs", maxAbsMakespanError)
      .endObject();
  w.key("bytes_error")
      .beginObject()
      .field("jobs", bytesJobs)
      .field("mean_signed", meanBytesError)
      .field("mean_abs", meanAbsBytesError)
      .field("max_abs", maxAbsBytesError)
      .endObject();
  w.key("jobs").beginArray();
  for (const JobReplayOutcome& j : jobs) {
    w.beginObject()
        .field("id", j.id)
        .field("class", j.klass)
        .field("mode", replayModeName(j.mode))
        .field("plan", j.plan)
        .field("predicted_sec", j.predictedSec)
        .field("replayed_sec", j.replayedSec)
        .field("makespan_error", j.makespanError())
        .field("predicted_bytes", j.predictedBytes)
        .field("replayed_bytes", j.replayedBytes)
        .field("bytes_error", j.bytesError())
        .endObject();
  }
  w.endArray().endObject();
}

std::string ReplayReport::jsonString() const {
  return jsonText([&](JsonWriter& w) { writeJson(w); });
}

ReplayReport replaySchedule(const ClusterMetrics& metrics, const Workload& workload,
                            const JobProfileTable& profiles, const ReplaySettings& settings) {
  DPS_CHECK(workload.jobs.size() == metrics.jobs.size(),
            "metrics and workload disagree on the job count");
  ReplayReport rep;
  rep.policy = metrics.policy;
  rep.nodes = metrics.nodes;
  rep.seed = metrics.seed;
  rep.jobs.resize(metrics.jobs.size());

  // One independent single-threaded replay per job, landing in
  // index-addressed slots: identical reports at any `jobs` value.
  parallelFor(metrics.jobs.size(), settings.jobs, [&](std::size_t i) {
    const JobOutcome& out = metrics.jobs[i];
    const Job* wj = nullptr;
    for (const Job& candidate : workload.jobs)
      if (candidate.id == out.id) wj = &candidate;
    DPS_CHECK(wj != nullptr, "replayed job missing from the workload");
    rep.jobs[i] = replayOne(out, workload.cfg.classes.at(wj->klass), profiles.of(wj->klass),
                            settings);
  });
  rep.finalize();
  return rep;
}

} // namespace dps::sched
