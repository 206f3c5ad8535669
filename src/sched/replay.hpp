// In-engine replay validation for the cluster scheduler — closing the
// prediction loop.
//
// The cluster event loop predicts every job's runtime from a per-phase
// profile table: a job at allocation `a` spends phaseSec[p] in phase p, and
// a reallocation costs latency + modelBytes / bandwidth.  None of that has
// been checked against the thing it abstracts: the full per-application
// discrete-event simulation with the mall:: malleability controller really
// migrating column state at iteration boundaries.  This module performs the
// check — the simulator-validation step the paper runs for PDEXEC against
// direct execution (Fig. 13), applied one layer up.
//
// For every job of a finished cluster simulation the allocation history
// (JobOutcome::allocs, one entry per executed phase) is converted into a
// mall::AllocationPlan over max(allocs) workers — shrink steps remove the
// highest-indexed active workers, grow steps re-add the most recently
// removed (so the active set is always a prefix), and a history that starts
// below its maximum begins with a removal at iteration 0, applied through
// the engine's run-start hook before any compute.  The job then runs on the
// DPS engine with the same PDEXEC NOALLOC configuration the profiles used:
//
//   * LU jobs with a varying history run under the full
//     LuMalleabilityController executing the plan (mode "controller");
//   * jobs with a constant history run as a plain simulation at that
//     allocation (mode "static") — any app kind;
//   * Jacobi jobs with a varying history are counted but not replayed
//     (mode "unsupported"): there is no Jacobi malleability controller yet.
//
// The report carries per-job and aggregate *signed* relative errors of the
// scheduler's prediction against the replay, separately for makespan and
// migrated bytes.  Replays are independent, so they fan out on the
// support::ThreadPool into index-addressed slots — bit-identical at any
// `jobs` value, the same determinism contract as the profile table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "malleable/plan.hpp"
#include "sched/engine_run.hpp"
#include "sched/metrics.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"

namespace dps::sched {

enum class ReplayMode : std::uint8_t { Controller, Static, Unsupported };

const char* replayModeName(ReplayMode mode);

struct JobReplayOutcome {
  std::int32_t id = 0;
  std::string klass;
  ReplayMode mode = ReplayMode::Static;
  std::string plan; // human-readable allocation plan

  double predictedSec = 0;   // scheduler: finish - start (migration stalls included)
  double replayedSec = 0;    // engine: full-simulation makespan
  double predictedBytes = 0; // scheduler: ClassProfile::migrationBytes model
  double replayedBytes = 0;  // engine: controller's shrink+grow byte counters

  /// Signed relative error, (predicted - replayed) / replayed; positive
  /// means the profile-table prediction overestimates.
  double makespanError() const;
  /// Same for migrated bytes; 0 when neither side moved anything.
  double bytesError() const;
};

struct ReplayReport {
  std::string policy;
  std::int32_t nodes = 0;
  std::uint64_t seed = 0;

  std::vector<JobReplayOutcome> jobs;

  // Aggregates (filled by finalize()).
  std::int32_t replayed = 0;    // controller + static
  std::int32_t unsupported = 0; // varying-history Jacobi jobs
  double meanMakespanError = 0; // signed, over replayed jobs
  double meanAbsMakespanError = 0;
  double maxAbsMakespanError = 0;
  std::int32_t bytesJobs = 0; // replayed jobs where either side moved bytes
  double meanBytesError = 0;  // signed, over bytesJobs
  double meanAbsBytesError = 0;
  double maxAbsBytesError = 0;

  void finalize();
  /// The report as a JSON object at value position.
  void writeJson(JsonWriter& w) const;
  /// writeJson as a standalone document.
  std::string jsonString() const;
};

/// Converts one allocation history (allocation per executed phase) into a
/// plan over max(allocs) workers.  Histories starting below the maximum get
/// a removal step at iteration 0; shrink victims are the highest-indexed
/// active workers, grows re-add the most recently removed.
mall::AllocationPlan planFromHistory(const std::vector<std::int32_t>& allocs);

struct ReplaySettings {
  ProfileSettings engine;
  /// Concurrent replay engines (0 = hardware concurrency).
  unsigned jobs = 1;
  /// Executes the per-job engine runs; null = direct execution.  With
  /// svc::cachedRunner, static replays share cache entries with the profile
  /// build that predicted them (identical specs), so they simulate nothing.
  EngineRunFn runner{};
};

/// Replays every job of `metrics` (a simulateCluster result for `workload`)
/// through the full per-application simulation and reports prediction
/// errors.  Deterministic and bit-identical at any settings.jobs value.
ReplayReport replaySchedule(const ClusterMetrics& metrics, const Workload& workload,
                            const JobProfileTable& profiles, const ReplaySettings& settings);

} // namespace dps::sched
