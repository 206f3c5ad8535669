// ClusterScheduler: a whole simulated machine serving a stream of malleable
// jobs (the paper's §9 outlook, executed at cluster scale).
//
// The event loop runs on the same des::Scheduler kernel as the application
// engine.  Jobs arrive per the workload's Poisson process and queue in
// arrival order; the policy is consulted at admission and at every phase
// boundary of every running job.  Reallocation semantics:
//
//   * shrink — the released nodes free immediately (they stop computing at
//     the boundary) while the job pays a migration delay before its next
//     phase starts: latency + movedBytes / migrationBandwidth, with
//     movedBytes from ClassProfile::migrationBytes — the same state-motion
//     accounting the in-engine malleability controller injects.
//   * grow   — granted only from currently free nodes (clamped to the
//     largest feasible allocation not exceeding nodes + free), charged the
//     same migration delay.
//
// Everything is deterministic: the DES kernel fires equal-time events in
// scheduling order, policies are pure, and the profile table is
// bit-identical at any build concurrency — so a cluster run is a pure
// function of (workload, profiles, policy, config) at any --jobs value.
//
// The loop is written once (cluster_loop.hpp) over three data structures
// and instantiated twice.  simulateCluster uses indexed ones whose
// per-event cost is O(1)/O(log n) — precomputed remaining-time suffix
// sums, an ordered estimated-finish index over the running set for
// backfill's shadow-time computation, a lazily compacted queue.
// simulateClusterReference is the same loop over linear-scan structures
// (mid-queue erases, a sort of the running jobs per blocked-head pass,
// tail sums recomputed per query), kept as the oracle for the indexed
// ones: tests assert bit-identical metrics and recorder contents, and
// bench/cluster_scale measures the throughput gap.
#pragma once

#include <cstdint>
#include <functional>

#include "net/profile.hpp"
#include "sched/metrics.hpp"
#include "sched/policy.hpp"
#include "sched/profile.hpp"
#include "sched/workload.hpp"

namespace dps::obs {
class Recorder;
class Registry;
class TraceSink;
} // namespace dps::obs

namespace dps::sched {

/// Snapshot handed to ClusterConfig::onProgress while a simulation runs.
struct ClusterProgress {
  std::int64_t events = 0;       // arrivals + phase boundaries processed
  std::int32_t finishedJobs = 0;
  std::int32_t totalJobs = 0;
  double simNowSec = 0;          // simulated clock, not wall clock
  std::int32_t runningJobs = 0;
  std::int32_t queuedJobs = 0;
};

struct ClusterConfig {
  std::int32_t nodes = 8;
  /// Reconfiguration cost model: one-way latency plus bytes / bandwidth.
  SimDuration migrationLatency = microseconds(100);
  double migrationBandwidthBytesPerSec = 12.5e6;
  /// Ablation: zero-cost reconfiguration (isolates policy quality from
  /// migration overhead).
  bool chargeMigration = true;
  /// EASY backfill (Lifka) on the admission scan: when the head of the
  /// queue is capacity-blocked it receives a reservation at the earliest
  /// time enough nodes free up — computed from the running jobs' remaining
  /// phase profiles at their current allocations — and younger queued jobs
  /// may start now only if they cannot delay that reservation (they finish
  /// before the shadow time, or fit into the nodes spare beyond the head's
  /// need).  Off by default: the scan stops at the first blocked job.
  bool easyBackfill = false;
  /// Cap on how many younger queued jobs one backfill pass offers to the
  /// policy (SLURM's bf_max_job_test): deep queues otherwise make every
  /// blocked-head pass O(queue).  0 = unlimited, classic EASY.
  std::int32_t backfillDepth = 0;
  /// Invoke `onProgress` every this many processed events (0 = never).
  std::int64_t progressEvery = 0;
  std::function<void(const ClusterProgress&)> onProgress{};
  /// Observability (all optional; null = disabled, zero cost).  The run's
  /// aggregate counters/gauges/histograms fold into `metrics` under
  /// `metricsPrefix` when the loop quiesces; instrumentation never feeds
  /// back into the simulation, so results are bit-identical either way.
  obs::Registry* metrics = nullptr;
  std::string metricsPrefix;
  /// Per-job spans (queued/run), realloc instants and backfill decisions in
  /// *simulated* microseconds, one trace tid per job id.
  obs::TraceSink* trace = nullptr;
  /// Trace process lane, so several policies share one trace file.
  std::int32_t tracePid = 0;
  /// Flight recorder: the full decision audit log (admit/hold verdicts
  /// with typed wait reasons, backfill passes and candidates, realloc
  /// grants with policy rationale), per-job wait intervals, and the
  /// simulated-time timeseries.  Equal recorder contents from
  /// simulateCluster and simulateClusterReference check the indexed data
  /// structures decision by decision.  Null = off (zero cost); wait
  /// *attribution* is always-on integer bookkeeping either way, so metrics
  /// JSON is bit-identical with and without a recorder.
  obs::Recorder* recorder = nullptr;

  static ClusterConfig fromProfile(const net::PlatformProfile& p, std::int32_t nodes) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.migrationLatency = p.latency;
    cfg.migrationBandwidthBytesPerSec = p.bandwidthBytesPerSec;
    return cfg;
  }
};

/// Runs one policy over one workload against one profile table.
ClusterMetrics simulateCluster(const ClusterConfig& cfg, const Workload& workload,
                               const JobProfileTable& profiles, Policy& policy);

/// The same event loop over linear-scan data structures (mid-queue erases,
/// a sort per shadow-time query, per-query tail sums): the oracle and
/// throughput baseline for simulateCluster's indexed ones.  Do not use at
/// scale.
ClusterMetrics simulateClusterReference(const ClusterConfig& cfg, const Workload& workload,
                                        const JobProfileTable& profiles, Policy& policy);

} // namespace dps::sched
