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
// The transitions are written once, in sched::Machine (machine.hpp),
// which the loop (cluster.cpp) and the explorer both drive.  sched_test's
// golden digests pin the loop's outputs (metrics and recorder JSON), and
// replaying each run's own decisions (replayTrace of decisionTrace,
// explore.hpp) must give back the identical schedule.
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
  /// Zero latency and an infinite bandwidth make reconfiguration free.
  SimDuration migrationLatency = microseconds(100);
  double migrationBandwidthBytesPerSec = 12.5e6;
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
  /// Flight recorder: the full decision audit log (admit/hold verdicts
  /// with typed wait reasons, backfill passes and candidates, realloc
  /// grants with policy rationale), per-job wait intervals, and the
  /// simulated-time timeseries.  Its JSON digest is pinned by the golden
  /// test decision by decision, and Recorder::writeTrace renders it for
  /// Perfetto.  Null = off (zero cost); wait *attribution* is always-on
  /// integer bookkeeping either way, so metrics JSON is bit-identical with
  /// and without a recorder.
  obs::Recorder* recorder = nullptr;

  /// The reconfiguration delay for moving `bytes` of state under the cost
  /// model above.
  SimDuration migrationDelay(double bytes) const {
    return migrationLatency + seconds(bytes / migrationBandwidthBytesPerSec);
  }

  /// Throws unless this machine can run `profiles`: at least one node, a
  /// positive migration bandwidth, and every class fitting the cluster.
  void check(const JobProfileTable& profiles) const;

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

} // namespace dps::sched
