// Cluster-simulation result set: per-job outcomes, the node-utilization
// timeline, and the aggregate numbers scheduling studies report (makespan,
// utilization, mean/max slowdown), with the JSON emitter the cluster
// reports are built from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.hpp" // obs::WaitAttribution

namespace dps {
class JsonWriter;
} // namespace dps

namespace dps::sched {

struct JobOutcome {
  std::int32_t id = 0;
  std::string klass;
  double arrivalSec = 0;
  double startSec = 0;
  double finishSec = 0;
  double bestSec = 0; // shortest profiled runtime (slowdown denominator)
  /// Allocation at each executed phase, in phase order.
  std::vector<std::int32_t> allocs;
  std::int32_t reallocations = 0;
  double migratedBytes = 0;
  /// Started ahead of an older blocked job under EASY backfill.
  bool backfilled = false;
  /// Queue-wait decomposition in integer simulated ns (always filled by
  /// the cluster loop, recorder or not — so metrics JSON is identical
  /// with and without a recorder attached).
  obs::WaitAttribution wait;

  /// Clamped at zero: SimTime quantization can land the start a nanosecond
  /// before the nominal arrival.
  double waitSec() const { return startSec > arrivalSec ? startSec - arrivalSec : 0.0; }
  /// (finish - arrival) / bestSec, the standard job-scheduling slowdown.
  double slowdown() const { return bestSec > 0 ? (finishSec - arrivalSec) / bestSec : 0; }
};

/// Node usage after the change at `timeSec`.
struct UtilizationPoint {
  double timeSec = 0;
  std::int32_t usedNodes = 0;
};

struct ClusterMetrics {
  std::string policy;
  std::int32_t nodes = 0;
  std::uint64_t seed = 0;

  std::vector<JobOutcome> jobs;
  std::vector<UtilizationPoint> timeline;
  /// Events the cluster loop processed (arrivals + phase boundaries) —
  /// the numerator of the bench layer's events/sec throughput.
  std::int64_t events = 0;

  /// Appends a utilization change, coalescing: consecutive points with the
  /// same used count merge, and several changes at the same instant keep
  /// only the final value (zero-width segments carry no information and no
  /// integral).  Memory stays O(distinct changes), not O(events).
  void recordUse(double timeSec, std::int32_t usedNodes);

  // Aggregates (filled by finalize()).
  double makespanSec = 0;    // last job finish
  double utilization = 0;    // integral of used nodes / (nodes * makespan)
  double meanSlowdown = 0;
  double maxSlowdown = 0;
  double meanWaitSec = 0;
  double migratedBytes = 0;
  std::int32_t reallocations = 0;
  /// Jobs started ahead of an older blocked job by EASY backfill.
  std::int32_t backfillFires = 0;
  /// Summed per-job wait attribution (integer ns buckets telescoping over
  /// all jobs) — the "attribution" JSON block.
  obs::WaitAttribution attribution;

  /// Computes the aggregate block from jobs + timeline.
  void finalize();

  /// {"policy":...,"nodes":...,"makespan_sec":...,"jobs":[...],
  ///  "timeline":[...]} at value position.  `timelineMaxPoints` > 0
  /// down-samples the emitted timeline to at most that many points (first
  /// and last always kept; "timeline_points" reports the full resolution
  /// either way); 0 emits every point.
  void writeJson(JsonWriter& w, std::int32_t timelineMaxPoints = 0) const;
  /// writeJson as a standalone document.
  std::string jsonString(std::int32_t timelineMaxPoints = 0) const;
};

/// A wait attribution as a JSON object at value position (per-reason
/// seconds, total, migration delay, dominant reason + share) — the
/// "attribution" block of ClusterMetrics::writeJson, shared with the
/// benches that report attribution in their own documents.
void writeAttributionJson(JsonWriter& w, const obs::WaitAttribution& a);

} // namespace dps::sched
