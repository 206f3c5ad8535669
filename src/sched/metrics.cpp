#include "sched/metrics.hpp"

#include <algorithm>

#include "support/json.hpp"

namespace dps::sched {

void ClusterMetrics::recordUse(double timeSec, std::int32_t usedNodes) {
  if (!timeline.empty() && timeline.back().timeSec == timeSec) {
    // Same instant: the previous point is zero-width; keep only the final
    // value, and drop the point entirely if the value ends up unchanged.
    if (timeline.size() >= 2 && timeline[timeline.size() - 2].usedNodes == usedNodes) {
      timeline.pop_back();
      return;
    }
    timeline.back().usedNodes = usedNodes;
    return;
  }
  if (!timeline.empty() && timeline.back().usedNodes == usedNodes) return;
  timeline.push_back(UtilizationPoint{timeSec, usedNodes});
}

void ClusterMetrics::finalize() {
  makespanSec = 0;
  meanSlowdown = maxSlowdown = meanWaitSec = migratedBytes = 0;
  reallocations = 0;
  backfillFires = 0;
  attribution = obs::WaitAttribution{};
  for (const JobOutcome& j : jobs) {
    makespanSec = std::max(makespanSec, j.finishSec);
    meanSlowdown += j.slowdown();
    maxSlowdown = std::max(maxSlowdown, j.slowdown());
    meanWaitSec += j.waitSec();
    migratedBytes += j.migratedBytes;
    reallocations += j.reallocations;
    if (j.backfilled) ++backfillFires;
    for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r)
      attribution.byReason[r] += j.wait.byReason[r];
    attribution.totalNs += j.wait.totalNs;
    attribution.migrationDelayNs += j.wait.migrationDelayNs;
  }
  if (!jobs.empty()) {
    meanSlowdown /= static_cast<double>(jobs.size());
    meanWaitSec /= static_cast<double>(jobs.size());
  }

  // Utilization: integrate the piecewise-constant used-node curve over
  // [0, makespan].
  utilization = 0;
  if (makespanSec > 0 && nodes > 0 && !timeline.empty()) {
    double integral = 0;
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      const double end = i + 1 < timeline.size() ? timeline[i + 1].timeSec : makespanSec;
      const double span = std::max(0.0, std::min(end, makespanSec) - timeline[i].timeSec);
      integral += span * timeline[i].usedNodes;
    }
    utilization = integral / (static_cast<double>(nodes) * makespanSec);
  }
}

void writeAttributionJson(JsonWriter& w, const obs::WaitAttribution& a) {
  w.beginObject();
  for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r) {
    std::string k = waitReasonName(static_cast<obs::WaitReason>(r));
    k += "_sec";
    w.field(k, static_cast<double>(a.byReason[r]) * 1e-9);
  }
  w.field("total_wait_sec", static_cast<double>(a.totalNs) * 1e-9)
      .field("migration_delay_sec", static_cast<double>(a.migrationDelayNs) * 1e-9)
      .field("dominant", a.totalNs > 0 ? waitReasonName(a.dominant()) : "none")
      .field("dominant_share", a.dominantShare())
      .endObject();
}

void ClusterMetrics::writeJson(JsonWriter& w, std::int32_t timelineMaxPoints) const {
  w.beginObject()
      .field("policy", policy)
      .field("nodes", nodes)
      .field("seed", seed)
      .field("makespan_sec", makespanSec)
      .field("utilization", utilization)
      .field("mean_slowdown", meanSlowdown)
      .field("max_slowdown", maxSlowdown)
      .field("mean_wait_sec", meanWaitSec)
      .field("migrated_bytes", migratedBytes)
      .field("reallocations", reallocations)
      .field("backfill_fires", backfillFires)
      .field("events_processed", events)
      .field("timeline_points", static_cast<std::uint64_t>(timeline.size()));
  w.key("attribution");
  writeAttributionJson(w, attribution);
  w.key("jobs").beginArray();
  for (const JobOutcome& j : jobs) {
    w.beginObject()
        .field("id", j.id)
        .field("class", j.klass)
        .field("arrival_sec", j.arrivalSec)
        .field("start_sec", j.startSec)
        .field("finish_sec", j.finishSec)
        .field("best_sec", j.bestSec)
        .field("wait_sec", j.waitSec())
        .field("slowdown", j.slowdown())
        .field("reallocations", j.reallocations)
        .field("migrated_bytes", j.migratedBytes)
        .field("backfilled", j.backfilled);
    w.key("wait_ns").beginObject();
    for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r)
      w.field(waitReasonName(static_cast<obs::WaitReason>(r)), j.wait.byReason[r]);
    w.field("total", j.wait.totalNs)
        .field("migration_delay", j.wait.migrationDelayNs)
        .endObject();
    w.key("allocs").beginArray();
    for (std::int32_t a : j.allocs) w.value(a);
    w.endArray().endObject();
  }
  w.endArray();
  w.key("timeline").beginArray();
  const std::size_t n = timeline.size();
  const std::size_t cap = timelineMaxPoints > 0 ? static_cast<std::size_t>(timelineMaxPoints) : n;
  if (n <= cap) {
    for (const auto& t : timeline)
      w.beginObject().field("t", t.timeSec).field("used", t.usedNodes).endObject();
  } else {
    // Evenly strided down-sample that always keeps the first and last
    // points; duplicate picks (cap close to n) collapse.
    std::size_t last = n; // sentinel: nothing emitted yet
    for (std::size_t k = 0; k < cap; ++k) {
      const std::size_t idx = cap == 1 ? 0 : k * (n - 1) / (cap - 1);
      if (idx == last) continue;
      last = idx;
      w.beginObject().field("t", timeline[idx].timeSec).field("used", timeline[idx].usedNodes)
          .endObject();
    }
  }
  w.endArray().endObject();
}

std::string ClusterMetrics::jsonString(std::int32_t timelineMaxPoints) const {
  return jsonText([&](JsonWriter& w) { writeJson(w, timelineMaxPoints); });
}

} // namespace dps::sched
