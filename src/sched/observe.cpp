#include "sched/observe.hpp"

#include <array>
#include <string>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "sched/cluster.hpp"
#include "sched/metrics.hpp"

namespace dps::sched {

void recordClusterRun(const ClusterConfig& cfg, const ClusterMetrics& m,
                      std::uint64_t desEventsFired, std::size_t desQueueHighWater) {
  // Recorder fold: the per-job summary rows and the run seal come from the
  // finalized metrics, so they restate the metrics JSON by construction.
  if (cfg.recorder != nullptr) {
    for (const JobOutcome& j : m.jobs)
      cfg.recorder->jobSummary(j.id, j.klass, j.arrivalSec, j.startSec, j.finishSec, j.backfilled,
                               j.wait);
    cfg.recorder->endRun(m.makespanSec);
  }

  obs::Registry* reg = cfg.metrics;
  if (reg == nullptr) return;
  const std::string& p = cfg.metricsPrefix;

  reg->counter(p + "events_processed").add(static_cast<std::uint64_t>(m.events));
  reg->counter(p + "jobs_finished").add(m.jobs.size());
  reg->counter(p + "reallocations").add(static_cast<std::uint64_t>(m.reallocations));
  reg->counter(p + "backfill_fires").add(static_cast<std::uint64_t>(m.backfillFires));
  reg->counter(p + "migrated_bytes").add(static_cast<std::uint64_t>(m.migratedBytes));
  reg->counter(p + "des.events_fired").add(desEventsFired);
  reg->gauge(p + "des.queue_high_water").set(static_cast<double>(desQueueHighWater));
  reg->gauge(p + "makespan_sec").set(m.makespanSec);
  reg->gauge(p + "utilization").set(m.utilization);
  reg->gauge(p + "mean_slowdown").set(m.meanSlowdown);

  obs::Histogram wait = reg->histogram(p + "job_wait_sec", obs::secondsBounds());
  obs::Histogram bytes = reg->histogram(p + "job_migrated_bytes", obs::bytesBounds());
  obs::Histogram stall = reg->histogram(p + "job_migration_stall_sec", obs::secondsBounds());
  std::array<obs::Histogram, obs::kWaitReasonCount> byReason;
  for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r) {
    std::string name = p;
    name += "job_wait.";
    name += waitReasonName(static_cast<obs::WaitReason>(r));
    name += "_sec";
    byReason[r] = reg->histogram(name, obs::secondsBounds());
  }
  for (const JobOutcome& j : m.jobs) {
    wait.observe(j.waitSec());
    if (j.migratedBytes > 0) bytes.observe(j.migratedBytes);
    if (j.wait.migrationDelayNs > 0)
      stall.observe(static_cast<double>(j.wait.migrationDelayNs) * 1e-9);
    for (std::size_t r = 0; r < obs::kWaitReasonCount; ++r)
      if (j.wait.byReason[r] > 0)
        byReason[r].observe(static_cast<double>(j.wait.byReason[r]) * 1e-9);
  }
}

} // namespace dps::sched
