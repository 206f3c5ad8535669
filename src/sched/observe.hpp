// Folds one finished cluster run into an obs::Registry.
//
// Called by the event loop with the finalized metrics, so an attached
// registry restates the run's own counts.  Everything here reads the
// result; nothing feeds back into simulation state.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dps::sched {

struct ClusterConfig;
struct ClusterMetrics;

/// No-op when cfg.metrics is null.  `desEventsFired` / `desQueueHighWater`
/// surface the DES kernel's own counters (events dispatched, queue-depth
/// high-water) under the same prefix.
void recordClusterRun(const ClusterConfig& cfg, const ClusterMetrics& m,
                      std::uint64_t desEventsFired, std::size_t desQueueHighWater);

} // namespace dps::sched
