// Result of an engine run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/dispatch.hpp"
#include "flow/operation.hpp"
#include "serial/object.hpp"
#include "support/time.hpp"
#include "trace/trace.hpp"

namespace dps::core {

using flow::RunCounters;

struct RunResult {
  /// Predicted (sim engine) or elapsed (runtime engine) application time.
  SimDuration makespan{};
  /// Objects posted to program output ports, in completion order.
  std::vector<serial::ObjectPtr> outputs;
  RunCounters counters;
  /// The simulator's event accounting (scheduled, cancelled, rescheduled,
  /// fired, queue high-water); all zero for the runtime engine.  Kept out
  /// of `counters`, so golden digests of those do not see it.
  des::SchedulerStats scheduler;
  /// Full execution trace; null when trace recording is disabled.
  std::shared_ptr<trace::Trace> trace;
  /// Thread states harvested after the run ([group][thread]); lets callers
  /// verify application results (e.g. the factored matrix blocks).
  std::vector<std::vector<std::unique_ptr<flow::ThreadState>>> threadStates;
  /// Wall-clock cost of performing the run itself (the paper's Table 1
  /// "running time" column for the simulator rows).
  double wallSeconds = 0.0;
};

} // namespace dps::core
