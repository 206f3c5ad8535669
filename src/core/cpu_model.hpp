// Per-node CPU model (paper §4).
//
// Each virtual node has one unit of processing power.  Active network
// transfers consume a fixed fraction each (receiving costs more than
// sending); the remainder is shared evenly among all atomic steps currently
// running on the node.  Steps are processor-sharing customers: their
// completion times are re-planned whenever node membership or communication
// activity changes.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "des/scheduler.hpp"
#include "flow/ids.hpp"
#include "support/time.hpp"

namespace dps::core {

class CpuModel {
public:
  struct Config {
    bool sharing = true;       // divide remaining CPU among running steps
    bool commOverhead = true;  // transfers consume CPU
    double cpuPerIncoming = 0.02;
    double cpuPerOutgoing = 0.01;
    /// CPU never drops below this floor (a saturated NIC still leaves the
    /// kernel scheduler a little time for user code).
    double minAvailable = 0.05;
  };

  using StepHandle = std::uint64_t;
  using Completion = std::function<void()>;

  CpuModel(des::Scheduler& sched, Config cfg, std::int32_t nodeCount);

  /// Starts an atomic step of `work` contention-free duration on `node`;
  /// `onDone` fires when the (possibly stretched) step completes.
  StepHandle startStep(flow::NodeId node, SimDuration work, Completion onDone);

  /// Updates communication activity (wired to StarNetwork's observer).
  void setCommActivity(flow::NodeId node, int activeIn, int activeOut);

  int runningSteps(flow::NodeId node) const;
  /// CPU fraction currently available to computation on the node.
  double availableCpu(flow::NodeId node) const;

private:
  struct Step {
    flow::NodeId node;
    double remainingWork; // seconds at rate 1.0
    double rate = 0.0;
    SimTime lastUpdate{};
    Completion onDone;
    des::EventId completion;
  };
  struct Node {
    int activeIn = 0;
    int activeOut = 0;
    std::vector<StepHandle> running;
  };

  /// Moves every running step's completion to its new rate.
  void replanNode(flow::NodeId node);
  /// CPU fraction left to computation after communication overhead.
  double available(const Node& n) const;
  double stepRate(const Node& n) const;
  void finish(StepHandle h);

  des::Scheduler& sched_;
  Config cfg_;
  std::vector<Node> nodes_;
  std::unordered_map<StepHandle, Step> steps_;
  StepHandle next_ = 1;
};

} // namespace dps::core
