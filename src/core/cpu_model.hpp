// Per-node CPU model (paper §4).
//
// Each virtual node has one unit of processing power.  Active network
// transfers consume a fixed fraction each (receiving costs more than
// sending); the remainder is shared evenly among all atomic steps currently
// running on the node.  Steps are processor-sharing customers, kept in a
// des::Activities set: whenever node membership or communication activity
// changes, every step on the node is re-rated, which settles its progress
// and moves its completion.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/activities.hpp"
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

  using Completion = std::function<void()>;

  CpuModel(des::Scheduler& sched, Config cfg, std::int32_t nodeCount);

  /// Starts an atomic step of `work` contention-free duration on `node`;
  /// `onDone` fires when the (possibly stretched) step completes.
  void startStep(flow::NodeId node, SimDuration work, Completion onDone);

  /// Updates communication activity (wired to StarNetwork's observer).
  void setCommActivity(flow::NodeId node, int activeIn, int activeOut);

  int runningSteps(flow::NodeId node) const;
  /// CPU fraction currently available to computation on the node.
  double availableCpu(flow::NodeId node) const;

private:
  using StepId = des::Activities::Id;
  struct Node {
    int activeIn = 0;
    int activeOut = 0;
    std::vector<StepId> running; // in start order
  };

  /// Re-rates every running step on the node.
  void replanNode(flow::NodeId node);
  /// CPU fraction left to computation after communication overhead.
  double available(const Node& n) const;
  double stepRate(const Node& n) const;
  void finish(StepId id);

  Config cfg_;
  std::vector<Node> nodes_;
  des::Activities steps_;              // work = contention-free seconds
  std::vector<flow::NodeId> stepNode_; // indexed by StepId
};

} // namespace dps::core
