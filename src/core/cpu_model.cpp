#include "core/cpu_model.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::core {

CpuModel::CpuModel(des::Scheduler& sched, Config cfg, std::int32_t nodeCount)
    : cfg_(cfg), nodes_(nodeCount), steps_(sched, [this](StepId id) { finish(id); }) {
  DPS_CHECK(nodeCount > 0, "cpu model needs nodes");
  DPS_CHECK(cfg_.minAvailable > 0.0, "minAvailable must be positive");
}

double CpuModel::available(const Node& n) const {
  if (!cfg_.commOverhead) return 1.0;
  const double used = n.activeIn * cfg_.cpuPerIncoming + n.activeOut * cfg_.cpuPerOutgoing;
  return std::max(cfg_.minAvailable, 1.0 - used);
}

double CpuModel::availableCpu(flow::NodeId node) const { return available(nodes_.at(node)); }

double CpuModel::stepRate(const Node& n) const {
  const double avail = available(n);
  if (cfg_.sharing) {
    const int k = std::max<std::size_t>(1, n.running.size());
    return avail / k;
  }
  return avail;
}

void CpuModel::startStep(flow::NodeId node, SimDuration work, Completion onDone) {
  DPS_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodes_.size(), "bad node");
  const StepId id = steps_.add(toSeconds(work), std::move(onDone));
  if (id == stepNode_.size()) stepNode_.emplace_back();
  stepNode_[id] = node;
  nodes_[node].running.push_back(id);
  replanNode(node);
}

void CpuModel::setCommActivity(flow::NodeId node, int activeIn, int activeOut) {
  Node& n = nodes_.at(node);
  if (n.activeIn == activeIn && n.activeOut == activeOut) return;
  n.activeIn = activeIn;
  n.activeOut = activeOut;
  if (cfg_.commOverhead) replanNode(node);
}

int CpuModel::runningSteps(flow::NodeId node) const {
  return static_cast<int>(nodes_.at(node).running.size());
}

void CpuModel::replanNode(flow::NodeId node) {
  const Node& n = nodes_.at(node);
  const double rate = stepRate(n);
  for (StepId id : n.running) steps_.setRate(id, rate);
}

void CpuModel::finish(StepId id) {
  const flow::NodeId node = stepNode_[id];
  Completion done = steps_.release(id);
  auto& running = nodes_[node].running;
  running.erase(std::remove(running.begin(), running.end(), id), running.end());
  replanNode(node);
  done();
}

} // namespace dps::core
