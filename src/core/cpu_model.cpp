#include "core/cpu_model.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::core {

CpuModel::CpuModel(des::Scheduler& sched, Config cfg, std::int32_t nodeCount)
    : sched_(sched), cfg_(cfg), nodes_(nodeCount) {
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

CpuModel::StepHandle CpuModel::startStep(flow::NodeId node, SimDuration work, Completion onDone) {
  DPS_CHECK(node >= 0 && static_cast<std::size_t>(node) < nodes_.size(), "bad node");
  DPS_CHECK(work >= SimDuration::zero(), "negative work");
  const StepHandle h = next_++;
  Step s;
  s.node = node;
  s.remainingWork = toSeconds(work);
  s.lastUpdate = sched_.now();
  s.onDone = std::move(onDone);
  steps_.emplace(h, std::move(s));
  nodes_[node].running.push_back(h);
  replanNode(node);
  return h;
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
  Node& n = nodes_.at(node);
  const double rate = stepRate(n);
  const SimTime now = sched_.now();
  for (StepHandle h : n.running) {
    Step& s = steps_.at(h);
    if (s.rate > 0.0) {
      const double elapsed = toSeconds(now - s.lastUpdate);
      s.remainingWork = std::max(0.0, s.remainingWork - s.rate * elapsed);
    }
    s.lastUpdate = now;
    s.rate = rate;
    const SimTime at = now + seconds(s.remainingWork / rate);
    if (!sched_.rescheduleAt(s.completion, at))
      s.completion = sched_.scheduleAt(at, [this, h] { finish(h); });
  }
}

void CpuModel::finish(StepHandle h) {
  auto it = steps_.find(h);
  DPS_CHECK(it != steps_.end(), "unknown step finished");
  const flow::NodeId node = it->second.node;
  Completion done = std::move(it->second.onDone);
  auto& running = nodes_[node].running;
  running.erase(std::remove(running.begin(), running.end(), h), running.end());
  steps_.erase(it);
  replanNode(node);
  done();
}

} // namespace dps::core
