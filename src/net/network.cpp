#include "net/network.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::net {

StarNetwork::StarNetwork(des::Scheduler& sched, Config cfg, std::size_t nodeCount)
    : sched_(sched), cfg_(std::move(cfg)), nodes_(nodeCount),
      transfers_(sched, [this](TransferId id) { finish(id); }) {
  DPS_CHECK(cfg_.bytesPerSec > 0, "bandwidth must be positive");
  DPS_CHECK(cfg_.bandwidthEfficiency > 0 && cfg_.bandwidthEfficiency <= 1.0,
            "bandwidth efficiency must be in (0, 1]");
}

SimDuration StarNetwork::uncontendedTime(std::size_t bytes) const {
  const double secs = static_cast<double>(bytes) /
                      (cfg_.bytesPerSec * cfg_.bandwidthEfficiency);
  return cfg_.latency + seconds(secs);
}

void StarNetwork::send(NodeIndex src, NodeIndex dst, std::size_t bytes, DeliveryFn onDelivered) {
  DPS_CHECK(src >= 0 && static_cast<std::size_t>(src) < nodes_.size(), "bad src node");
  DPS_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < nodes_.size(), "bad dst node");

  if (src == dst) {
    // Local hop: in-memory queue move, no link usage, no CPU comm overhead.
    sched_.scheduleAfter(cfg_.localDelivery, std::move(onDelivered));
    return;
  }

  ++transfersStarted_;
  bytesSent_ += bytes;

  const TransferId id = transfers_.add(static_cast<double>(bytes), std::move(onDelivered));
  if (id == ends_.size()) ends_.emplace_back();
  ends_[id] = {src, dst};

  SimDuration lead = cfg_.latency;
  if (cfg_.extraLatency) lead += cfg_.extraLatency(bytes);
  sched_.scheduleAfter(lead, [this, id] { beginDraining(id); });
}

double StarNetwork::shareOut(NodeIndex node) const {
  const int n = cfg_.fairShare ? std::max(1, nodes_[node].activeOut) : 1;
  return cfg_.bytesPerSec * cfg_.bandwidthEfficiency / n;
}

double StarNetwork::shareIn(NodeIndex node) const {
  const int n = cfg_.fairShare ? std::max(1, nodes_[node].activeIn) : 1;
  return cfg_.bytesPerSec * cfg_.bandwidthEfficiency / n;
}

void StarNetwork::notifyActivity(NodeIndex node) {
  if (observer_) observer_(node, nodes_[node].activeIn, nodes_[node].activeOut);
}

void StarNetwork::beginDraining(TransferId id) {
  const Ends e = ends_[id];
  NodeState& s = nodes_[e.src];
  NodeState& d = nodes_[e.dst];
  s.outgoing.push_back(id);
  d.incoming.push_back(id);
  ++s.activeOut;
  ++d.activeIn;

  // Membership changed on both links: replan everyone they touch.
  replanNode(e.src, e.dst);
  replanNode(e.dst, kNoNode);
  notifyActivity(e.src);
  notifyActivity(e.dst);
}

void StarNetwork::replanNode(NodeIndex node, NodeIndex skipPeer) {
  // replanTransfer never changes membership, so the lists are stable here.
  for (TransferId id : nodes_[node].outgoing)
    if (ends_[id].dst != skipPeer) replanTransfer(id);
  for (TransferId id : nodes_[node].incoming)
    if (ends_[id].src != skipPeer) replanTransfer(id);
}

void StarNetwork::replanTransfer(TransferId id) {
  transfers_.setRate(id, std::min(shareOut(ends_[id].src), shareIn(ends_[id].dst)));
}

void StarNetwork::finish(TransferId id) {
  const auto [src, dst] = ends_[id];
  DeliveryFn deliver = transfers_.release(id);

  auto drop = [id](std::vector<TransferId>& v) {
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
  };
  drop(nodes_[src].outgoing);
  drop(nodes_[dst].incoming);
  --nodes_[src].activeOut;
  --nodes_[dst].activeIn;

  replanNode(src, dst);
  replanNode(dst, kNoNode);
  notifyActivity(src);
  notifyActivity(dst);

  deliver();
}

} // namespace dps::net
