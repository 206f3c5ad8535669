#include "net/network.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace dps::net {

StarNetwork::StarNetwork(des::Scheduler& sched, Config cfg, std::size_t nodeCount)
    : sched_(sched), cfg_(std::move(cfg)), nodes_(nodeCount) {
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

  TransferId id;
  if (!freeTransfers_.empty()) {
    id = freeTransfers_.back();
    freeTransfers_.pop_back();
  } else {
    id = static_cast<TransferId>(transfers_.size());
    transfers_.emplace_back();
  }
  Transfer& t = transfers_[id];
  t.src = src;
  t.dst = dst;
  t.remainingBytes = static_cast<double>(bytes);
  t.rate = 0.0;
  t.lastUpdate = sched_.now();
  t.onDelivered = std::move(onDelivered);
  t.completion = des::EventId{};

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
  Transfer& t = transfers_[id];
  DPS_CHECK(t.src != kNoNode, "unknown transfer begins draining");
  t.lastUpdate = sched_.now();

  NodeState& s = nodes_[t.src];
  NodeState& d = nodes_[t.dst];
  s.outgoing.push_back(id);
  d.incoming.push_back(id);
  ++s.activeOut;
  ++d.activeIn;

  // Membership changed on both links: replan everyone they touch.
  replanNode(t.src, t.dst);
  replanNode(t.dst, kNoNode);
  notifyActivity(t.src);
  notifyActivity(t.dst);
}

void StarNetwork::replanNode(NodeIndex node, NodeIndex skipPeer) {
  // replanTransfer never changes membership, so the lists are stable here.
  for (TransferId id : nodes_[node].outgoing)
    if (transfers_[id].dst != skipPeer) replanTransfer(id);
  for (TransferId id : nodes_[node].incoming)
    if (transfers_[id].src != skipPeer) replanTransfer(id);
}

void StarNetwork::replanTransfer(TransferId id) {
  Transfer& t = transfers_[id];

  // Settle progress under the old rate.
  const SimTime now = sched_.now();
  if (t.rate > 0.0) {
    const double elapsed = toSeconds(now - t.lastUpdate);
    t.remainingBytes = std::max(0.0, t.remainingBytes - t.rate * elapsed);
  }
  t.lastUpdate = now;

  // Equal-share allocation: min of the per-link fair shares.
  t.rate = std::min(shareOut(t.src), shareIn(t.dst));
  DPS_CHECK(t.rate > 0.0, "transfer granted zero rate");

  const SimTime at = now + seconds(t.remainingBytes / t.rate);
  if (!sched_.rescheduleAt(t.completion, at))
    t.completion = sched_.scheduleAt(at, [this, id] { finish(id); });
}

void StarNetwork::finish(TransferId id) {
  Transfer& t = transfers_[id];
  DPS_CHECK(t.src != kNoNode, "unknown transfer finishes");
  const NodeIndex src = t.src;
  const NodeIndex dst = t.dst;
  DeliveryFn deliver = std::move(t.onDelivered);
  t.src = kNoNode;
  t.onDelivered = nullptr;
  freeTransfers_.push_back(id);

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
