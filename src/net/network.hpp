// Event-driven star-topology network (paper §4).
//
// Every node owns a full-duplex link into an ideal crossbar switch that is
// never a bottleneck.  Concurrent transfers on a node's outgoing (resp.
// incoming) link each receive an equal share of the link bandwidth; a
// transfer drains at the minimum of its sender-side and receiver-side
// shares.  Unused capacity is *not* redistributed — exactly the equal-share
// assumption stated in the paper (progressive filling would be a different,
// stronger model; see tests/net for the behavioural contrast).
//
// A transfer costs  t = l + s / b_effective  where the latency phase does
// not occupy the link.  Hooks allow the high-fidelity reference executor to
// add per-message overheads and bandwidth derating (DESIGN.md §4).
//
// Every start or end of a transfer's draining phase re-rates each transfer
// on both of its links through the shared des::Activities set, which
// settles progress under the old rate and moves the completion event in
// place.  Replan once: a transfer between the two endpoints themselves is
// re-rated only with the second endpoint.  Both replans happen at the same
// instant with the same shares, so the first one's settlement is exactly
// what the second would settle (the second always settles zero elapsed
// time), and the second sets the event's sequence number, so skipping the
// first changes neither bits nor order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "des/activities.hpp"
#include "des/scheduler.hpp"
#include "support/time.hpp"

namespace dps::net {

using NodeIndex = std::int32_t;

class StarNetwork {
public:
  struct Config {
    SimDuration latency = microseconds(100);
    double bytesPerSec = 12.5e6;
    SimDuration localDelivery = microseconds(1);
    /// Scales usable bandwidth (high-fidelity derating; 1.0 = nominal).
    double bandwidthEfficiency = 1.0;
    /// Ablation knob: when false, transfers never contend — every transfer
    /// receives full link bandwidth (the "network contention is inexistent"
    /// assumption of MPI-SIM/COMPASS the paper improves upon, §1).
    bool fairShare = true;
    /// Optional per-message extra latency (protocol/chunking overheads);
    /// receives the transfer size.  Null = pure l + s/b.
    std::function<SimDuration(std::size_t bytes)> extraLatency;
  };

  /// Notified when a node's count of active (draining) transfers changes;
  /// the CPU model uses this to charge communication overhead.
  using ActivityObserver =
      std::function<void(NodeIndex node, int activeIn, int activeOut)>;
  using DeliveryFn = std::function<void()>;

  StarNetwork(des::Scheduler& sched, Config cfg, std::size_t nodeCount);

  /// Starts a transfer of `bytes` from `src` to `dst`; `onDelivered` fires
  /// when the last byte arrives.  Same-node transfers bypass the network.
  void send(NodeIndex src, NodeIndex dst, std::size_t bytes, DeliveryFn onDelivered);

  void setActivityObserver(ActivityObserver obs) { observer_ = std::move(obs); }

  int activeIncoming(NodeIndex node) const { return nodes_.at(node).activeIn; }
  int activeOutgoing(NodeIndex node) const { return nodes_.at(node).activeOut; }
  std::size_t nodeCount() const { return nodes_.size(); }

  /// Total payload bytes accepted for cross-node delivery (statistics).
  std::uint64_t bytesSent() const { return bytesSent_; }
  std::uint64_t transfersStarted() const { return transfersStarted_; }

  /// Analytic uncontended transfer time (used by tests and calibration).
  SimDuration uncontendedTime(std::size_t bytes) const;

private:
  using TransferId = des::Activities::Id;
  static constexpr NodeIndex kNoNode = -1;

  struct Ends {
    NodeIndex src;
    NodeIndex dst;
  };

  struct NodeState {
    int activeIn = 0;
    int activeOut = 0;
    std::vector<TransferId> incoming;
    std::vector<TransferId> outgoing;
  };

  void beginDraining(TransferId id);
  void finish(TransferId id);
  /// Re-rates every transfer touching `node` after a membership change,
  /// except transfers whose other endpoint is `skipPeer` (replan once, see
  /// above).
  void replanNode(NodeIndex node, NodeIndex skipPeer);
  /// Equal-share allocation: the min of the transfer's two per-link shares.
  void replanTransfer(TransferId id);
  double shareOut(NodeIndex node) const;
  double shareIn(NodeIndex node) const;
  void notifyActivity(NodeIndex node);

  des::Scheduler& sched_;
  Config cfg_;
  std::vector<NodeState> nodes_;
  des::Activities transfers_; // work = bytes
  std::vector<Ends> ends_;    // indexed by TransferId
  ActivityObserver observer_;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t transfersStarted_ = 0;
};

} // namespace dps::net
