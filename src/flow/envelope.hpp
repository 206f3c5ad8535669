// Message envelopes and split/merge instance frames.
//
// Every data object travelling through a flow graph carries a stack of
// instance frames.  A split (or the split side of a stream) pushes a frame;
// the matching merge pops it.  The frame stack is what lets the engines
// track nested split-merge scopes, decide merge completion and account
// flow-control tokens (paper §2).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/ids.hpp"
#include "serial/object.hpp"

namespace dps::flow {

struct InstanceFrame {
  /// The split/stream op that opened this scope.
  OpId opener = kNoOp;
  /// The opener's output port the scope belongs to (an op may open one
  /// scope per emitting port, e.g. the LU app's next-level stream emits
  /// trsm requests on one port and row-flip requests on another).
  std::int32_t port = 0;
  /// Globally unique activation id of that opener's scope on that port.
  std::uint64_t instance = 0;
  /// Index of this object among the instance's emissions (0-based).
  std::uint64_t emission = 0;

  friend bool operator==(const InstanceFrame&, const InstanceFrame&) = default;
};

using InstancePath = std::vector<InstanceFrame>;

struct Envelope {
  serial::ObjectPtr payload;
  OpId srcOp = kNoOp;
  OpId dstOp = kNoOp;
  ThreadRef src;
  ThreadRef dst;
  InstancePath path;
  /// Global delivery sequence number (determinism + tracing).
  std::uint64_t seq = 0;
  /// Bytes on the wire: the payload's counted wireSize() plus the envelope
  /// overhead.  Nothing is ever encoded.
  std::size_t wireBytes = 0;
};

} // namespace dps::flow
