// Identifier types for the DPS flow-graph model.
#pragma once

#include <cstdint>
#include <functional>

namespace dps::flow {

/// Index of a virtual compute node within a deployment.
using NodeId = std::int32_t;
/// Index of a thread group declared on a flow graph.
using GroupId = std::int32_t;
/// Vertex id within a flow graph.
using OpId = std::int32_t;

constexpr OpId kNoOp = -1;

/// Kind of an atomic step (paper §3): which Operation entry point ran.
enum class StepKind : std::uint8_t {
  Input,    // onInput — leaf compute, split intake, merge/stream absorb
  Emit,     // emitOne — split/stream emission
  Finalize, // onAllInputsDone — merge aggregation / stream flush
};

/// A logical DPS thread: (group, index-within-group).  DPS threads are a
/// logical execution environment; deployment maps each to a compute node.
struct ThreadRef {
  GroupId group = -1;
  std::int32_t index = -1;

  friend bool operator==(const ThreadRef&, const ThreadRef&) = default;
  friend auto operator<=>(const ThreadRef&, const ThreadRef&) = default;
};

} // namespace dps::flow

template <>
struct std::hash<dps::flow::ThreadRef> {
  std::size_t operator()(const dps::flow::ThreadRef& t) const noexcept {
    return std::hash<std::uint64_t>()(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.group)) << 32) |
        static_cast<std::uint32_t>(t.index));
  }
};
