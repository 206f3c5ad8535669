// Execution trace records emitted by the engines.
//
// Traces capture everything needed to reconstruct a timing diagram like the
// paper's Fig. 2/4 (steps and transfers per node) and to compute dynamic
// efficiency (paper §1, §8): atomic steps with their contention-free work
// amounts, network transfers, application progress markers, and allocation
// changes.
#pragma once

#include <cstdint>
#include <string>

#include "flow/ids.hpp"
#include "support/time.hpp"

namespace dps::trace {

using flow::StepKind;

const char* toString(StepKind k);

/// One atomic step: executed without suspension on one thread (paper §3).
struct StepRecord {
  flow::NodeId node = -1;
  flow::ThreadRef thread;
  flow::OpId op = flow::kNoOp;
  StepKind kind = StepKind::Input;
  SimTime start{};
  SimTime end{};
  /// Contention-free work content (the duration the step would take alone
  /// on an idle node); end-start may be larger under CPU sharing.
  SimDuration work{};
};

struct TransferRecord {
  flow::NodeId src = -1;
  flow::NodeId dst = -1;
  std::size_t bytes = 0;
  SimTime start{};
  SimTime end{};
};

/// Application progress marker, e.g. {"iteration", 3}.
struct MarkerRecord {
  std::string name;
  std::int64_t value = 0;
  SimTime time{};
};

/// Allocation change: after this instant, `allocatedNodes` nodes are held.
struct AllocationRecord {
  SimTime time{};
  std::int32_t allocatedNodes = 0;
};

} // namespace dps::trace
