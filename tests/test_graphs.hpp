// Shared miniature flow-graph applications for engine tests: the classic
// split -> compute -> merge fan-out of the paper's Fig. 1, parameterized
// for timing analytics, plus a deliberately broken graph for deadlock
// detection tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flow/graph.hpp"
#include "serial/object.hpp"
#include "support/time.hpp"

namespace dps::test {

/// Work item with a padded payload (controls transfer sizes).
struct Item final : serial::ObjectBase {
  std::int64_t value = 0;
  std::vector<std::uint8_t> padding;
  std::size_t wireSize() const override { return serial::byteCount(value, padding); }
};

/// Aggregate result from the merge.
struct Sum final : serial::ObjectBase {
  std::int64_t total = 0;
  std::int64_t count = 0;
  std::size_t wireSize() const override { return serial::byteCount(total, count); }
};

struct FanoutSpec {
  std::int32_t jobs = 4;
  std::int32_t workers = 2;
  SimDuration splitCost = microseconds(100);   // charged per emission
  SimDuration computeCost = milliseconds(1);   // charged per leaf input
  SimDuration mergeCost = microseconds(50);    // charged per absorb
  SimDuration finalizeCost = SimDuration::zero();
  std::size_t payloadBytes = 1024;             // Item padding size
  std::int32_t fcLimit = 0;                    // 0 = no flow control
  bool leafMarker = false;                     // leaf emits ("job", value)
};

struct FanoutBuild {
  std::unique_ptr<flow::FlowGraph> graph;
  flow::GroupId master = -1;
  flow::GroupId workers = -1;
  std::vector<serial::ObjectPtr> inputs;
  FanoutSpec spec;
};

/// Split (master) -> compute leaf (workers, round robin) -> merge (master).
/// Leaf doubles each value; the merge sums.  All costs are charges, so the
/// graph is fully deterministic under PDEXEC and still runs correctly (with
/// negligible wall durations) under DirectExec and the runtime engine.
FanoutBuild buildFanout(FanoutSpec spec);

/// Like buildFanout but the leaf drops odd-valued items instead of passing
/// them to the merge (jobs >= 2 drops at least one), so the split/merge
/// scope never completes: engines must detect the deadlock at quiescence
/// and name the stuck merge.
FanoutBuild buildBrokenFanout(FanoutSpec spec);

/// Deployment with the master on node 0 and worker i on node 1 + i.
flow::Deployment spreadDeployment(const FanoutBuild& build);
/// Deployment with every thread on a single node.
flow::Deployment singleNodeDeployment(const FanoutBuild& build);

} // namespace dps::test
