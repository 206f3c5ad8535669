#include "test_graphs.hpp"

#include "flow/ops.hpp"
#include "flow/routing.hpp"

namespace dps::test {

namespace {

class FanSplit final : public flow::QueueEmitter {
public:
  explicit FanSplit(FanoutSpec spec) : spec_(spec) {}
  void onInput(flow::OpContext&, const serial::ObjectBase&) override {
    for (std::int32_t j = 0; j < spec_.jobs; ++j) {
      auto item = std::make_shared<Item>();
      item->value = j;
      item->padding.assign(spec_.payloadBytes, static_cast<std::uint8_t>(j));
      enqueue(std::move(item), 0, spec_.splitCost);
    }
  }

private:
  FanoutSpec spec_;
};

class FanLeaf final : public flow::Operation {
public:
  explicit FanLeaf(FanoutSpec spec) : spec_(spec) {}
  void onInput(flow::OpContext& ctx, const serial::ObjectBase& in) override {
    const auto& item = dynamic_cast<const Item&>(in);
    ctx.charge(spec_.computeCost);
    if (spec_.leafMarker) ctx.marker("job", item.value);
    auto out = std::make_shared<Item>();
    out->value = item.value * 2;
    out->padding = item.padding;
    ctx.post(std::move(out));
  }

private:
  FanoutSpec spec_;
};

/// Leaf that forwards even-valued items to the merge and drops odd ones.
class LeakyLeaf final : public flow::Operation {
public:
  void onInput(flow::OpContext& ctx, const serial::ObjectBase& in) override {
    const auto& item = dynamic_cast<const Item&>(in);
    if (item.value % 2 != 0) return;
    auto out = std::make_shared<Item>();
    out->value = item.value;
    ctx.post(std::move(out), 0);
  }
};

class FanMerge final : public flow::Operation {
public:
  explicit FanMerge(FanoutSpec spec) : spec_(spec) {}
  void onInput(flow::OpContext& ctx, const serial::ObjectBase& in) override {
    const auto& item = dynamic_cast<const Item&>(in);
    ctx.charge(spec_.mergeCost);
    total_ += item.value;
    ++count_;
  }
  void onAllInputsDone(flow::OpContext& ctx) override {
    ctx.charge(spec_.finalizeCost);
    auto sum = std::make_shared<Sum>();
    sum->total = total_;
    sum->count = count_;
    ctx.post(std::move(sum));
  }

private:
  FanoutSpec spec_;
  std::int64_t total_ = 0;
  std::int64_t count_ = 0;
};

} // namespace

FanoutBuild buildFanout(FanoutSpec spec) {
  FanoutBuild b;
  b.spec = spec;
  b.graph = std::make_unique<flow::FlowGraph>();
  auto& g = *b.graph;
  b.master = g.addGroup("master");
  b.workers = g.addGroup("workers");

  using flow::makeOp;
  const auto split = g.addSplit("split", b.master, makeOp<FanSplit>(spec));
  const auto leaf = g.addLeaf("compute", b.workers, makeOp<FanLeaf>(spec));
  const auto merge = g.addMerge("merge", b.master, makeOp<FanMerge>(spec));

  g.setEntry(split, 0);
  g.connect(split, 0, leaf, flow::roundRobinActive());
  g.pair(split, 0, merge);
  if (spec.fcLimit > 0) g.setFlowControl(split, 0, flow::FlowControlSpec{spec.fcLimit});
  g.connect(leaf, 0, merge, flow::routeTo(0));
  g.connectOutput(merge, 0);

  auto start = std::make_shared<Item>();
  start->value = -1;
  b.inputs.push_back(std::move(start));
  return b;
}

FanoutBuild buildBrokenFanout(FanoutSpec spec) {
  FanoutBuild b;
  b.spec = spec;
  b.graph = std::make_unique<flow::FlowGraph>();
  auto& g = *b.graph;
  b.master = g.addGroup("master");
  b.workers = g.addGroup("workers");

  using flow::makeOp;
  const auto split = g.addSplit("split", b.master, makeOp<FanSplit>(spec));
  const auto leaf = g.addLeaf("leaky", b.workers, makeOp<LeakyLeaf>());
  const auto merge = g.addMerge("merge", b.master, makeOp<FanMerge>(spec));

  g.setEntry(split, 0);
  g.connect(split, 0, leaf, flow::roundRobinActive());
  g.pair(split, 0, merge);
  g.connect(leaf, 0, merge, flow::routeTo(0));
  g.connectOutput(merge, 0);

  auto start = std::make_shared<Item>();
  b.inputs.push_back(std::move(start));
  return b;
}

flow::Deployment spreadDeployment(const FanoutBuild& build) {
  flow::Deployment d;
  d.nodeCount = 1 + build.spec.workers;
  d.groupNodes.resize(2);
  d.groupNodes[build.master] = {0};
  for (std::int32_t i = 0; i < build.spec.workers; ++i)
    d.groupNodes[build.workers].push_back(1 + i);
  return d;
}

flow::Deployment singleNodeDeployment(const FanoutBuild& build) {
  flow::Deployment d;
  d.nodeCount = 1;
  d.groupNodes.resize(2);
  d.groupNodes[build.master] = {0};
  d.groupNodes[build.workers].assign(static_cast<std::size_t>(build.spec.workers), 0);
  return d;
}

} // namespace dps::test
