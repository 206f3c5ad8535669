// Quickstart: the paper's Fig. 1 flow graph — split, parallel compute,
// merge — written once and executed twice:
//   1. on the discrete-event simulator (predicting its running time on an
//      8-node Fast-Ethernet cluster of 2006-era workstations), and
//   2. on the OS-thread runtime engine (actually computing the result).
//
//   $ ./examples/quickstart --jobs=32 --workers=8
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/engine.hpp"
#include "flow/graph.hpp"
#include "flow/ops.hpp"
#include "flow/routing.hpp"
#include "net/profile.hpp"
#include "runtime/engine.hpp"
#include "support/cli.hpp"
#include "trace/gantt.hpp"

using namespace dps;

namespace {

// ---- data objects -------------------------------------------------------

struct WorkItem final : serial::ObjectBase {
  std::int64_t index = 0;
  std::vector<double> samples; // payload whose size drives transfer costs
  std::size_t wireSize() const override { return serial::byteCount(index, samples); }
};

struct Result final : serial::ObjectBase {
  std::int64_t index = 0;
  double mean = 0;
  std::size_t wireSize() const override { return serial::byteCount(index, mean); }
};

struct Report final : serial::ObjectBase {
  double grandMean = 0;
  std::int64_t count = 0;
  std::size_t wireSize() const override { return serial::byteCount(grandMean, count); }
};

// ---- operations ---------------------------------------------------------

/// Split: generate `jobs` work items (paper: "divide the incoming data
/// objects into smaller objects representing subtasks").
class Generate final : public flow::QueueEmitter {
public:
  Generate(std::int32_t jobs, std::int32_t samplesPerJob)
      : jobs_(jobs), samples_(samplesPerJob) {}
  void onInput(flow::OpContext& ctx, const serial::ObjectBase&) override {
    for (std::int32_t j = 0; j < jobs_; ++j) {
      auto item = std::make_shared<WorkItem>();
      item->index = j;
      if (ctx.allocatePayloads()) {
        item->samples.resize(samples_);
        for (auto& s : item->samples) s = ctx.rng().uniform();
      } else {
        item->samples.resize(samples_); // quickstart always allocates
      }
      // Generating one item costs ~50 us of master CPU in the model.
      enqueue(std::move(item), 0, microseconds(50));
    }
  }

private:
  std::int32_t jobs_;
  std::int32_t samples_;
};

/// Leaf: numeric work on the payload.  ctx.kernel() runs the real loop
/// under direct execution and charges the modeled duration under PDEXEC.
class Analyze final : public flow::Operation {
public:
  void onInput(flow::OpContext& ctx, const serial::ObjectBase& in) override {
    const auto& item = dynamic_cast<const WorkItem&>(in);
    auto out = std::make_shared<Result>();
    out->index = item.index;
    // Model: ~4 ns per sample per pass on the 2006 reference machine.
    const auto modeled = scale(microseconds(4), static_cast<double>(item.samples.size()) / 1000.0);
    ctx.kernel(scale(modeled, 1000.0), [&] {
      double acc = 0;
      for (int pass = 0; pass < 1000; ++pass)
        for (double s : item.samples) acc += s * 1.0000001;
      out->mean = acc / (1000.0 * static_cast<double>(item.samples.size()));
    });
    ctx.post(std::move(out));
  }
};

/// Merge: aggregate results into one report.
class Aggregate final : public flow::Operation {
public:
  void onInput(flow::OpContext& ctx, const serial::ObjectBase& in) override {
    ctx.charge(microseconds(20));
    sum_ += dynamic_cast<const Result&>(in).mean;
    ++count_;
  }
  void onAllInputsDone(flow::OpContext& ctx) override {
    auto report = std::make_shared<Report>();
    report->count = count_;
    report->grandMean = count_ ? sum_ / static_cast<double>(count_) : 0.0;
    ctx.post(std::move(report));
  }

private:
  double sum_ = 0;
  std::int64_t count_ = 0;
};

} // namespace

int run(Cli& cli) {
  const auto jobs = static_cast<std::int32_t>(cli.integer("jobs", 32, "work items"));
  const auto workers = static_cast<std::int32_t>(cli.integer("workers", 8, "worker threads"));
  const auto samples =
      static_cast<std::int32_t>(cli.integer("samples", 20000, "doubles per item"));
  cli.finish();

  // --- build the flow graph (paper Fig. 1) -------------------------------
  flow::FlowGraph graph;
  const auto master = graph.addGroup("master");
  const auto pool = graph.addGroup("pool");
  const auto split = graph.addSplit("generate", master, flow::makeOp<Generate>(jobs, samples));
  const auto leaf = graph.addLeaf("analyze", pool, flow::makeOp<Analyze>());
  const auto merge = graph.addMerge("aggregate", master, flow::makeOp<Aggregate>());
  graph.setEntry(split);
  graph.connect(split, 0, leaf, flow::roundRobinActive());
  graph.pair(split, 0, merge);
  graph.connect(leaf, 0, merge, flow::routeTo(0));
  graph.connectOutput(merge, 0);

  flow::Program program;
  program.graph = &graph;
  // Master on node 0, workers on nodes 1..workers.
  program.deployment.nodeCount = workers + 1;
  program.deployment.groupNodes.resize(2);
  program.deployment.groupNodes[master] = {0};
  for (std::int32_t w = 0; w < workers; ++w)
    program.deployment.groupNodes[pool].push_back(1 + w);
  program.inputs.push_back(std::make_shared<WorkItem>());

  // --- 1. predict on the simulator ---------------------------------------
  core::SimConfig sc;
  sc.profile = net::ultraSparc440();
  sc.mode = core::ExecutionMode::Pdexec;
  core::SimEngine sim(sc);
  auto predicted = sim.run(program);
  std::printf("predicted on %s: %s for %d jobs on %d workers\n",
              sc.profile.name.c_str(), formatDuration(predicted.makespan).c_str(), jobs,
              workers);
  std::printf("  %llu atomic steps, %llu messages, %.1f KB over the network\n",
              static_cast<unsigned long long>(predicted.counters.steps),
              static_cast<unsigned long long>(predicted.counters.messages),
              static_cast<double>(predicted.counters.networkBytes) / 1024.0);
  std::printf("\nper-node activity (predicted):\n%s\n",
              trace::renderGantt(*predicted.trace, simEpoch(),
                                 simEpoch() + predicted.makespan, 72)
                  .c_str());

  // --- 2. run for real on OS threads --------------------------------------
  rt::RuntimeEngine runtime;
  auto real = runtime.run(program);
  const auto& report = dynamic_cast<const Report&>(*real.outputs.at(0));
  std::printf("real run on %d OS threads: wall %.3fs, grand mean = %.6f over %lld items\n",
              workers + 1, real.wallSeconds, report.grandMean,
              static_cast<long long>(report.count));
  return 0;
}

int main(int argc, char** argv) { return runMain(argc, argv, run); }
