#include "experiments/calibration.hpp"

#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "flow/graph.hpp"
#include "flow/ops.hpp"
#include "flow/routing.hpp"
#include "support/error.hpp"

namespace dps::exp {

namespace {

/// Probe payload: opaque bytes of a configurable size.
struct ProbeMsg final : serial::ObjectBase {
  std::int64_t index = 0;
  std::vector<std::uint8_t> payload;
  std::size_t wireSize() const override { return serial::byteCount(index, payload); }
};

struct ProbeDone final : serial::ObjectBase {
  std::int64_t count = 0;
  std::size_t wireSize() const override { return serial::byteCount(count); }
};

class ProbeSplit final : public flow::QueueEmitter {
public:
  ProbeSplit(int rounds, std::size_t bytes) : rounds_(rounds), bytes_(bytes) {}
  void onInput(flow::OpContext&, const serial::ObjectBase&) override {
    for (int i = 0; i < rounds_; ++i) {
      auto msg = std::make_shared<ProbeMsg>();
      msg->index = i;
      msg->payload.assign(bytes_, static_cast<std::uint8_t>(i));
      enqueue(std::move(msg));
    }
  }

private:
  int rounds_;
  std::size_t bytes_;
};

class ProbeSink final : public flow::Operation {
public:
  void onInput(flow::OpContext&, const serial::ObjectBase&) override { ++count_; }
  void onAllInputsDone(flow::OpContext& ctx) override {
    auto done = std::make_shared<ProbeDone>();
    done->count = count_;
    ctx.post(std::move(done));
  }

private:
  std::int64_t count_ = 0;
};

/// Cross-node transfer durations (in trace order) for `rounds` probes of
/// `bytes` each, serialized one at a time (flow control 1) so they never
/// contend.
std::vector<SimDuration> probeDurations(const core::SimConfig& cfg, int rounds,
                                        std::size_t bytes) {
  flow::FlowGraph g;
  const auto sender = g.addGroup("sender");
  const auto receiver = g.addGroup("receiver");
  using flow::makeOp;
  const auto split = g.addSplit("probe", sender, makeOp<ProbeSplit>(rounds, bytes));
  const auto sink = g.addMerge("sink", receiver, makeOp<ProbeSink>());
  g.setEntry(split);
  g.connect(split, 0, sink, flow::routeTo(0));
  g.pair(split, 0, sink);
  g.setFlowControl(split, 0, flow::FlowControlSpec{1});
  g.connectOutput(sink, 0);

  flow::Program prog;
  prog.graph = &g;
  prog.deployment.nodeCount = 2;
  prog.deployment.groupNodes = {{0}, {1}};
  prog.inputs.push_back(std::make_shared<ProbeMsg>());

  core::SimConfig probeCfg = cfg;
  probeCfg.recordTrace = true;
  core::SimEngine engine(probeCfg);
  auto result = engine.run(prog);
  DPS_CHECK(result.trace != nullptr, "calibration needs trace recording");

  std::vector<SimDuration> durations;
  durations.reserve(static_cast<std::size_t>(rounds));
  for (const auto& t : result.trace->transfers()) {
    if (t.src == t.dst) continue;
    durations.push_back(t.end - t.start);
  }
  DPS_CHECK(!durations.empty(), "calibration probes produced no transfers");
  return durations;
}

/// Probe sizes of the two-point fit.
constexpr std::size_t kSmallProbeBytes = 256;
constexpr std::size_t kLargeProbeBytes = 1 << 20;

SimDuration meanOf(const std::vector<SimDuration>& durations) {
  SimDuration total{};
  for (SimDuration d : durations) total += d;
  return SimDuration{total.count() / static_cast<std::int64_t>(durations.size())};
}

} // namespace

CalibrationResult calibratePlatform(const core::SimConfig& referenceCfg,
                                    std::uint64_t fidelitySeed, int rounds) {
  DPS_CHECK(rounds > 0, "calibration needs probes");
  core::SimConfig cfg = referenceCfg;
  cfg.fidelity.seed = fidelitySeed;

  CalibrationResult fit;
  const auto smallProbes = probeDurations(cfg, rounds, kSmallProbeBytes);
  const auto largeProbes = probeDurations(cfg, rounds, kLargeProbeBytes);
  fit.smallMean = meanOf(smallProbes);
  fit.largeMean = meanOf(largeProbes);
  fit.probeCount = smallProbes.size() + largeProbes.size();

  // Two-point fit of t = l + s/b.  The envelope adds a constant to both
  // probe sizes, so it cancels in the bandwidth estimate.
  const double dSec = toSeconds(fit.largeMean - fit.smallMean);
  DPS_CHECK(dSec > 0, "large probes not slower than small ones");
  fit.bytesPerSec = static_cast<double>(kLargeProbeBytes - kSmallProbeBytes) / dSec;
  fit.latency = fit.smallMean - seconds(static_cast<double>(kSmallProbeBytes) / fit.bytesPerSec);
  DPS_CHECK(fit.latency > SimDuration::zero(), "fitted negative latency");

  // Goodness of fit over the individual probes (the means sit on the fitted
  // line by construction; the spread around it does not).
  double residual = 0;
  auto accumulate = [&](const std::vector<SimDuration>& probes, std::size_t bytes) {
    const double model =
        toSeconds(fit.latency) + static_cast<double>(bytes) / fit.bytesPerSec;
    for (SimDuration d : probes) residual += std::abs(toSeconds(d) - model) / model;
  };
  accumulate(smallProbes, kSmallProbeBytes);
  accumulate(largeProbes, kLargeProbeBytes);
  fit.residual = residual / static_cast<double>(fit.probeCount);
  return fit;
}

net::PlatformProfile applyCalibration(net::PlatformProfile base, const CalibrationResult& fit) {
  base.latency = fit.latency;
  base.bandwidthBytesPerSec = fit.bytesPerSec;
  return base;
}

} // namespace dps::exp
