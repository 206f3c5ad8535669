// Property-based and fuzz tests: randomized inputs, structural invariants.
#include <gtest/gtest.h>

#include <map>

#include "core/engine.hpp"
#include "des/scheduler.hpp"
#include "net/network.hpp"
#include "serial/object.hpp"
#include "support/rng.hpp"
#include "test_graphs.hpp"

namespace dps {
namespace {

// --- scheduler fuzz -------------------------------------------------------

TEST(SchedulerFuzz, RandomScheduleAndCancelKeepsInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    des::Scheduler sched;
    std::vector<des::EventId> pending;
    int fired = 0;
    int scheduled = 0;
    int cancelled = 0;
    SimTime lastFired = simEpoch();
    bool monotonic = true;

    for (int i = 0; i < 2000; ++i) {
      const auto roll = rng.below(10);
      if (roll < 6) {
        // Schedule at a random future offset.
        const auto delay = nanoseconds(static_cast<std::int64_t>(rng.below(1000000)));
        pending.push_back(sched.scheduleAfter(delay, [&] {
          if (sched.now() < lastFired) monotonic = false;
          lastFired = sched.now();
          ++fired;
        }));
        ++scheduled;
      } else if (roll < 8 && !pending.empty()) {
        const auto idx = rng.below(pending.size());
        if (sched.cancel(pending[idx])) ++cancelled;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        sched.step();
      }
    }
    sched.run();
    EXPECT_TRUE(monotonic) << "seed " << seed;
    EXPECT_EQ(fired + cancelled, scheduled) << "seed " << seed;
    EXPECT_TRUE(sched.empty());
  }
}

// --- network fuzz ---------------------------------------------------------

TEST(NetworkFuzz, RandomTransfersRespectPhysicalBounds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 97);
    des::Scheduler sched;
    net::StarNetwork::Config cfg;
    cfg.latency = microseconds(100);
    cfg.bytesPerSec = 10e6;
    cfg.localDelivery = microseconds(1);
    net::StarNetwork net(sched, cfg, 6);

    struct Sent {
      SimTime at{};
      std::size_t bytes = 0;
      bool crossNode = false;
      SimTime delivered{};
    };
    auto sent = std::make_shared<std::vector<Sent>>();

    for (int i = 0; i < 300; ++i) {
      const auto src = static_cast<net::NodeIndex>(rng.below(6));
      const auto dst = static_cast<net::NodeIndex>(rng.below(6));
      const std::size_t bytes = 64 + rng.below(1 << 18);
      const auto launchAt = nanoseconds(static_cast<std::int64_t>(rng.below(50000000)));
      sched.scheduleAfter(launchAt, [&net, &sched, sent, src, dst, bytes] {
        const std::size_t idx = sent->size();
        sent->push_back({sched.now(), bytes, src != dst, {}});
        net.send(src, dst, bytes, [&sched, sent, idx] {
          (*sent)[idx].delivered = sched.now();
        });
      });
    }
    sched.run();

    ASSERT_EQ(sent->size(), 300u);
    for (const auto& s : *sent) {
      ASSERT_GT(s.delivered, s.at); // everything delivered, time advanced
      if (s.crossNode) {
        // Never faster than the uncontended l + s/b bound.
        EXPECT_GE(s.delivered - s.at, net.uncontendedTime(s.bytes));
      } else {
        EXPECT_EQ(s.delivered - s.at, cfg.localDelivery);
      }
    }
    // Links fully drained.
    for (net::NodeIndex n = 0; n < 6; ++n) {
      EXPECT_EQ(net.activeIncoming(n), 0);
      EXPECT_EQ(net.activeOutgoing(n), 0);
    }
  }
}

TEST(NetworkFuzz, DeterministicAcrossIdenticalRuns) {
  auto runOnce = [](std::uint64_t seed) {
    Rng rng(seed);
    des::Scheduler sched;
    net::StarNetwork::Config cfg;
    cfg.latency = microseconds(80);
    cfg.bytesPerSec = 5e6;
    net::StarNetwork net(sched, cfg, 4);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 200; ++i) {
      const auto src = static_cast<net::NodeIndex>(rng.below(4));
      const auto dst = static_cast<net::NodeIndex>((src + 1 + rng.below(3)) % 4);
      const std::size_t bytes = 100 + rng.below(100000);
      const auto at = nanoseconds(static_cast<std::int64_t>(rng.below(10000000)));
      sched.scheduleAfter(at, [&net, &sched, &checksum, src, dst, bytes] {
        net.send(src, dst, bytes, [&sched, &checksum] {
          checksum = checksum * 31 + sched.now().time_since_epoch().count();
        });
      });
    }
    sched.run();
    return checksum;
  };
  EXPECT_EQ(runOnce(7), runOnce(7));
  EXPECT_NE(runOnce(7), runOnce(8));
}

// --- wire-size fuzz ---------------------------------------------------------

struct FuzzObj final : serial::ObjectBase {
  std::int32_t a = 0;
  std::int64_t b = 0;
  double c = 0;
  std::string s;
  std::vector<double> v;
  std::vector<std::pair<std::int32_t, std::string>> pairs;
  std::size_t wireSize() const override { return serial::byteCount(a, b, c, s, v, pairs); }
};

TEST(SerialFuzz, RandomObjectsSizeToTheirClosedFormLayout) {
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    FuzzObj obj;
    obj.s.assign(rng.below(200), 'x');
    obj.v.resize(rng.below(100));
    const auto nPairs = rng.below(10);
    // Layout: i32 + i64 + f64, then u64 length + bytes for the string, u64
    // length + doubles for the vector, u64 length + (i32 + u64 length +
    // chars) per pair.
    std::size_t expected = 4 + 8 + 8 + (8 + obj.s.size()) + (8 + obj.v.size() * 8) + 8;
    for (std::uint64_t p = 0; p < nPairs; ++p) {
      obj.pairs.emplace_back(static_cast<std::int32_t>(rng()), std::string(rng.below(20), 'q'));
      expected += 4 + 8 + obj.pairs.back().second.size();
    }
    EXPECT_EQ(obj.wireSize(), expected);
  }
}

// --- engine sweep: conservation across the parameter grid ------------------

struct GridParam {
  std::int32_t jobs;
  std::int32_t workers;
  std::int32_t fc;
};

class FanoutGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(FanoutGrid, MessagesAndResultsConserved) {
  const auto& p = GetParam();
  test::FanoutSpec spec;
  spec.jobs = p.jobs;
  spec.workers = p.workers;
  spec.fcLimit = p.fc;
  spec.payloadBytes = 256;
  auto b = test::buildFanout(spec);

  core::SimConfig cfg;
  cfg.profile = net::PlatformProfile{};
  core::SimEngine engine(cfg);
  flow::Program prog;
  prog.graph = b.graph.get();
  prog.deployment = test::spreadDeployment(b);
  prog.inputs = b.inputs;
  auto result = engine.run(prog);

  const auto& sum = dynamic_cast<const test::Sum&>(*result.outputs.at(0));
  EXPECT_EQ(sum.count, p.jobs);
  EXPECT_EQ(sum.total, 2LL * (static_cast<std::int64_t>(p.jobs) * (p.jobs - 1) / 2));
  // jobs out + jobs back + 1 output.
  EXPECT_EQ(result.counters.messages, static_cast<std::uint64_t>(2 * p.jobs + 1));
  // steps: 1 split input + jobs emits + jobs computes + jobs absorbs + 1 finalize.
  EXPECT_EQ(result.counters.steps, static_cast<std::uint64_t>(3 * p.jobs + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FanoutGrid,
    ::testing::Values(GridParam{1, 1, 0}, GridParam{7, 3, 0}, GridParam{16, 4, 0},
                      GridParam{16, 4, 1}, GridParam{16, 4, 3}, GridParam{33, 5, 2},
                      GridParam{100, 2, 0}, GridParam{100, 7, 5}, GridParam{64, 8, 8},
                      GridParam{13, 13, 1}),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return "j" + std::to_string(info.param.jobs) + "_w" + std::to_string(info.param.workers) +
             "_fc" + std::to_string(info.param.fc);
    });

// --- CPU model conservation -------------------------------------------------

TEST(CpuModelProperty, WorkIsConservedUnderSharing) {
  // However steps interleave, the total virtual time to finish all steps on
  // one node equals the total work when the node is never idle.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 13);
    des::Scheduler sched;
    core::CpuModel::Config cfg;
    cfg.sharing = true;
    cfg.commOverhead = false;
    core::CpuModel cpu(sched, cfg, 1);
    SimDuration total{};
    const int n = 20;
    for (int i = 0; i < n; ++i) {
      const auto work = microseconds(static_cast<std::int64_t>(1 + rng.below(5000)));
      total += work;
      cpu.startStep(0, work, [] {});
    }
    sched.run();
    EXPECT_EQ(sched.now().time_since_epoch(), total) << "seed " << seed;
  }
}

} // namespace
} // namespace dps
