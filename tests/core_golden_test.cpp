// Golden digests of the simulator's resource layer.
//
// Each test drives a seeded random mix of transfers and atomic steps on one
// des::Scheduler: a StarNetwork plus a CpuModel whose communication overhead
// follows the network through setActivityObserver, as in SimEngine.  The mix
// covers fan-in onto one node, transfers in both directions of the same
// pair, many launches at the same nanosecond, local (same-node) sends and
// zero-work steps, plus steps whose completion starts a transfer at the
// same instant.  Every completion folds its tag and its nanosecond, in
// firing order, into an FNV-1a digest, and the run's fired-event count
// closes it.  A change to the scheduler's tie order, to the network's
// equal-share settlement or to the CPU model's processor sharing moves a
// digest by reordering one completion or shifting it by one tick.  The
// whole-program digests in engine_golden_test rarely reach the paths where
// both ends of a transfer are replanned at the same instant; these do.
// The committed values were computed with the scheduler's lazy-cancel heap,
// before replanning moved events in place.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/cpu_model.hpp"
#include "des/scheduler.hpp"
#include "net/network.hpp"
#include "support/fingerprint.hpp"
#include "support/rng.hpp"

namespace dps {
namespace {

struct Mix {
  std::int32_t nodes = 6;
  int ops = 1000;
  /// Launch instants are multiples of `slot` below `slots * slot`; few
  /// slots means many launches share a nanosecond.
  std::uint64_t slots = 2000;
  SimDuration slot = microseconds(100);
  bool commOverhead = true;
  /// Draw sizes and work from a few round values, so that many
  /// completions tie at one nanosecond and only the tie order tells them
  /// apart.
  bool roundSizes = false;
};

std::uint64_t runMix(std::uint64_t seed, const Mix& m) {
  Rng rng(seed);
  des::Scheduler sched;
  net::StarNetwork::Config ncfg;
  ncfg.latency = microseconds(50);
  ncfg.bytesPerSec = 10e6;
  net::StarNetwork net(sched, ncfg, static_cast<std::size_t>(m.nodes));
  core::CpuModel::Config ccfg;
  ccfg.commOverhead = m.commOverhead;
  core::CpuModel cpu(sched, ccfg, m.nodes);
  net.setActivityObserver([&cpu](net::NodeIndex node, int in, int out) {
    cpu.setCommActivity(node, in, out);
  });

  Fingerprint fp;
  auto done = [&fp, &sched](std::uint64_t tag) {
    return [&fp, &sched, tag] { fp.add(tag).add(sched.now().time_since_epoch()); };
  };
  auto node = [&rng, &m] { return static_cast<net::NodeIndex>(rng.below(m.nodes)); };
  auto bytes = [&rng, &m] {
    return m.roundSizes ? std::size_t{1000} << rng.below(3)
                        : static_cast<std::size_t>(1 + rng.below(16 * 1024));
  };
  auto work = [&rng, &m] {
    if (rng.below(8) == 0) return SimDuration::zero();
    return m.roundSizes ? microseconds(100) * static_cast<std::int64_t>(1 + rng.below(3))
                        : nanoseconds(static_cast<std::int64_t>(rng.below(3000000)));
  };

  for (int i = 0; i < m.ops; ++i) {
    const auto tag = static_cast<std::uint64_t>(i) << 2;
    const SimTime at = simEpoch() + m.slot * static_cast<std::int64_t>(rng.below(m.slots));
    const auto roll = rng.below(100);
    if (roll < 35) {
      // Any pair, same-node sends included.
      const auto src = node(), dst = node();
      const auto b = bytes();
      sched.scheduleAt(at, [&, src, dst, b, tag] { net.send(src, dst, b, done(tag)); });
    } else if (roll < 50) {
      // Fan-in onto node 0.
      const auto src = 1 + static_cast<net::NodeIndex>(rng.below(m.nodes - 1));
      const auto b = bytes();
      sched.scheduleAt(at, [&, src, b, tag] { net.send(src, 0, b, done(tag)); });
    } else if (roll < 60) {
      // Both directions of one pair, launched together.
      const auto a = node();
      const auto b = static_cast<net::NodeIndex>((a + 1 + rng.below(m.nodes - 1)) % m.nodes);
      const auto ab = bytes(), ba = bytes();
      sched.scheduleAt(at, [&, a, b, ab, ba, tag] {
        net.send(a, b, ab, done(tag));
        net.send(b, a, ba, done(tag | 1));
      });
    } else if (roll < 90) {
      const auto n = node();
      const auto w = work();
      sched.scheduleAt(at, [&, n, w, tag] { cpu.startStep(n, w, done(tag)); });
    } else {
      // A step whose completion sends its result on at the same instant.
      const auto n = node(), dst = node();
      const auto w = work();
      const auto b = bytes();
      sched.scheduleAt(at, [&, n, dst, w, b, tag] {
        cpu.startStep(n, w, [&, n, dst, b, tag] {
          done(tag | 2)();
          net.send(n, dst, b, done(tag | 3));
        });
      });
    }
  }
  sched.run();
  EXPECT_TRUE(sched.empty());
  for (net::NodeIndex n = 0; n < m.nodes; ++n) {
    EXPECT_EQ(net.activeIncoming(n), 0);
    EXPECT_EQ(net.activeOutgoing(n), 0);
    EXPECT_EQ(cpu.runningSteps(n), 0);
  }
  fp.add(sched.firedCount());
  return fp.value();
}

std::uint64_t foldSeeds(const Mix& m) {
  Fingerprint fp;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) fp.add(runMix(seed, m));
  return fp.value();
}

TEST(CoreGoldenTest, MixedTraffic) {
  EXPECT_EQ(foldSeeds(Mix{}), 16950492122273944362ull);
}

TEST(CoreGoldenTest, CrowdedInstants) {
  Mix m;
  m.ops = 300;
  m.slots = 30;
  m.slot = milliseconds(1);
  EXPECT_EQ(foldSeeds(m), 4230395521959789735ull);
}

TEST(CoreGoldenTest, RoundSizesTie) {
  Mix m;
  m.nodes = 4;
  m.ops = 600;
  m.slots = 50;
  m.slot = milliseconds(1);
  m.roundSizes = true;
  EXPECT_EQ(foldSeeds(m), 9425904774325527483ull);
}

TEST(CoreGoldenTest, TwoNodes) {
  Mix m;
  m.nodes = 2;
  m.ops = 600;
  EXPECT_EQ(foldSeeds(m), 4268375055469744309ull);
}

TEST(CoreGoldenTest, ManyNodesNoCommOverhead) {
  Mix m;
  m.nodes = 24;
  m.slots = 400;
  m.commOverhead = false;
  EXPECT_EQ(foldSeeds(m), 3172030410613659077ull);
}

} // namespace
} // namespace dps
