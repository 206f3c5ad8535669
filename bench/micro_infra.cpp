// Microbenchmarks of the simulation infrastructure (google-benchmark):
// event-queue throughput, fair-share network replanning, wire-size
// counting, thread-pool dispatch, and end-to-end simulator event rates.
//
// Scheduler hot-path history: the queue moved from std::priority_queue
// (whose top() forces a per-event Entry copy and whose storage cannot be
// pre-reserved) to an explicit reserved std::vector heap with move-only
// push/pop, then to an indexed heap over pooled action slots that cancels
// and reschedules in place; BM_SchedulerThroughput and BM_SchedulerReuse
// are the yardsticks for the schedule/fire path, BM_NetworkFairShare for
// the replan (reschedule) path.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/engine.hpp"
#include "des/scheduler.hpp"
#include "lu/app.hpp"
#include "lu/builder.hpp"
#include "lu/objects.hpp"
#include "net/network.hpp"
#include "net/profile.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace dps;

void BM_SchedulerThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    des::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i)
      sched.scheduleAfter(nanoseconds(static_cast<std::int64_t>((i * 7919) % 100000)), [] {});
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerThroughput)->Arg(10000)->Arg(100000);

// Steady-state schedule/fire rate of a long-lived scheduler: reset() keeps
// the heap's reserved capacity, so refills never touch the allocator.
void BM_SchedulerReuse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  des::Scheduler sched(n);
  for (auto _ : state) {
    sched.reset();
    for (std::size_t i = 0; i < n; ++i)
      sched.scheduleAfter(nanoseconds(static_cast<std::int64_t>((i * 7919) % 100000)), [] {});
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SchedulerReuse)->Arg(10000)->Arg(100000);

// Fan-out overhead of the campaign substrate: items are trivial, so this
// measures claim/complete bookkeeping, not useful work.
void BM_ParallelForDispatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(ThreadPool::hardwareJobs());
  std::atomic<std::uint64_t> sum{0};
  for (auto _ : state) {
    parallelFor(pool, n, [&](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  benchmark::DoNotOptimize(sum.load());
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(64)->Arg(1024);

void BM_NetworkFairShare(benchmark::State& state) {
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    des::Scheduler sched;
    net::StarNetwork::Config cfg;
    cfg.latency = microseconds(100);
    cfg.bytesPerSec = 100e6;
    net::StarNetwork net(sched, cfg, 8);
    for (int i = 0; i < transfers; ++i)
      net.send(i % 8, (i + 1) % 8, 100000, [] {});
    sched.run();
    benchmark::DoNotOptimize(net.bytesSent());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(transfers) * state.iterations());
}
BENCHMARK(BM_NetworkFairShare)->Arg(64)->Arg(512);

void BM_SizingSerializer(benchmark::State& state) {
  lu::MultRequest req;
  req.a = lu::BlockPayload::phantomOf(324, 324);
  req.b = lu::BlockPayload::phantomOf(324, 324);
  for (auto _ : state) benchmark::DoNotOptimize(req.wireSize());
}
BENCHMARK(BM_SizingSerializer);

void BM_LuSimulationEndToEnd(benchmark::State& state) {
  const auto r = static_cast<std::int32_t>(state.range(0));
  std::uint64_t steps = 0;
  for (auto _ : state) {
    lu::LuConfig cfg;
    cfg.n = 2592;
    cfg.r = r;
    cfg.workers = 8;
    core::SimConfig sc;
    sc.profile = net::ultraSparc440();
    sc.mode = core::ExecutionMode::Pdexec;
    sc.allocatePayloads = false;
    sc.recordTrace = false;
    core::SimEngine engine(sc);
    lu::LuBuild build = lu::buildLu(cfg, lu::KernelCostModel::ultraSparc440(), false);
    auto result = lu::runLu(engine, build);
    steps += result.counters.steps;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.counters["steps/s"] = benchmark::Counter(static_cast<double>(steps),
                                                 benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuSimulationEndToEnd)->Arg(324)->Arg(162)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
