// obs:: unit tests — registry fold semantics, snapshot determinism, JSON
// shape, and the trace-event sink.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace dps::obs {
namespace {

TEST(RegistryTest, DefaultHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();
  c.add(41);
  g.set(7.0);
  h.observe(0.5); // no registry, no crash, nothing recorded
}

TEST(RegistryTest, CountersSumAndInternIsIdempotent) {
  Registry reg;
  const Counter a = reg.counter("x");
  const Counter b = reg.counter("x"); // same metric, second handle
  a.add();
  b.add(2);
  EXPECT_EQ(reg.snapshot().counter("x"), 3u);
  EXPECT_EQ(reg.snapshot().counter("absent"), 0u);
}

TEST(RegistryTest, GaugeFoldsByMaxAcrossShards) {
  Registry reg;
  const Gauge g = reg.gauge("high_water");
  g.set(3.0);
  std::thread other([&] { g.set(7.0); }); // second thread = second shard
  other.join();
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("high_water"), 7.0);
  // A later lower value on this thread's shard cannot win the max fold.
  g.set(1.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("high_water"), 7.0);
}

TEST(RegistryTest, GaugeIsHighWaterOnOneThread) {
  Registry reg;
  const Gauge g = reg.gauge("high_water");
  g.set(7.0);
  g.set(1.0); // same thread: the later, lower value must not win either
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("high_water"), 7.0);
}

TEST(RegistryTest, UnsetGaugeReadsZero) {
  Registry reg;
  (void)reg.gauge("never_set");
  EXPECT_DOUBLE_EQ(reg.snapshot().gauge("never_set"), 0.0);
}

TEST(RegistryTest, HistogramBucketsMinMaxSumQuantiles) {
  Registry reg;
  const Histogram h = reg.histogram("lat", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  h.observe(10.0); // overflow bucket
  const auto snap = reg.snapshot();
  const auto* v = snap.histogram("lat");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 4u);
  EXPECT_DOUBLE_EQ(v->sum, 15.0);
  EXPECT_DOUBLE_EQ(v->min, 0.5);
  EXPECT_DOUBLE_EQ(v->max, 10.0);
  ASSERT_EQ(v->counts.size(), 4u); // 3 bounds + overflow
  EXPECT_EQ(v->counts[0], 1u);
  EXPECT_EQ(v->counts[1], 1u);
  EXPECT_EQ(v->counts[2], 1u);
  EXPECT_EQ(v->counts[3], 1u);
  EXPECT_DOUBLE_EQ(v->quantile(0.25), 1.0); // first bucket's upper bound
  EXPECT_DOUBLE_EQ(v->quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(v->quantile(0.99), 10.0); // overflow reports the exact max
}

TEST(RegistryTest, SingleObservationQuantileIsClampedToMax) {
  Registry reg;
  reg.histogram("one", {1.0, 2.0}).observe(0.5);
  const auto snap = reg.snapshot();
  // The bucket bound is 1.0 but only 0.5 was ever seen.
  EXPECT_DOUBLE_EQ(snap.histogram("one")->quantile(0.5), 0.5);
}

TEST(RegistryTest, EmptyHistogramIsZeroedInSnapshot) {
  Registry reg;
  (void)reg.histogram("empty", {1.0});
  const auto snap = reg.snapshot();
  const auto* v = snap.histogram("empty");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, 0u);
  EXPECT_EQ(v->counts, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_DOUBLE_EQ(v->quantile(0.5), 0.0);
}

TEST(RegistryTest, ConcurrentShardsFoldToExactTotals) {
  Registry reg;
  const Counter c = reg.counter("events");
  const Histogram h = reg.histogram("vals", {10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<double>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("events"), static_cast<std::uint64_t>(kThreads * kPerThread));
  const auto* v = snap.histogram("vals");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(v->min, 0.0);
  EXPECT_DOUBLE_EQ(v->max, kThreads - 1.0);
}

TEST(RegistryTest, JsonIsNameSortedAndRegistrationOrderIndependent) {
  Registry first;
  first.counter("b").add(2);
  first.counter("a").add(1);
  first.gauge("z").set(3.0);
  Registry second; // same facts, opposite registration order
  second.gauge("z").set(3.0);
  second.counter("a").add(1);
  second.counter("b").add(2);
  EXPECT_EQ(first.jsonString(), second.jsonString());
  const std::string json = first.jsonString();
  EXPECT_NE(json.find("\"counters\":{\"a\":1,\"b\":2}"), std::string::npos) << json;
}

TEST(RegistryTest, HistogramJsonCarriesBucketsWithInfUpperBound) {
  Registry reg;
  reg.histogram("h", {1.0, 2.0}).observe(5.0);
  const std::string json = reg.jsonString();
  EXPECT_NE(json.find("\"le\":\"+Inf\",\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1,\"sum\":5"), std::string::npos) << json;
}

TEST(TraceSinkTest, EmitsChromeTraceEventDocument) {
  TraceSink sink;
  sink.processName(1, "policy: fcfs");
  sink.completeSpan("job", "run", 1000.0, 500.0, 1, 0, "{\"alloc\":4}");
  sink.instant("backfill", "sched", 1200.0, 1, 0);
  EXPECT_EQ(sink.events().size(), 3u);
  const std::string json = sink.jsonString();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"alloc\":4}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"name\":\"policy: fcfs\"}"), std::string::npos) << json;
}

TEST(TraceSinkTest, WriteFileFailsCleanlyOnBadPath) {
  TraceSink sink;
  EXPECT_FALSE(sink.writeFile("/nonexistent-dir/trace.json"));
}

TEST(RecorderTest, WaitAttributionHelpers) {
  WaitAttribution a;
  EXPECT_EQ(a.sumNs(), 0);
  EXPECT_EQ(a.dominant(), WaitReason::HeadOfLine); // lowest index on all-zero
  EXPECT_DOUBLE_EQ(a.dominantShare(), 0.0);        // never waited -> 0
  a.byReason[1] = 300;
  a.byReason[4] = 700;
  a.totalNs = 1000;
  EXPECT_EQ(a.sumNs(), 1000);
  EXPECT_EQ(a.dominant(), WaitReason::ShadowTime);
  EXPECT_DOUBLE_EQ(a.dominantShare(), 0.7);
  a.byReason[0] = 700; // tie with reason 4: lowest index wins, deterministic
  a.totalNs = 1700;
  EXPECT_EQ(a.dominant(), WaitReason::HeadOfLine);
  // Every reason has a distinct slug and label.
  for (std::size_t r = 0; r < kWaitReasonCount; ++r)
    for (std::size_t s = r + 1; s < kWaitReasonCount; ++s) {
      EXPECT_STRNE(waitReasonName(static_cast<WaitReason>(r)),
                   waitReasonName(static_cast<WaitReason>(s)));
      EXPECT_STRNE(waitReasonLabel(static_cast<WaitReason>(r)),
                   waitReasonLabel(static_cast<WaitReason>(s)));
    }
}

/// A hand-built record: job 1 starts and shrinks, job 2 is blocked and
/// waits 1 s -> 3 s, job 3 backfills past it.
Recorder handBuiltRecord() {
  Recorder rec(/*timeseriesCadenceSec=*/0); // no timeseries at cadence 0
  rec.beginRun("fcfs-rigid", 4, 7);
  rec.admitDecision(0.0, 1, 4, 4, 4, /*started=*/true, WaitReason::HeadOfLine,
                    "full-request", 0, 0);
  rec.admitDecision(1.0, 2, 4, 4, 0, /*started=*/false, WaitReason::InsufficientFree,
                    "full-request", 0, 0);
  rec.backfillCandidate(1.0, 3, 2, 2, 2, 2, /*started=*/true, WaitReason::HeadOfLine,
                        "full-request", 0, 0);
  rec.depthCutoff(1.0, 4);
  rec.backfillPass(1.0, 2, 4, 9.5, 2, 1, 1);
  rec.reallocDecision(2.0, 1, 4, 2, 0, 64.0, "step-down", 0.4, 0.5);
  rec.migrationDelay(2.0, 1, 0.25, 64.0);
  rec.waitInterval(2, 1000000000, 3000000000, WaitReason::InsufficientFree);
  rec.jobSummary(1, "lu-tiny", 0.0, 0.0, 4.0, false, WaitAttribution{});
  WaitAttribution wait;
  wait.byReason[1] = 2000000000;
  wait.totalNs = 2000000000;
  rec.jobSummary(2, "lu-tiny", 1.0, 3.0, 5.0, false, wait);
  rec.endRun(5.0);
  return rec;
}

TEST(RecorderTest, JsonCarriesDecisionsIntervalsJobsAndTimeseries) {
  const Recorder rec = handBuiltRecord();
  EXPECT_EQ(rec.decisionCount(), 7u);
  EXPECT_EQ(rec.sampleCount(), 0u);
  const std::string json = rec.jsonString();
  for (const char* needle :
       {"\"policy\":\"fcfs-rigid\"", "\"kind\":\"admit\"", "\"kind\":\"backfill_candidate\"",
        "\"kind\":\"depth_cutoff\"", "\"kind\":\"backfill_pass\"", "\"kind\":\"realloc\"",
        "\"kind\":\"migration\"", "\"reason\":\"insufficient_free\"", "\"rule\":\"step-down\"",
        "\"shadow_sec\":9.5", "\"wait_intervals\":", "\"dominant\":\"insufficient_free\"",
        "\"dominant_share\":1", "\"points\":0"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " missing in " << json;
  // The explain narrative names the job's dominant reason, human-readable.
  const std::string story = rec.explain(2);
  EXPECT_NE(story.find("dominant wait reason: insufficient free nodes"), std::string::npos)
      << story;
  EXPECT_NE(story.find("arrived"), std::string::npos) << story;
}

TEST(RecorderTest, TraceRestatesTheRecord) {
  // Every event restates a record row: the wait span is the 1 s -> 3 s
  // interval in microseconds, the backfill instant takes shadow_sec from
  // the pass that closes it, and job 1's run span sums its one realloc.
  // Job 2 started outside this record, so its queued span has no alloc.
  TraceSink sink;
  handBuiltRecord().writeTrace(sink, 3);
  EXPECT_EQ(sink.jsonString(),
            R"({"traceEvents":[{"name":"process_name","ph":"M","pid":3,"tid":0,)"
            R"("args":{"name":"policy: fcfs-rigid"}},)"
            R"({"name":"insufficient_free","cat":"wait","ph":"X","ts":1000000,"dur":2000000,)"
            R"("pid":3,"tid":2},)"
            R"({"name":"backfill","cat":"sched","ph":"i","ts":1000000,"s":"t","pid":3,"tid":3,)"
            R"("args":{"alloc":2,"shadow_sec":9.5,"spare":2}},)"
            R"({"name":"realloc","cat":"job","ph":"i","ts":2000000,"s":"t","pid":3,"tid":1,)"
            R"("args":{"from":4,"to":2,"bytes":64}},)"
            R"({"name":"migrate","cat":"job","ph":"X","ts":2000000,"dur":250000,"pid":3,"tid":1,)"
            R"("args":{"bytes":64}},)"
            R"({"name":"queued","cat":"queue","ph":"X","ts":0,"dur":0,"pid":3,"tid":1,)"
            R"("args":{"alloc":4}},)"
            R"({"name":"lu-tiny","cat":"job","ph":"X","ts":0,"dur":4000000,"pid":3,"tid":1,)"
            R"("args":{"reallocations":1,"migrated_bytes":64,"backfilled":false}},)"
            R"({"name":"queued","cat":"queue","ph":"X","ts":1000000,"dur":2000000,"pid":3,"tid":2,)"
            R"("args":{"alloc":0}},)"
            R"({"name":"lu-tiny","cat":"job","ph":"X","ts":3000000,"dur":2000000,"pid":3,"tid":2,)"
            R"("args":{"reallocations":0,"migrated_bytes":0,"backfilled":false}}]})");
}

TEST(RecorderTest, TimeseriesSamplesPiecewiseConstantState) {
  // Samples fire at k * cadence.  An instant strictly before a state change
  // carries the OLD state (the state is piecewise-constant between change
  // points), and endRun flushes every instant <= makespan with the final
  // state.
  Recorder rec(/*timeseriesCadenceSec=*/1.0);
  rec.beginRun("equipartition", 4, 1);
  rec.stateSample(0.0, 4, 0, 1, 0);  // sample k=0 pending until next change
  rec.stateSample(2.5, 2, 2, 1, 3);  // flushes k=0,1,2 with the OLD state
  rec.endRun(4.0);                   // flushes k=3,4 with the final state
  EXPECT_EQ(rec.sampleCount(), 5u);
  const std::string json = rec.jsonString();
  EXPECT_NE(json.find("\"t_sec\":[0,1,2,3,4]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"used_nodes\":[4,4,4,2,2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth\":[0,0,0,3,3]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cadence_sec\":1"), std::string::npos) << json;
}

TEST(ProgressMeterTest, RateLimitsAndExtrapolates) {
  WallClock clock;
  ProgressMeter meter(clock, /*minIntervalSec=*/3600.0);
  EXPECT_TRUE(meter.due());  // first call always fires
  EXPECT_FALSE(meter.due()); // within the interval
  EXPECT_DOUBLE_EQ(ProgressMeter::etaSec(10.0, 5.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(ProgressMeter::etaSec(10.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(ProgressMeter::etaSec(10.0, 10.0, 10.0), 0.0);
}

} // namespace
} // namespace dps::obs
