#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/fingerprint.hpp"
#include "support/histogram.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/time.hpp"

namespace dps {
namespace {

TEST(CsvTest, QuoteIsRfc4180) {
  EXPECT_EQ(csvQuote("plain"), "\"plain\"");
  EXPECT_EQ(csvQuote(""), "\"\"");
  EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
  EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csvQuote("two\nlines"), "\"two\nlines\"");
}

TEST(TimeTest, ConstructorsAndConversions) {
  EXPECT_EQ(microseconds(1).count(), 1000);
  EXPECT_EQ(milliseconds(2).count(), 2000000);
  EXPECT_EQ(seconds(1.5).count(), 1500000000);
  EXPECT_DOUBLE_EQ(toSeconds(seconds(2.25)), 2.25);
  EXPECT_DOUBLE_EQ(toMillis(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(toMicros(microseconds(7)), 7.0);
}

TEST(TimeTest, ScaleRounds) {
  EXPECT_EQ(scale(nanoseconds(10), 0.25).count(), 3); // 2.5 rounds to 3
  EXPECT_EQ(scale(milliseconds(4), 0.5), milliseconds(2));
}

TEST(TimeTest, FormatAdaptsUnits) {
  EXPECT_EQ(formatDuration(seconds(62.31)), "62.310s");
  EXPECT_EQ(formatDuration(milliseconds(4)), "4.000ms");
  EXPECT_EQ(formatDuration(microseconds(9)), "9.000us");
  EXPECT_EQ(formatDuration(nanoseconds(42)), "42ns");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowIsUnbiasedEnough) {
  Rng r(11);
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(5)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 5, kDraws / 50);
}

TEST(RngTest, NormalMomentsAreSane) {
  Rng r(13);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a(), child());
}

TEST(RngTest, ExponentialMatchesDistributionShape) {
  Rng r(17);
  OnlineStats s;
  int beyondMean = 0;
  const double rate = 0.25; // mean 4, stddev 4
  for (int i = 0; i < 40000; ++i) {
    const double x = r.exponential(rate);
    EXPECT_GE(x, 0.0);
    s.add(x);
    beyondMean += x > 4.0;
  }
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
  EXPECT_NEAR(s.stddev(), 4.0, 0.15);
  // P(X > mean) = 1/e for an exponential — a shape check the first two
  // moments alone would not catch.
  EXPECT_NEAR(beyondMean / 40000.0, std::exp(-1.0), 0.01);
  EXPECT_THROW(r.exponential(0.0), Error);
}

TEST(RngTest, PoissonMatchesMeanAndVariance) {
  Rng r(19);
  for (const double mean : {0.7, 6.0, 120.0}) { // product method + normal tail
    OnlineStats s;
    for (int i = 0; i < 30000; ++i) s.add(static_cast<double>(r.poisson(mean)));
    EXPECT_NEAR(s.mean(), mean, 0.05 * mean + 0.05) << mean;
    // Poisson signature: variance == mean.
    EXPECT_NEAR(s.variance(), mean, 0.1 * mean + 0.1) << mean;
  }
  EXPECT_THROW(r.poisson(-1.0), Error);
}

TEST(StatsTest, BasicMoments) {
  OnlineStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(StatsTest, MergeMatchesSequential) {
  OnlineStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(StatsTest, PercentileRejectsEmpty) {
  EXPECT_THROW(percentile({}, 50), Error);
}

TEST(StatsTest, RelativeErrorAndWithin) {
  EXPECT_DOUBLE_EQ(relativeError(105, 100), 0.05);
  EXPECT_DOUBLE_EQ(relativeError(95, 100), -0.05);
  std::vector<double> errs{0.01, -0.03, 0.08, -0.2};
  EXPECT_DOUBLE_EQ(fractionWithin(errs, 0.05), 0.5);
  EXPECT_DOUBLE_EQ(fractionWithin(errs, 0.1), 0.75);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(-0.1, 0.1, 10); // bins of width 0.02
  h.add(0.0);                 // bin 5
  h.add(-0.099);              // bin 0
  h.add(0.5);                 // overflow -> last bin
  h.add(-0.5);                // underflow -> first bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(HistogramTest, ModeAndRender) {
  Histogram h(0, 10, 5);
  h.addAll({1, 1, 1, 7});
  EXPECT_EQ(h.modeBin(), 0u);
  const std::string out = h.render(20);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(TableTest, AlignmentAndFormatting) {
  Table t("My table");
  t.header({"name", "value"});
  t.row({"a", Table::num(1.5, 1)});
  t.row({"long-name", Table::pct(0.714, 1)});
  const std::string s = t.str();
  EXPECT_NE(s.find("My table"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("71.4%"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), Error);
}

TEST(CliTest, ParsesForms) {
  // `--key value` is greedy: a bare token after an option becomes its
  // value, so positionals must precede options or use `--key=value`.
  const char* argv[] = {"prog", "pos", "--alpha=3", "--beta", "4.5", "--gamma"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.integer("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.real("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.flag("gamma"));
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "pos");
  cli.finish();
}

TEST(CliTest, UnknownOptionFailsFinish) {
  const char* argv[] = {"prog", "--bogus=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.finish(), ConfigError);
}

TEST(CliTest, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n=abc", "--m=8x", "--k=1.5", "--rate=0.5s"};
  Cli cli(5, argv);
  EXPECT_THROW(cli.integer("n", 0), ConfigError);
  EXPECT_THROW(cli.integer("m", 0), ConfigError); // trailing garbage is not 8
  EXPECT_THROW(cli.integer("k", 0), ConfigError); // nor is 1.5 an integer
  EXPECT_THROW(cli.real("rate", 0), ConfigError);
}

TEST(CliTest, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.helpRequested());
  cli.str("opt", "default", "an option");
  EXPECT_NE(cli.helpText().find("--opt"), std::string::npos);
}

TEST(ErrorTest, HierarchyAndMessages) {
  try {
    throw GraphError("bad wiring");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("graph: bad wiring"), std::string::npos);
  }
  EXPECT_THROW(DPS_CHECK(false, "boom"), InternalError);
}

TEST(ThreadPoolTest, HardwareJobsIsPositive) { EXPECT_GE(ThreadPool::hardwareJobs(), 1u); }

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallelFor(pool, hits.size(),
              [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForResultsAreIndexOrdered) {
  // Work -> result ordering is by index, not completion order: each body
  // writes slot i, so the output is deterministic at any thread count.
  std::vector<std::size_t> out(100, 0);
  parallelFor(out.size(), 4, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, SerialFallbacksRunInline) {
  // jobs <= 1 and count <= 1 must not spawn anything: the body observes the
  // caller's thread id.
  const auto self = std::this_thread::get_id();
  int calls = 0;
  parallelFor(5, 1, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++calls;
  });
  parallelFor(1, 8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++calls;
  });
  parallelFor(0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 6);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndDrainCompletes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    parallelFor(pool, 64, [&](std::size_t i) {
      if (i == 5) throw Error("boom at 5");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at 5"), std::string::npos);
  }
  EXPECT_LE(ran.load(), 63);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelFors) {
  ThreadPool pool(2);
  std::uint64_t total = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint64_t> out(50, 0);
    parallelFor(pool, out.size(), [&](std::size_t i) { out[i] = i + 1; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  EXPECT_EQ(total, 10u * (50u * 51u / 2u));
}

TEST(ThreadPoolTest, WorkerlessPoolRunsInlineOnCaller) {
  // ThreadPool(jobs - 1) with jobs == 1: no workers, parallelFor degrades to
  // a serial loop on the caller, and submit() refuses (it would never run).
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), 0u);
  const auto self = std::this_thread::get_id();
  int calls = 0;
  parallelFor(pool, 4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    ++calls;
  });
  EXPECT_EQ(calls, 4);
  EXPECT_THROW(pool.submit([] {}), Error);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i)
      pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(done.load(), 8);
}

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject()
      .field("name", "a\"b")
      .field("n", 42)
      .field("x", 0.5)
      .field("on", true);
  w.key("list").beginArray().value(1).value("two").null().endArray();
  w.key("nested").beginObject().endObject();
  w.endObject();
  EXPECT_TRUE(w.closed());
  EXPECT_EQ(os.str(), "{\"name\":\"a\\\"b\",\"n\":42,\"x\":0.5,\"on\":true,"
                      "\"list\":[1,\"two\",null],\"nested\":{}}");
}

TEST(JsonWriterTest, StringLiteralsAreStringsNotBools) {
  std::ostringstream os;
  JsonWriter w(os);
  const char* s = "static";
  w.beginObject().field("mode", s).endObject();
  EXPECT_EQ(os.str(), "{\"mode\":\"static\"}");
}

TEST(JsonWriterTest, RawSplicesPreRenderedFragments) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject().field("a", 1);
  w.key("inner").raw("{\"pre\":true}");
  w.rawMembers("\"b\":2,\"c\":3");
  w.endObject();
  EXPECT_EQ(os.str(), "{\"a\":1,\"inner\":{\"pre\":true},\"b\":2,\"c\":3}");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray().value(1.0 / 3.0).endArray();
  EXPECT_EQ(os.str(), "[" + jsonDouble(1.0 / 3.0) + "]");
}

TEST(FingerprintTest, StableAndOrderSensitive) {
  Fingerprint a, b;
  a.add(std::uint64_t{1}).add(2.0).add(std::string_view("x"));
  b.add(std::uint64_t{1}).add(2.0).add(std::string_view("x"));
  EXPECT_EQ(a.value(), b.value());

  Fingerprint c;
  c.add(2.0).add(std::uint64_t{1}).add(std::string_view("x"));
  EXPECT_NE(a.value(), c.value());
}

TEST(FingerprintTest, TypeTagsSeparateEqualBitPatterns) {
  Fingerprint i, u;
  i.add(std::int64_t{7});
  u.add(std::uint64_t{7});
  EXPECT_NE(i.value(), u.value());

  // -0.0 and 0.0 compare equal, so they must fingerprint equal too.
  Fingerprint neg, pos;
  neg.add(-0.0);
  pos.add(0.0);
  EXPECT_EQ(neg.value(), pos.value());
}

TEST(FingerprintTest, StringBoundariesMatter) {
  Fingerprint ab_c, a_bc;
  ab_c.add(std::string_view("ab")).add(std::string_view("c"));
  a_bc.add(std::string_view("a")).add(std::string_view("bc"));
  EXPECT_NE(ab_c.value(), a_bc.value());
}

} // namespace
} // namespace dps
