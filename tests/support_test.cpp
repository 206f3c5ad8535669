#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/fingerprint.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/time.hpp"

namespace dps {
namespace {

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
  // A malformed value reads as the default and fails finish(), so the usage
  // printed with the error lists every option, not just those before it.
  for (const char* arg : {"--n=abc", "--n=8x", "--n=1.5"}) { // 8x is not 8, nor 1.5 an integer
    const char* argv[] = {"prog", arg};
    Cli cli(2, argv);
    EXPECT_EQ(cli.integer("n", 7), 7) << arg;
    EXPECT_THROW(cli.finish(), ConfigError) << arg;
  }
  const char* argv[] = {"prog", "--rate=0.5s"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.real("rate", 1.0), 1.0);
  EXPECT_THROW(cli.finish(), ConfigError);
}

TEST(CliTest, ValueOptionWithoutAValueFailsFinish) {
  // A bare `--json` must not write a file named "true".
  const char* argv[] = {"prog", "--json", "--smoke"};
  Cli cli(3, argv);
  EXPECT_TRUE(cli.flag("smoke"));
  cli.artifact("json", "report");
  EXPECT_THROW(cli.finish(), ConfigError);
}

TEST(CliTest, JobsAreRangeChecked) {
  for (const char* arg : {"--jobs=-1", "--jobs=4097"}) {
    const char* argv[] = {"prog", arg};
    Cli cli(2, argv);
    cli.jobs("jobs", "concurrency");
    EXPECT_THROW(cli.finish(), ConfigError) << arg;
  }
  const char* argv[] = {"prog", "--jobs=4096"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.jobs("jobs", "concurrency"), 4096u);
  cli.finish();
}

TEST(CliTest, FinishOpensArtifactsAndCloseReportsThem) {
  const std::string path = ::testing::TempDir() + "cli_artifact.json";
  const std::string arg = "--json=" + path;
  const char* argv[] = {"prog", arg.c_str()};
  Cli cli(2, argv);
  Artifact& json = cli.artifact("json", "report");
  Artifact& trace = cli.artifact("trace", "trace");
  EXPECT_TRUE(json);
  EXPECT_FALSE(trace);
  EXPECT_THROW(json.stream(), InternalError); // not open before finish()
  cli.finish();
  json.stream() << "{}\n";
  EXPECT_TRUE(cli.closeArtifacts());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{}");
}

TEST(CliTest, UnopenableArtifactFailsFinish) {
  const char* argv[] = {"prog", "--json=/nonexistent-dir/x.json"};
  Cli cli(2, argv);
  cli.artifact("json", "report");
  EXPECT_THROW(cli.finish(), ConfigError);
}

TEST(CliTest, FinishThrowsHelpRequestedFirst) {
  const char* argv[] = {"prog", "--help", "--bogus=1", "--n=abc"};
  Cli cli(4, argv);
  cli.integer("n", 0);
  EXPECT_THROW(cli.finish(), Cli::HelpRequested);
}

// runMain bodies are plain functions; each records how far it got.
int g_reached = 0;

int declareThenWork(Cli& cli) {
  cli.integer("n", 1, "a number");
  cli.artifact("json", "report");
  cli.finish();
  g_reached = 1;
  return 0;
}

int exitCodeOf(std::vector<const char*> args, int (*body)(Cli&)) {
  g_reached = 0;
  args.insert(args.begin(), "prog");
  return runMain(static_cast<int>(args.size()), args.data(), body);
}

TEST(RunMainTest, ExitCodeContract) {
  EXPECT_EQ(exitCodeOf({}, declareThenWork), 0);
  EXPECT_EQ(g_reached, 1);
  EXPECT_EQ(exitCodeOf({"--help"}, declareThenWork), 0);
  EXPECT_EQ(g_reached, 0);
  EXPECT_EQ(exitCodeOf({"--bogus", "1"}, declareThenWork), 2);
  EXPECT_EQ(g_reached, 0);
  EXPECT_EQ(exitCodeOf({"--n", "x"}, declareThenWork), 2);
  EXPECT_EQ(exitCodeOf({"--json", "/nonexistent-dir/x.json"}, declareThenWork), 2);
  EXPECT_EQ(g_reached, 0);

  const auto lateConfigError = [](Cli& cli) -> int {
    cli.finish();
    throw ConfigError("r does not divide n");
  };
  EXPECT_EQ(exitCodeOf({}, lateConfigError), 2);
  const auto internalError = [](Cli& cli) -> int {
    cli.finish();
    DPS_CHECK(false, "a framework bug");
    return 0;
  };
  EXPECT_EQ(exitCodeOf({}, internalError), 1);
  const auto stdError = [](Cli& cli) -> int {
    cli.finish();
    throw std::runtime_error("disk full");
  };
  EXPECT_EQ(exitCodeOf({}, stdError), 1);
  // --help wins over a flag check the body makes before finish().
  const auto checkBeforeFinish = [](Cli& cli) -> int {
    if (cli.integer("nodes", 1, "cluster size") < 2) throw ConfigError("--nodes must be >= 2");
    cli.finish();
    return 0;
  };
  EXPECT_EQ(exitCodeOf({"--help"}, checkBeforeFinish), 0);
  EXPECT_EQ(exitCodeOf({}, checkBeforeFinish), 2);
  EXPECT_EQ(exitCodeOf({}, [](Cli& cli) { cli.finish(); return 3; }), 3);
}

TEST(CheckTest, VerdictsAreRecordedWrittenAndSummarized) {
  check(true, "holds");
  check(false, "fails");
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  writeChecks(w);
  w.endObject();
  EXPECT_EQ(os.str(), "{\"checks\":[{\"claim\":\"holds\",\"pass\":true},"
                      "{\"claim\":\"fails\",\"pass\":false}]}");
  EXPECT_EQ(checkSummary(), 1u);
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

TEST(JsonWriterTest, EmittersNestAtValuePosition) {
  // Two report emitters of the `writeJson(JsonWriter&) const` shape: one
  // lands as an array element, the other as an object member.
  struct Point {
    int x, y;
    void writeJson(JsonWriter& w) const { w.beginObject().field("x", x).field("y", y).endObject(); }
  };
  struct Label {
    std::string text;
    void writeJson(JsonWriter& w) const { w.beginArray().value(text).endArray(); }
  };
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject().key("points").beginArray();
  Point{1, 2}.writeJson(w);
  Point{3, 4}.writeJson(w);
  EXPECT_FALSE(w.closed());
  w.endArray().key("label");
  Label{"tab\there \"q\" back\\slash\nnew\x01"}.writeJson(w);
  EXPECT_FALSE(w.closed());
  w.endObject();
  EXPECT_TRUE(w.closed());
  EXPECT_EQ(os.str(), "{\"points\":[{\"x\":1,\"y\":2},{\"x\":3,\"y\":4}],"
                      "\"label\":[\"tab\\there \\\"q\\\" back\\\\slash\\nnew\\u0001\"]}");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray().value(1.0 / 3.0).endArray();
  EXPECT_EQ(os.str(), "[" + jsonDouble(1.0 / 3.0) + "]");
}

TEST(JsonWriterTest, NonFiniteDoublesAreRejected) {
  for (const double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    std::ostringstream os;
    JsonWriter w(os);
    EXPECT_THROW(w.value(v), InternalError) << v;
    EXPECT_EQ(os.str(), "");
  }
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
