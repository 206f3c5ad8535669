// Self-time arithmetic on synthetic spans: exits non-zero on the first
// failed expectation.
#include <cmath>
#include <cstdio>
#include <string>

#include "spans.hpp"

using perfbench::Span;

namespace {

int failures = 0;

void expectNear(double got, double want, const std::string& what) {
  if (std::abs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what.c_str(), got, want);
    ++failures;
  }
}

} // namespace

int main() {
  // bench:op [0,100] us
  //   svc:build [10,60]       children engine:run [15,35] and [40,50]
  //   sched:replay [60,90]    child engine:run [70,80]
  // plus an unrelated root probe:x [200,300].
  const std::vector<Span> spans = {
      {"bench:op", 0, 100, -1},     {"svc:build", 10, 60, 0},  {"engine:run", 15, 35, 1},
      {"engine:run", 40, 50, 1},    {"sched:replay", 60, 90, 0}, {"engine:run", 70, 80, 4},
      {"probe:x", 200, 300, -1},
  };
  const auto self = perfbench::selfTimesUs(spans);
  expectNear(self[0], 100 - 50 - 30, "op self");
  expectNear(self[1], 50 - 20 - 10, "build self");
  expectNear(self[2], 20, "leaf self");
  expectNear(self[4], 30 - 10, "replay self");
  expectNear(self[6], 100, "second root self");

  const auto layers = perfbench::layerSelfSec(spans, 0);
  expectNear(layers.at("bench"), 20e-6, "bench layer");
  expectNear(layers.at("svc"), 20e-6, "svc layer");
  expectNear(layers.at("engine"), 40e-6, "engine layer");
  expectNear(layers.at("sched"), 20e-6, "sched layer");
  if (layers.count("probe") != 0) {
    std::printf("FAIL spans outside the root counted\n");
    ++failures;
  }
  double sum = 0;
  for (const auto& [layer, sec] : layers) sum += sec;
  expectNear(sum, 100e-6, "layer self times sum to the root duration");

  if (perfbench::layerOf("explore:verifySpace") != "explore" || perfbench::layerOf("x") != "x") {
    std::printf("FAIL layerOf\n");
    ++failures;
  }

  // A live recorder: nested scopes close innermost first and the self
  // times of a real tree still add up to its root.
  perfbench::Recorder rec(true);
  int root = -1;
  {
    perfbench::Scope op(rec, "bench:op");
    root = op.id();
    for (int i = 0; i < 3; ++i) {
      perfbench::Scope s(rec, "svc:call");
      perfbench::Scope inner(rec, "engine:run");
    }
  }
  double liveSum = 0;
  for (const auto& [layer, sec] : perfbench::layerSelfSec(rec.spans(), root)) liveSum += sec;
  expectNear(liveSum, rec.durationSec(root), "live tree sums to its root");
  perfbench::Recorder off(false);
  {
    perfbench::Scope s(off, "bench:op");
  }
  if (!off.spans().empty()) {
    std::printf("FAIL a disabled recorder kept spans\n");
    ++failures;
  }

  if (failures == 0) std::printf("spans_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
