// Autocal subsystem: ParamSpace round-tripping, strategy determinism, the
// jobs=N == jobs=1 bit-identity contract of the search driver, and
// coordinate-descent convergence on a synthetic objective with a known
// optimum.
//
// The determinism test doubles as a ThreadSanitizer workload alongside
// campaign_test (concurrent engines scoring candidates on the pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "experiments/autocal.hpp"
#include "experiments/calibration.hpp"
#include "support/json.hpp"

namespace dps::exp {
namespace {

Candidate testCandidate() {
  Candidate c;
  c.profile = net::ultraSparc440();
  return c;
}

/// A small cross-app objective (one LU, one dynamic LU, one Jacobi) that
/// keeps full searches fast enough for a unit test.
ObjectiveSpec tinySpec() {
  ObjectiveSpec spec;
  lu::LuConfig lu;
  lu.n = 64;
  lu.r = 16;
  lu.workers = 2;
  spec.scenarios.push_back(ValidationScenario::luCase(lu, 21));
  lu::LuConfig dyn = lu;
  dyn.workers = 4;
  spec.scenarios.push_back(
      ValidationScenario::luCase(dyn, 22, mall::AllocationPlan::killAfter({{1, {2, 3}}})));
  jacobi::JacobiConfig jac;
  jac.rows = 32;
  jac.cols = 32;
  jac.sweeps = 4;
  jac.workers = 4;
  spec.scenarios.push_back(ValidationScenario::jacobiCase(jac, 23));
  return spec;
}

/// Synthetic separable objective: per-scenario signed error x[i] - opt[i],
/// so the score is minimized (to zero) exactly at `opt`.
class SyntheticObjective final : public Objective {
public:
  explicit SyntheticObjective(std::vector<double> opt) : opt_(std::move(opt)) {}
  std::size_t scenarioCount() const override { return opt_.size(); }
  std::string scenarioLabel(std::size_t i) const override {
    return "dim" + std::to_string(i);
  }
  double scenarioError(const std::vector<double>& x, std::size_t i) const override {
    return x[i] - opt_[i];
  }

private:
  std::vector<double> opt_;
};

TEST(ParamSpaceTest, ApplyEncodeRoundTrips) {
  ParamSpace space;
  space.add(Param::LatencySec, 10e-6, 1e-3)
      .add(Param::BandwidthBytesPerSec, 1e6, 100e6)
      .add(Param::PerStepOverheadSec, 0.0, 50e-6)
      .add(Param::LocalDeliverySec, 0.0, 10e-6)
      .add(Param::CpuPerOutgoingTransfer, 0.0, 0.1)
      .add(Param::CpuPerIncomingTransfer, 0.0, 0.1)
      .add(Param::ComputeScale, 0.1, 2.0)
      .add(Param::KernelScale, 0.5, 2.0);

  // Duration-valued params quantize at 1 ns, so pick exactly representable
  // values; the rest are arbitrary in-box doubles.
  const std::vector<double> x{123e-6, 42.5e6, 7e-6, 2e-6, 0.0125, 0.031, 0.75, 1.375};
  const Candidate applied = space.apply(testCandidate(), x);
  const auto back = space.encode(applied);
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back[i], x[i], std::abs(x[i]) * 1e-12 + 1e-15) << "dim " << i;

  // Non-dimension fields keep their base values.
  EXPECT_EQ(applied.profile.name, testCandidate().profile.name);

  // encode() of an untouched candidate feeds apply() back to itself.
  const auto x0 = space.encode(testCandidate());
  const Candidate same = space.apply(testCandidate(), x0);
  EXPECT_EQ(same.profile.latency, testCandidate().profile.latency);
  EXPECT_EQ(same.kernelScale, testCandidate().kernelScale);
}

TEST(ParamSpaceTest, ClampAndCenterStayInBox) {
  ParamSpace space;
  space.add(Param::LatencySec, 1e-6, 9e-6).add(Param::KernelScale, 0.5, 2.0);
  const auto clamped = space.clamp({1e-3, 0.1});
  EXPECT_DOUBLE_EQ(clamped[0], 9e-6);
  EXPECT_DOUBLE_EQ(clamped[1], 0.5);
  const auto mid = space.center();
  EXPECT_DOUBLE_EQ(mid[0], 5e-6);
  EXPECT_DOUBLE_EQ(mid[1], 1.25);
}

TEST(ParamSpaceTest, AroundOptionallyIncludesFidelityDims) {
  const Candidate warm = testCandidate();
  const ParamSpace narrow = ParamSpace::around(warm);
  EXPECT_EQ(narrow.size(), 4u);

  // The wide box adds the fidelity-layer dimensions already reachable via
  // the Param enum (ROADMAP open item).
  const ParamSpace wide = ParamSpace::around(warm, true);
  EXPECT_EQ(wide.size(), 8u);
  std::vector<Param> keys;
  for (const auto& d : wide.dims()) keys.push_back(d.key);
  for (Param p : {Param::LocalDeliverySec, Param::CpuPerOutgoingTransfer,
                  Param::CpuPerIncomingTransfer, Param::ComputeScale})
    EXPECT_NE(std::find(keys.begin(), keys.end(), p), keys.end());

  // The warm start itself lies inside the wide box (clamp is a no-op) and
  // the narrow box is a prefix of the wide one.
  const auto enc = wide.encode(warm);
  const auto clamped = wide.clamp(enc);
  for (std::size_t i = 0; i < enc.size(); ++i) EXPECT_DOUBLE_EQ(clamped[i], enc[i]);
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_EQ(wide.dims()[i].key, narrow.dims()[i].key);
    EXPECT_DOUBLE_EQ(wide.dims()[i].lo, narrow.dims()[i].lo);
    EXPECT_DOUBLE_EQ(wide.dims()[i].hi, narrow.dims()[i].hi);
  }

  // apply/encode round-trips over the added dimensions too.
  auto x = wide.center();
  const Candidate applied = wide.apply(warm, x);
  const auto back = wide.encode(applied);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(back[i], x[i], std::abs(x[i]) * 1e-12 + 1e-9) << "dim " << i;
}

TEST(ParamSpaceTest, RejectsDegenerateAndDuplicateDims) {
  ParamSpace space;
  space.add(Param::KernelScale, 0.5, 2.0);
  EXPECT_THROW(space.add(Param::KernelScale, 0.1, 1.0), Error);
  ParamSpace bad;
  EXPECT_THROW(bad.add(Param::LatencySec, 1.0, 1.0), Error);
}

TEST(StrategyTest, RandomSearchIsSeedDeterministicAndInBounds) {
  ParamSpace space;
  space.add(Param::LatencySec, 1e-6, 1e-3).add(Param::KernelScale, 0.5, 2.0);
  SearchHistory history;
  RandomSearch a(16, 99), b(16, 99), c(16, 100);
  const auto xs = a.propose(space, history, 16);
  const auto ys = b.propose(space, history, 16);
  const auto zs = c.propose(space, history, 16);
  ASSERT_EQ(xs.size(), 16u);
  EXPECT_EQ(xs, ys);           // same seed, same proposals
  EXPECT_NE(xs, zs);           // different seed, different proposals
  for (const auto& x : xs) {
    EXPECT_GE(x[0], 1e-6);
    EXPECT_LE(x[0], 1e-3);
    EXPECT_GE(x[1], 0.5);
    EXPECT_LE(x[1], 2.0);
  }
  // Budget exhaustion: nothing left after the full batch.
  EXPECT_TRUE(a.propose(space, history, 16).empty());
}

TEST(StrategyTest, GridSearchCoversTheBoxRowMajor) {
  ParamSpace space;
  space.add(Param::LatencySec, 0.0, 1.0).add(Param::KernelScale, 0.0, 1.0);
  SearchHistory history;
  GridSearch grid(9); // 3 levels per dim
  const auto xs = grid.propose(space, history, 100);
  ASSERT_EQ(xs.size(), 9u);
  EXPECT_EQ(xs[0], (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(xs[1], (std::vector<double>{0.0, 0.5})); // last dim innermost
  EXPECT_EQ(xs[8], (std::vector<double>{1.0, 1.0}));
  EXPECT_TRUE(grid.propose(space, history, 100).empty()); // one-shot
}

TEST(StrategyTest, CoordinateDescentConvergesToKnownOptimum) {
  ParamSpace space;
  space.add(Param::ComputeScale, 0.0, 1.0).add(Param::KernelScale, 0.0, 1.0);
  const SyntheticObjective objective({0.3, 0.7});

  SearchOptions options;
  options.budget = 200;
  options.jobs = 1;
  options.warmStart = {0.9, 0.1}; // far corner
  const auto result = runCalibrationSearch(
      objective, space, {std::make_shared<CoordinateDescent>()}, options);

  const auto& best = result.best();
  EXPECT_LT(best.score, 1e-2);
  EXPECT_NEAR(best.x[0], 0.3, 1e-2);
  EXPECT_NEAR(best.x[1], 0.7, 1e-2);
  // Strictly better than the warm start it refined.
  EXPECT_LT(best.score, result.warmStart().score);
}

TEST(AutocalSearchTest, ParallelSearchMatchesSerialBitExactly) {
  const EngineSettings settings;
  const Candidate warm = testCandidate();
  const ParamSpace space = ParamSpace::around(warm);

  auto runAt = [&](unsigned jobs) {
    // Objective reference runs and the search both use `jobs` workers.
    const ScenarioObjective objective(settings, warm, space, tinySpec(), jobs);
    SearchOptions options;
    options.budget = 10;
    options.jobs = jobs;
    options.warmStart = space.encode(warm);
    // Fresh strategy instances per run: strategies are stateful.
    const std::vector<std::shared_ptr<SearchStrategy>> strategies{
        std::make_shared<RandomSearch>(4, 7), std::make_shared<CoordinateDescent>()};
    return runCalibrationSearch(objective, space, strategies, options);
  };

  const AutocalResult serial = runAt(1);
  const AutocalResult parallel = runAt(4);

  ASSERT_EQ(serial.history.records.size(), 10u);
  ASSERT_EQ(parallel.history.records.size(), serial.history.records.size());
  EXPECT_EQ(parallel.history.bestIndex, serial.history.bestIndex);
  for (std::size_t i = 0; i < serial.history.records.size(); ++i) {
    const EvalRecord& a = serial.history.records[i];
    const EvalRecord& b = parallel.history.records[i];
    EXPECT_EQ(a.strategy, b.strategy) << "eval " << i;
    // Same proposals and the same doubles, bit for bit.
    EXPECT_EQ(a.x, b.x) << "eval " << i;
    EXPECT_EQ(a.errors, b.errors) << "eval " << i;
    EXPECT_EQ(a.score, b.score) << "eval " << i;
  }
  EXPECT_EQ(serial.ranking(), parallel.ranking());
}

TEST(AutocalSearchTest, WarmStartBoundsTheBest) {
  const EngineSettings settings;
  const Candidate warm = testCandidate();
  const ParamSpace space = ParamSpace::around(warm);
  const ScenarioObjective objective(settings, warm, space, tinySpec(), 1);
  SearchOptions options;
  options.budget = 6;
  options.jobs = 1;
  options.warmStart = space.encode(warm);
  const auto result = runCalibrationSearch(
      objective, space, {std::make_shared<RandomSearch>(5, 3)}, options);
  ASSERT_TRUE(result.hasWarmStart);
  EXPECT_EQ(result.warmStart().strategy, "warm-start");
  EXPECT_LE(result.best().score, result.warmStart().score);
}

TEST(AutocalSearchTest, CalibrateSmokeRunIsPinned) {
  // `dps_calibrate --budget 8 --seed 1` with its other flags at their
  // defaults: the two-point warm start, the full validation set, 3 random
  // proposals, then coordinate descent.
  const EngineSettings settings;
  const ScenarioRunner runner(settings);
  const std::uint64_t seed = 1;
  const auto fit = calibratePlatform(runner.referenceConfig(seed), seed, 16);
  Candidate warm;
  warm.profile = applyCalibration(settings.profile, fit);
  const ParamSpace space = ParamSpace::around(warm, false);
  const ScenarioObjective objective(settings, warm, space, ObjectiveSpec::validationSet(), 1);
  SearchOptions options;
  options.budget = 8;
  options.jobs = 1;
  options.warmStart = space.encode(warm);
  const std::vector<std::shared_ptr<SearchStrategy>> strategies{
      std::make_shared<RandomSearch>(3, seed), std::make_shared<CoordinateDescent>()};
  const auto result = runCalibrationSearch(objective, space, strategies, options);
  EXPECT_EQ(result.history.records.size(), 8u);
  EXPECT_LE(result.best().score, result.warmStart().score);
  // Exact value: a change to the engine, the objective or the strategies
  // that moves it must update it here, in the same change.
  EXPECT_EQ(result.best().score, 0.011077151281678074);
}

TEST(AutocalSearchTest, ReportJsonCarriesBestAndTrace) {
  const EngineSettings settings;
  const Candidate warm = testCandidate();
  const ParamSpace space = ParamSpace::around(warm);
  const ScenarioObjective objective(settings, warm, space, tinySpec(), 1);
  SearchOptions options;
  options.budget = 4;
  options.jobs = 1;
  options.warmStart = space.encode(warm);
  const auto result = runCalibrationSearch(
      objective, space, {std::make_shared<GridSearch>(3)}, options);

  std::ostringstream os;
  JsonWriter w(os);
  writeReportJson(w, result, objective, space, warm);
  EXPECT_TRUE(w.closed());
  const std::string j = os.str();
  EXPECT_NE(j.find("\"warm_start\":{"), std::string::npos);
  EXPECT_NE(j.find("\"best\":{"), std::string::npos);
  EXPECT_NE(j.find("\"latency_sec\":"), std::string::npos);
  EXPECT_NE(j.find("\"per_scenario\":["), std::string::npos);
  EXPECT_NE(j.find("\"trace\":["), std::string::npos);
  EXPECT_NE(j.find("Jacobi"), std::string::npos); // cross-app labels present
  EXPECT_EQ(j.find('\n'), std::string::npos);     // single-line object
}

TEST(AutocalSearchTest, ScenarioObjectiveSeparatesReferenceAndPrediction) {
  const EngineSettings settings;
  const Candidate warm = testCandidate();
  ParamSpace space;
  space.add(Param::KernelScale, 0.5, 2.0);
  const ScenarioObjective objective(settings, warm, space, tinySpec(), 1);
  // A faster modeled kernel must predict a shorter run: the signed error
  // decreases monotonically in kernelScale on every scenario.
  for (std::size_t s = 0; s < objective.scenarioCount(); ++s) {
    const double slow = objective.scenarioError({0.8}, s);
    const double fast = objective.scenarioError({1.6}, s);
    EXPECT_GT(slow, fast) << objective.scenarioLabel(s);
    EXPECT_GT(objective.referenceSec(s), 0.0);
  }
}

} // namespace
} // namespace dps::exp
