// Scenario runner: measured-vs-predicted plumbing and the statistical
// properties the reproduction relies on.
#include <gtest/gtest.h>

#include "experiments/calibration.hpp"
#include "experiments/scenario.hpp"
#include "support/stats.hpp"

namespace dps::exp {
namespace {

lu::LuConfig tinyConfig() {
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.r = 16; // 4 levels
  cfg.workers = 2;
  return cfg;
}

TEST(ScenarioTest, CalibratedProfileAbsorbsFidelityOverheads) {
  ScenarioRunner runner;
  const auto nominal = runner.settings().profile;
  const auto calibrated = runner.calibratedProfile();
  EXPECT_GT(calibrated.latency, nominal.latency);
  EXPECT_LT(calibrated.bandwidthBytesPerSec, nominal.bandwidthBytesPerSec);
}

TEST(ScenarioTest, ObservationHasBothLegs) {
  ScenarioRunner runner;
  auto obs = runner.run(tinyConfig());
  EXPECT_GT(obs.measuredSec, 0.0);
  EXPECT_GT(obs.predictedSec, 0.0);
  EXPECT_TRUE(obs.measured.trace);
  EXPECT_TRUE(obs.predicted.trace);
  EXPECT_FALSE(obs.label.empty());
}

TEST(ScenarioTest, PredictionTracksMeasurementWithinTolerance) {
  ScenarioRunner runner;
  auto obs = runner.run(tinyConfig(), {}, /*fidelitySeed=*/3);
  // The predictor uses calibrated parameters: errors should be small
  // (paper: >95% of predictions within +-12%).
  EXPECT_LT(std::abs(obs.error()), 0.15) << "measured=" << obs.measuredSec
                                         << " predicted=" << obs.predictedSec;
}

TEST(ScenarioTest, PredictionIsSeedIndependent) {
  ScenarioRunner runner;
  auto a = runner.run(tinyConfig(), {}, 1);
  auto b = runner.run(tinyConfig(), {}, 2);
  EXPECT_EQ(a.predictedSec, b.predictedSec);
  EXPECT_NE(a.measuredSec, b.measuredSec); // different machine state
}

TEST(ScenarioTest, ErrorsVaryAcrossSeedsButStayBounded) {
  ScenarioRunner runner;
  std::vector<double> errors;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    errors.push_back(runner.run(tinyConfig(), {}, seed).error());
  // Not all identical (machine state matters).
  bool allSame = true;
  for (double e : errors)
    if (std::abs(e - errors[0]) > 1e-12) allSame = false;
  EXPECT_FALSE(allSame);
  EXPECT_GE(fractionWithin(errors, 0.15), 0.99);
}

TEST(CalibrationTest, RecoversPlainPlatformParameters) {
  // With the fidelity layer off, the probes must recover the configured
  // l and b almost exactly.
  core::SimConfig cfg;
  cfg.profile = net::ultraSparc440();
  cfg.mode = core::ExecutionMode::Pdexec;
  const auto fit = calibratePlatform(cfg);
  EXPECT_NEAR(toSeconds(fit.latency), toSeconds(cfg.profile.latency),
              toSeconds(cfg.profile.latency) * 0.1);
  EXPECT_NEAR(fit.bytesPerSec, cfg.profile.bandwidthBytesPerSec,
              cfg.profile.bandwidthBytesPerSec * 0.02);
}

TEST(CalibrationTest, MeasuredFitMatchesAnalyticFold) {
  // Measuring through the fidelity layer should land close to the
  // analytic calibration ScenarioRunner::calibratedProfile() computes.
  ScenarioRunner runner;
  const auto fit = calibratePlatform(runner.referenceConfig(/*fidelitySeed=*/7), 32);
  const auto analytic = runner.calibratedProfile();
  EXPECT_NEAR(fit.bytesPerSec, analytic.bandwidthBytesPerSec,
              analytic.bandwidthBytesPerSec * 0.05);
  EXPECT_NEAR(toSeconds(fit.latency), toSeconds(analytic.latency),
              toSeconds(analytic.latency) * 0.3);
}

TEST(CalibrationTest, ExplicitSeedOverridesAmbientConfigState) {
  ScenarioRunner runner;
  // The seed parameter, not the seed embedded in the config, decides the
  // machine state: same config + same explicit seed => identical fits.
  const auto cfg = runner.referenceConfig(/*fidelitySeed=*/1);
  const auto a = calibratePlatform(cfg, std::uint64_t{42}, 8);
  const auto b = calibratePlatform(cfg, std::uint64_t{42}, 8);
  const auto c = calibratePlatform(cfg, std::uint64_t{43}, 8);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.bytesPerSec, b.bytesPerSec);
  EXPECT_EQ(a.residual, b.residual);
  EXPECT_NE(a.smallMean, c.smallMean); // different machine state

  // The forwarding shim uses the config's own seed.
  const auto viaShim = calibratePlatform(cfg, 8);
  const auto explicitSame = calibratePlatform(cfg, cfg.fidelity.seed, 8);
  EXPECT_EQ(viaShim.latency, explicitSame.latency);
  EXPECT_EQ(viaShim.bytesPerSec, explicitSame.bytesPerSec);
}

TEST(CalibrationTest, ResidualReflectsFidelityNoise) {
  // Noiseless platform: the two-point model explains every probe exactly.
  core::SimConfig plain;
  plain.profile = net::ultraSparc440();
  plain.mode = core::ExecutionMode::Pdexec;
  const auto clean = calibratePlatform(plain, 8);
  EXPECT_LT(clean.residual, 1e-6);

  // Through the fidelity layer the per-probe jitter shows up as a strictly
  // positive (but still small) residual.
  ScenarioRunner runner;
  const auto noisy = calibratePlatform(runner.referenceConfig(7), std::uint64_t{7}, 16);
  EXPECT_GT(noisy.residual, clean.residual);
  EXPECT_LT(noisy.residual, 0.5);
}

TEST(CalibrationTest, CalibratedPredictorStaysAccurate) {
  // Swap the analytic calibration for the measured one and re-run a
  // scenario: prediction quality must hold.
  ScenarioRunner runner;
  const auto fit = calibratePlatform(runner.referenceConfig(5), 32);
  auto predictor = runner.predictorConfig();
  predictor.profile = applyCalibration(runner.settings().profile, fit);
  const auto cfg = tinyConfig();
  const auto reference = runner.runOne(cfg, {}, runner.referenceConfig(5));
  const auto predicted = runner.runOne(cfg, {}, predictor);
  const double err = (toSeconds(predicted.makespan) - toSeconds(reference.makespan)) /
                     toSeconds(reference.makespan);
  EXPECT_LT(std::abs(err), 0.15);
}

TEST(ScenarioTest, MalleablePlanRunsThroughBothLegs) {
  lu::LuConfig cfg = tinyConfig();
  cfg.workers = 4;
  ScenarioRunner runner;
  auto obs = runner.run(cfg, mall::AllocationPlan::killAfter({{1, {2, 3}}}));
  EXPECT_GT(obs.measuredSec, 0.0);
  EXPECT_LT(std::abs(obs.error()), 0.2);
  // Allocation shrank in both legs.
  EXPECT_EQ(obs.measured.trace->allocations().back().allocatedNodes, 2);
  EXPECT_EQ(obs.predicted.trace->allocations().back().allocatedNodes, 2);
}

} // namespace
} // namespace dps::exp
