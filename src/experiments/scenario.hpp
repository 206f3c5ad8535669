// Scenario runner: the measured-vs-predicted harness behind every table
// and figure reproduction (DESIGN.md §4/§5).
//
// Each scenario runs twice on the discrete-event engine:
//   * the *reference* run — fidelity layer ON (per-message overheads,
//     packetization, bandwidth derating, per-node/per-run speed variation,
//     per-step jitter).  This stands in for the paper's physical cluster
//     measurements (no cluster here; see DESIGN.md §4).
//   * the *prediction* run — the paper's model: pure l + s/b with
//     calibrated latency/bandwidth, equal-share contention, even CPU
//     sharing, no noise.  Calibration mirrors the paper's procedure of
//     measuring platform parameters once per target machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "lu/builder.hpp"
#include "lu/cost_model.hpp"
#include "malleable/controller.hpp"
#include "malleable/plan.hpp"
#include "net/profile.hpp"

namespace dps::exp {

struct EngineSettings {
  net::PlatformProfile profile = net::ultraSparc440();
  lu::KernelCostModel model = lu::KernelCostModel::ultraSparc440();
  core::FidelityConfig fidelity = defaultFidelity();

  static core::FidelityConfig defaultFidelity();
};

struct Observation {
  std::string label;
  double measuredSec = 0.0;
  double predictedSec = 0.0;
  core::RunResult measured;
  core::RunResult predicted;

  /// Signed prediction error, paper Fig. 13 convention.
  double error() const { return (predictedSec - measuredSec) / measuredSec; }
};

class ScenarioRunner {
public:
  explicit ScenarioRunner(EngineSettings settings = {});

  /// Runs reference + prediction for one configuration (and optional
  /// allocation plan).  `fidelitySeed` varies the "machine state" of the
  /// reference run, like repeating a measurement on different days.
  /// const and stateless beyond the settings: safe to call concurrently
  /// from campaign workers (each call owns its engines and build).
  Observation run(const lu::LuConfig& cfg, const mall::AllocationPlan& plan = {},
                  std::uint64_t fidelitySeed = 1,
                  mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns) const;

  /// One leg only: a fresh engine configured by `config` (run() passes
  /// referenceConfig / predictorConfig; ablation benches pass variants).
  core::RunResult runOne(const lu::LuConfig& cfg, const mall::AllocationPlan& plan,
                         core::SimConfig config,
                         mall::RemovalPolicy policy = mall::RemovalPolicy::MigrateColumns) const;

  /// The platform parameters the predictor uses: nominal profile with the
  /// latency/bandwidth a calibration benchmark would measure through the
  /// fidelity layer (the paper's "measured or estimated separately for
  /// each target parallel machine", §4).
  net::PlatformProfile calibratedProfile() const;

  core::SimConfig predictorConfig() const;
  core::SimConfig referenceConfig(std::uint64_t fidelitySeed) const;

  const EngineSettings& settings() const { return settings_; }

private:
  EngineSettings settings_;
};

} // namespace dps::exp
