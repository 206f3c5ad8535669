#include "experiments/scenario.hpp"

#include "lu/app.hpp"

namespace dps::exp {

core::FidelityConfig EngineSettings::defaultFidelity() {
  core::FidelityConfig f;
  f.enabled = true;
  f.computeJitter = 0.03;
  f.perNodeSpeedSigma = 0.02;
  f.perRunSpeedSigma = 0.015;
  f.perMessageOverhead = microseconds(55);
  f.perMessageJitter = microseconds(30);
  f.chunkBytes = 1460;
  f.perChunkOverhead = microseconds(2);
  f.bandwidthEfficiency = 0.93;
  return f;
}

ScenarioRunner::ScenarioRunner(EngineSettings settings) : settings_(std::move(settings)) {}

net::PlatformProfile ScenarioRunner::calibratedProfile() const {
  const auto& f = settings_.fidelity;
  net::PlatformProfile p = settings_.profile;
  // What a ping-pong benchmark through the fidelity layer measures:
  // latency absorbs the mean per-message overhead; streaming bandwidth
  // absorbs derating plus per-chunk costs.
  p.latency += f.perMessageOverhead + scale(f.perMessageJitter, 0.5);
  const double nominal = p.bandwidthBytesPerSec * f.bandwidthEfficiency;
  const double perByteChunk =
      f.chunkBytes > 0 ? toSeconds(f.perChunkOverhead) / static_cast<double>(f.chunkBytes) : 0.0;
  p.bandwidthBytesPerSec = 1.0 / (1.0 / nominal + perByteChunk);
  return p;
}

core::SimConfig ScenarioRunner::predictorConfig() const {
  core::SimConfig c;
  c.profile = calibratedProfile();
  c.mode = core::ExecutionMode::Pdexec;
  c.allocatePayloads = false; // NOALLOC: fast and memory-light
  c.recordTrace = true;
  return c;
}

core::SimConfig ScenarioRunner::referenceConfig(std::uint64_t fidelitySeed) const {
  core::SimConfig c;
  c.profile = settings_.profile;
  c.mode = core::ExecutionMode::Pdexec;
  c.allocatePayloads = false;
  c.recordTrace = true;
  c.fidelity = settings_.fidelity;
  c.fidelity.enabled = true;
  c.fidelity.seed = fidelitySeed;
  return c;
}

core::RunResult ScenarioRunner::runOne(const lu::LuConfig& cfg, const mall::AllocationPlan& plan,
                                       core::SimConfig config, mall::RemovalPolicy policy) const {
  core::SimEngine engine(std::move(config));
  // Fresh build per run: the column directory mutates under malleability.
  lu::LuBuild build = lu::buildLu(cfg, settings_.model, /*allocate=*/false);
  std::unique_ptr<mall::LuMalleabilityController> controller;
  if (!plan.empty())
    controller = std::make_unique<mall::LuMalleabilityController>(engine, build, plan, policy);
  return lu::runLu(engine, build);
}

Observation ScenarioRunner::run(const lu::LuConfig& cfg, const mall::AllocationPlan& plan,
                                std::uint64_t fidelitySeed, mall::RemovalPolicy policy) const {
  Observation obs;
  obs.label = cfg.variantName() + " r=" + std::to_string(cfg.r) + " w=" +
              std::to_string(cfg.workers) +
              (plan.empty() ? std::string{} : " [" + plan.describe() + "]");
  obs.measured = runOne(cfg, plan, referenceConfig(fidelitySeed), policy);
  lu::checkOutputs(cfg, obs.measured);
  obs.measuredSec = toSeconds(obs.measured.makespan);
  obs.predicted = runOne(cfg, plan, predictorConfig(), policy);
  lu::checkOutputs(cfg, obs.predicted);
  obs.predictedSec = toSeconds(obs.predicted.makespan);
  return obs;
}

} // namespace dps::exp
