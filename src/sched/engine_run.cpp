#include "sched/engine_run.hpp"

#include <memory>
#include <sstream>

#include "core/engine.hpp"
#include "jacobi/app.hpp"
#include "lu/app.hpp"
#include "obs/registry.hpp"
#include "support/error.hpp"
#include "support/fingerprint.hpp"
#include "trace/efficiency.hpp"

namespace dps::sched {

std::uint64_t EngineRunSpec::engineFingerprint() const {
  Fingerprint fp;
  core::fingerprintInto(fp, config);
  lu::fingerprintInto(fp, luModel);
  jacobi::fingerprintInto(fp, jacobiModel);
  return fp.value();
}

std::string EngineRunSpec::cacheSpec() const {
  std::ostringstream os;
  if (app == AppKind::Lu) {
    os << "lu;n=" << lu.n << ";r=" << lu.r << ";seed=" << lu.seed << ";pipe=" << lu.pipelined
       << ";fc=" << lu.flowControl << ";fcl=" << lu.fcLimit << ";pm=" << lu.parallelMult
       << ";sub=" << lu.subBlock << ";w=" << lu.workers;
  } else {
    os << "jacobi;rows=" << jacobi.rows << ";cols=" << jacobi.cols << ";sweeps=" << jacobi.sweeps
       << ";w=" << jacobi.workers << ";seed=" << jacobi.seed;
  }
  os << ";start=" << startAlloc << ";slice=" << slicePhases
     << ";policy=" << static_cast<int>(policy) << ";plan=";
  for (const mall::RemovalStep& s : plan.steps) {
    os << "S@" << s.afterIteration << ":";
    for (std::size_t i = 0; i < s.threads.size(); ++i) os << (i ? "," : "") << s.threads[i];
    os << ";";
  }
  for (const mall::GrowStep& g : plan.grows) {
    os << "G@" << g.afterIteration << ":";
    for (std::size_t i = 0; i < g.threads.size(); ++i) os << (i ? "," : "") << g.threads[i];
    os << ";";
  }
  return os.str();
}

std::uint64_t EngineRunSpec::fingerprint() const {
  Fingerprint fp;
  fp.add(engineFingerprint()).add(cacheSpec());
  return fp.value();
}

EngineRunResult runEngine(const EngineRunSpec& spec, obs::Registry* metrics) {
  core::SimEngine engine(spec.config);
  EngineRunResult out;
  if (spec.app == AppKind::Lu) {
    spec.lu.validate();
    DPS_CHECK(spec.startAlloc >= 0 && spec.startAlloc <= spec.lu.workers,
              "startAlloc out of range for the LU worker count");
    lu::LuBuild build = lu::buildLu(spec.lu, spec.luModel, spec.config.allocatePayloads);
    if (spec.startAlloc > 0 && spec.startAlloc < spec.lu.workers) {
      // Spread columns the way a native build at the start allocation
      // would, so an iteration-0 removal deactivates the surplus workers
      // without moving state.
      for (std::int32_t c = 0; c < build.directory->columns(); ++c)
        build.directory->setOwner(c, c % spec.startAlloc);
    }
    std::unique_ptr<mall::LuMalleabilityController> controller;
    if (!spec.plan.empty()) {
      controller =
          std::make_unique<mall::LuMalleabilityController>(engine, build, spec.plan, spec.policy);
      controller->observeWith(metrics);
    }
    out.run = lu::runLu(engine, build);
    if (controller) out.migratedBytes = controller->migratedBytes();
  } else {
    spec.jacobi.validate();
    DPS_CHECK(spec.plan.empty(), "no Jacobi malleability controller exists");
    DPS_CHECK(spec.startAlloc == 0 || spec.startAlloc == spec.jacobi.workers,
              "Jacobi runs cannot start below their worker count");
    jacobi::JacobiBuild build =
        jacobi::buildJacobi(spec.jacobi, spec.jacobiModel, spec.config.allocatePayloads);
    out.run = jacobi::runJacobi(engine, build);
  }
  if (metrics != nullptr) {
    metrics->counter("engine.runs").add();
    metrics->counter("engine.sim_ns").add(static_cast<std::uint64_t>(out.run.makespan.count()));
  }
  return out;
}

EngineRunRecord executeEngineRun(const EngineRunSpec& spec, obs::Registry* metrics) {
  const EngineRunResult done = runEngine(spec, metrics);
  const core::RunResult& run = done.run;
  EngineRunRecord rec;
  rec.totalSec = toSeconds(run.makespan);
  rec.migratedBytes = static_cast<double>(done.migratedBytes);
  if (spec.slicePhases) {
    DPS_CHECK(run.trace != nullptr, "phase slicing requires trace recording");
    const char* markerName = spec.app == AppKind::Lu ? "iteration" : "sweep";
    const auto segments = trace::dynamicEfficiency(*run.trace, markerName, simEpoch(),
                                                   simEpoch() + run.makespan);
    DPS_CHECK(!segments.empty(), "run produced no phases");
    for (const auto& seg : segments) {
      rec.phaseSec.push_back(toSeconds(seg.end - seg.start));
      rec.phaseEff.push_back(seg.efficiency);
      rec.phaseMarker.push_back(seg.markerValue);
    }
  }
  if (run.trace != nullptr) {
    for (const auto& a : run.trace->allocations())
      rec.allocEvents.push_back(
          AllocEvent{toSeconds(a.time.time_since_epoch()), a.allocatedNodes});
  }
  return rec;
}

EngineRunSpec profileRunSpec(const JobClass& klass, std::int32_t nodes,
                             const ProfileSettings& settings) {
  EngineRunSpec spec;
  spec.app = klass.app;
  if (klass.app == AppKind::Lu) spec.lu = klass.luAt(nodes);
  else spec.jacobi = klass.jacobiAt(nodes);
  spec.slicePhases = true;
  spec.config = settings.simConfig();
  spec.luModel = settings.luModel;
  spec.jacobiModel = settings.jacobiModel;
  return spec;
}

EngineRunSpec whatIfSpec(const lu::LuConfig& cfg, std::int64_t q, const ProfileSettings& settings) {
  EngineRunSpec spec;
  spec.app = AppKind::Lu;
  spec.lu = cfg;
  spec.config = settings.simConfig();
  spec.luModel = settings.luModel;
  spec.jacobiModel = settings.jacobiModel;
  spec.slicePhases = q == 0;
  if (q >= 1) {
    mall::RemovalStep step;
    step.afterIteration = q;
    for (std::int32_t t = cfg.workers / 2; t < cfg.workers; ++t) step.threads.push_back(t);
    spec.plan = mall::AllocationPlan::killAfter({step});
  }
  return spec;
}

PhaseProfile phaseProfileFromRecord(const EngineRunRecord& rec, std::int32_t nodes) {
  PhaseProfile p;
  p.nodes = nodes;
  p.totalSec = rec.totalSec;
  p.phaseSec = rec.phaseSec;
  p.phaseEff = rec.phaseEff;
  p.finalizeRemaining();
  return p;
}

ClassProfile classProfileSkeleton(const JobClass& klass, std::int32_t clusterNodes) {
  ClassProfile cp;
  cp.name = klass.name;
  cp.app = klass.app;
  cp.allocs = feasibleAllocations(klass, clusterNodes);
  if (klass.app == AppKind::Lu) {
    cp.stateBytes = static_cast<double>(klass.lu.n) * klass.lu.n * sizeof(double);
    cp.stateShrinks = true;
  } else {
    cp.stateBytes =
        static_cast<double>(klass.jacobi.rows) * klass.jacobi.cols * sizeof(double);
    cp.stateShrinks = false;
  }
  cp.byAlloc.resize(cp.allocs.size());
  return cp;
}

} // namespace dps::sched
